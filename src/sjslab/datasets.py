"""CSV ingestion and empirical distribution estimation."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .distribution import FiniteJointDistribution
from .errors import EmptyDataset, SchemaViolation
from .space import FeatureSpace


@dataclass(frozen=True)
class DatasetSchema:
    """Declared layout of a CSV dataset.

    ``feature_domains`` maps each feature column to the ordered list of
    admissible categorical values (strings compare after str() so integer
    and string spellings of the same code agree).  ``label_domain`` is
    the ordered list of label values, or None for unlabelled data.
    Missing values are empty fields; ``missing_policy`` decides between
    rejecting the file and dropping the row.
    """

    feature_columns: tuple
    feature_domains: dict
    label_column: str | None = None
    label_domain: tuple | None = None
    missing_policy: str = "error"

    def __init__(self, feature_domains: dict, label_column: str | None = None,
                 label_domain=None, missing_policy: str = "error"):
        if missing_policy not in ("error", "drop_row"):
            raise SchemaViolation(f"unknown missing_policy {missing_policy!r}")
        if label_column is not None and label_domain is None:
            raise SchemaViolation("label_domain required when label_column is set")
        domains = {str(col): tuple(str(v) for v in values)
                   for col, values in feature_domains.items()}
        for col, values in domains.items():
            if len(set(values)) != len(values) or not values:
                raise SchemaViolation(f"domain of {col!r} must be non-empty and duplicate-free")
        object.__setattr__(self, "feature_columns", tuple(domains))
        object.__setattr__(self, "feature_domains", domains)
        object.__setattr__(self, "label_column", label_column)
        object.__setattr__(self, "label_domain",
                           tuple(str(v) for v in label_domain) if label_domain else None)
        object.__setattr__(self, "missing_policy", missing_policy)

    def space(self) -> FeatureSpace:
        return FeatureSpace(self.feature_columns,
                            [len(self.feature_domains[c]) for c in self.feature_columns])

    @property
    def num_labels(self) -> int | None:
        return len(self.label_domain) if self.label_domain else None


@dataclass(frozen=True, eq=False)
class RowTable:
    """Validated, code-encoded rows in file order."""

    schema: DatasetSchema
    feature_codes: np.ndarray = field(repr=False)
    label_codes: np.ndarray | None = field(repr=False, default=None)

    @property
    def num_rows(self) -> int:
        return self.feature_codes.shape[0]


CHUNK_ROWS = 4096
MISSING_ID = 0  # spelling id of the empty field; short rows are padded with it
UNSEEN_CODE = -1
MISSING_CODE = -2


class _FirstSightIds(dict):
    """Key -> id map that numbers each new key on first sight."""

    def __missing__(self, key):
        self[key] = n = len(self)
        return n


class CsvTokens(NamedTuple):
    """A CSV file as its distinct records.

    ``spellings[ids[row_of[r], j]]`` is data row r, column j: ``ids`` holds
    one row of spelling ids per distinct record and ``row_of`` the record
    index of each data row.
    """

    header: list
    spellings: tuple
    ids: np.ndarray
    row_of: np.ndarray


def read_csv_tokens(path) -> CsvTokens:
    """Read a CSV file in one streaming pass into its distinct records.

    :class:`csv.reader` parses the file once.  Each parsed record is
    numbered on first sight and ``row_of`` maps every data row to its
    record, so the per-field work below, and in :func:`decode_tokens`,
    is done once per distinct record, not once per row.  The distinct
    records are mapped to spelling ids ``CHUNK_ROWS`` at a time.  Each
    field maps to the id of its spelling in one table shared by all
    columns, numbered in order of first appearance in the file; id
    ``MISSING_ID`` is the empty field.  As with :class:`csv.DictReader`,
    blank lines are skipped, short rows are padded with empty fields and
    long rows are cut to the header's width, so ``row_of[r]`` is the
    record of the r-th non-blank data row.

    Memory: until the read ends, every distinct record is held as a
    tuple of strings.  A sample over a finite feature space repeats few
    records, so this is small; a file of mostly distinct rows holds
    most of its text this way.
    """
    records = _FirstSightIds()
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        row_of = np.fromiter(map(records.__getitem__, map(tuple, filter(None, reader))),
                             dtype=np.intp)
    width = len(header)
    pad = ("",) * width
    ids = _FirstSightIds({"": MISSING_ID})
    blocks = []
    distinct = iter(records)
    while chunk := list(islice(distinct, CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:  # short or long records
            chunk = [r if len(r) == width else (r + pad)[:width] for r in chunk]
        flat = list(map(ids.__getitem__, chain.from_iterable(chunk)))
        blocks.append(np.array(flat, dtype=np.int32).reshape(len(chunk), width))
    matrix = np.concatenate(blocks) if blocks else np.zeros((0, width), dtype=np.int32)
    return CsvTokens(header, tuple(ids), matrix, row_of)


def column_positions(header) -> dict:
    """Column name -> index; a repeated name reads its last column, as DictReader does."""
    return {name: j for j, name in enumerate(header)}


def load_dataset(path, schema: DatasetSchema) -> RowTable:
    """Read and validate a CSV file against a schema.

    The header must contain every declared column; unseen categorical
    values raise :class:`SchemaViolation` with the offending row and
    column, and missing (empty) values follow the schema's policy.
    Row order is preserved.  The error names the first offending row in
    file order, and within it a missing value before an unseen one;
    row numbers count dropped rows.
    """
    return decode_tokens(read_csv_tokens(path), schema)


def decode_tokens(tokens: CsvTokens, schema: DatasetSchema) -> RowTable:
    """Validate and code a read CSV as :func:`load_dataset` does.

    Lookups and checks run once per distinct record; the codes are then
    expanded to the rows through ``tokens.row_of``.
    """
    header, spellings, ids, row_of = tokens
    for col in schema.feature_columns:
        if col not in header:
            raise SchemaViolation(f"missing feature column {col!r} in header")
    if schema.label_column is not None and schema.label_column not in header:
        raise SchemaViolation(f"missing label column {schema.label_column!r} in header")

    columns = list(schema.feature_columns)
    domains = [schema.feature_domains[c] for c in columns]
    if schema.label_column:
        columns.append(schema.label_column)
        domains.append(schema.label_domain)
    position = column_positions(header)
    spelling_id = {s: k for k, s in enumerate(spellings)}
    codes = np.empty((ids.shape[0], len(columns)), dtype=np.int64)
    for k, (col, domain) in enumerate(zip(columns, domains)):
        lookup = np.full(len(spellings), UNSEEN_CODE, dtype=np.int64)
        for code, value in enumerate(domain):
            if value in spelling_id:
                lookup[spelling_id[value]] = code
        lookup[MISSING_ID] = MISSING_CODE
        codes[:, k] = lookup[ids[:, position[col]]]

    missing = (codes == MISSING_CODE).any(axis=1)
    unseen = (codes == UNSEEN_CODE).any(axis=1)
    if schema.missing_policy == "drop_row":
        bad = unseen & ~missing
    else:
        bad = missing | unseen
    if bad.any():
        # Records are numbered in file order, so the first bad row is the
        # first occurrence of the lowest-numbered bad record.
        record = int(np.argmax(bad))
        row = int(np.argmax(row_of == record))
        if missing[record]:
            k = int(np.argmax(codes[record] == MISSING_CODE))
            raise SchemaViolation("missing value", row=row, column=columns[k])
        k = int(np.argmax(codes[record] == UNSEEN_CODE))
        value = spellings[ids[record, position[columns[k]]]]
        kind = "value" if k < len(schema.feature_columns) else "label"
        raise SchemaViolation(f"{kind} {value!r} not in declared domain",
                              row=row, column=columns[k])
    if missing.any():  # rows left with a missing value are dropped (the error policy raised)
        row_of = row_of[~missing[row_of]]
    nf = len(schema.feature_columns)
    feats = codes[:, :nf][row_of]
    labs = codes[row_of, nf] if schema.label_column else None
    return RowTable(schema, feats, labs)


def empirical_distribution(rows: RowTable, smoothing_alpha: float = 0.0):
    """Cell frequencies with optional additive smoothing.

    Returns a :class:`FiniteJointDistribution` when the rows carry
    labels, otherwise the feature-marginal table.  ``smoothing_alpha``
    adds a pseudo-count to every cell before normalising; recommended
    when a target dataset hits cells unseen in the source (which would
    otherwise violate absolute continuity).
    """
    if rows.num_rows == 0:
        raise EmptyDataset("no rows to estimate from")
    if smoothing_alpha < 0:
        raise SchemaViolation("smoothing_alpha must be non-negative")
    space = rows.schema.space()
    cells = np.ravel_multi_index(rows.feature_codes.T, space.cardinalities)
    if rows.label_codes is None:
        counts = np.bincount(cells, minlength=space.num_cells).astype(np.float64)
        counts += smoothing_alpha
        return counts / counts.sum()
    ell = rows.schema.num_labels
    counts = np.bincount(cells * ell + rows.label_codes, minlength=space.num_cells * ell)
    counts = counts.reshape(space.num_cells, ell).astype(np.float64)
    counts += smoothing_alpha
    return FiniteJointDistribution(space, ell, counts / counts.sum())


def write_rows_csv(path, schema: DatasetSchema, feature_codes: np.ndarray,
                   label_codes: np.ndarray | None = None) -> None:
    """Write code-encoded rows back to CSV using the schema's value spellings."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(schema.feature_columns)
        if label_codes is not None:
            header.append(schema.label_column or "label")
        writer.writerow(header)
        feature_codes = np.asarray(feature_codes)
        columns = [np.asarray(schema.feature_domains[c], dtype=object)[feature_codes[:, j]].tolist()
                   for j, c in enumerate(schema.feature_columns)]
        if label_codes is not None:
            label_codes = np.asarray(label_codes)
            columns.append(np.asarray(schema.label_domain, dtype=object)[label_codes].tolist()
                           if schema.label_domain
                           else [str(int(v)) for v in label_codes.tolist()])
        writer.writerows(zip(*columns))


def schema_for_distribution(dist: FiniteJointDistribution,
                            labelled: bool = True) -> DatasetSchema:
    """Schema matching a distribution's space.

    Feature values are spelled as in ``dist.domains`` when the table
    carries them, and as the integer codes ``0..card-1`` otherwise.
    """
    spellings = dist.domains or [[str(v) for v in range(card)]
                                 for card in dist.space.cardinalities]
    domains = dict(zip(dist.space.feature_names, spellings))
    if labelled:
        return DatasetSchema(domains, label_column="label",
                             label_domain=[str(v) for v in range(dist.num_labels)])
    return DatasetSchema(domains)


def sample_rows(dist: FiniteJointDistribution, n: int, seed,
                labelled: bool = True) -> tuple:
    """Draw i.i.d. rows from an exact table; returns (feature_codes, label_codes)."""
    rng = np.random.default_rng(seed)
    flat = dist.mass.ravel()
    draws = rng.choice(flat.size, size=n, p=flat / flat.sum())
    cells, labels = np.divmod(draws, dist.num_labels)
    coords = dist.space.coords_of(cells)
    return coords, (labels if labelled else None)
