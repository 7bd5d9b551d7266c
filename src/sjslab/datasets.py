"""Every CSV rule: reading, schemas, the source and target loaders, empirical tables and writers."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .distribution import FiniteJointDistribution, _finite_non_negative, _same_features, _spelled
from .errors import EmptyDataset, InvalidDistribution, SchemaViolation, naming_file
from .space import FeatureSpace

LABEL = "label"  # the label column of every labelled CSV


@dataclass(frozen=True)
class DatasetSchema:
    """Declared layout of a CSV dataset.

    ``feature_domains`` maps each feature column to the ordered list of
    admissible categorical values (strings compare after str() so integer
    and string spellings of the same code agree).  ``label_domain`` is
    the ordered list of label values, read from the column ``LABEL``, or
    None for unlabelled data.  Every domain is non-empty and
    duplicate-free.  An empty field is a missing value, which every
    loader rejects with its row and column.
    """

    feature_columns: tuple
    feature_domains: dict
    label_domain: tuple | None = None

    def __init__(self, feature_domains: dict, label_domain=None):
        domains = {str(col): _domain(str(col), values) for col, values in feature_domains.items()}
        object.__setattr__(self, "feature_columns", tuple(domains))
        object.__setattr__(self, "feature_domains", domains)
        object.__setattr__(self, "label_domain",
                           None if label_domain is None else _domain(LABEL, label_domain))

    def space(self) -> FeatureSpace:
        return FeatureSpace(self.feature_columns,
                            [len(self.feature_domains[c]) for c in self.feature_columns])

    @property
    def num_labels(self) -> int | None:
        return len(self.label_domain) if self.label_domain else None


def _domain(column, values) -> tuple:
    """A column's values as strings, or :class:`SchemaViolation` unless non-empty and distinct."""
    values = tuple(str(v) for v in values)
    if len(set(values)) != len(values) or not values:
        raise SchemaViolation(f"domain of {column!r} must be non-empty and duplicate-free")
    return values


@dataclass(frozen=True, eq=False)
class RowTable:
    """Validated, code-encoded rows in file order."""

    schema: DatasetSchema
    feature_codes: np.ndarray = field(repr=False)
    label_codes: np.ndarray | None = field(repr=False, default=None)

    @property
    def num_rows(self) -> int:
        return self.feature_codes.shape[0]


BLOCK_CHARS = 1 << 18  # characters per read on the plain-line path
BLOCK_ROWS = 1 << 16  # feature cells per write of a posterior CSV
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

    Two paths give the same result, chosen by what the file holds:

    - **Plain lines.**  A file with no ``"`` and no ``\\r`` is read in
      blocks of ``BLOCK_CHARS`` characters and split on ``\\n``.  Each
      distinct non-empty line is numbered on first sight and split on
      ``,`` once; ``row_of`` maps every data row to its line.  Memory:
      one block, every distinct line as a string, and ``row_of``.
    - **csv.reader.**  Any other file, or one with a distinct line
      longer than :func:`csv.field_size_limit` (where the reader may
      raise), is parsed by :class:`csv.reader` from its start.  Each
      parsed record is numbered on first sight.  Memory: every distinct
      record as a tuple of strings, and ``row_of``.

    Either way the per-field work below, and in :func:`load_dataset`,
    is done once per distinct record, not once per row.  The distinct
    records are mapped to spelling ids in one pass: each field maps to
    the id of its spelling in one table shared by all columns, numbered
    in order of first appearance in the file; id ``MISSING_ID`` is the
    empty field.  As with :class:`csv.DictReader`, blank lines are
    skipped, short rows are padded with empty fields and long rows are
    cut to the header's width, so ``row_of[r]`` is the record of the
    r-th non-blank data row.  A sample over a finite feature space
    repeats few records, so the distinct records are small; a file of
    mostly distinct rows holds most of its text.
    """
    with Path(path).open(newline="") as fh:
        read = _read_plain_lines(fh)
        if read is None:
            fh.seek(0)
            read = _read_csv_records(fh)
    header, records, row_of = read
    width = len(header)
    pad = [""] * width
    fields = chain.from_iterable(r if len(r) == width else ([*r] + pad)[:width] for r in records)
    ids = _FirstSightIds({"": MISSING_ID})
    num_records = int(row_of.max(initial=-1)) + 1  # every distinct record has a row
    matrix = np.fromiter(map(ids.__getitem__, fields), np.int32, num_records * width)
    return CsvTokens(header, tuple(ids), matrix.reshape(num_records, width), row_of)


def _read_csv_records(fh) -> tuple:
    """``(header, distinct records, row_of)`` parsed by :class:`csv.reader`."""
    records = _FirstSightIds()
    reader = csv.reader(fh)
    header = next(reader, [])
    row_of = np.fromiter(map(records.__getitem__, map(tuple, filter(None, reader))),
                         dtype=np.intp)
    return header, records, row_of


def _read_plain_lines(fh):
    """:func:`_read_csv_records` by splitting lines, or None where it must parse.

    Without ``"`` (no quoting) and ``\\r`` (``\\n`` ends every line),
    :class:`csv.reader` splits a line on ``,`` and nothing else, and
    yields an empty line as the blank record it skips.
    """
    first = fh.readline()
    if '"' in first or "\r" in first:
        return None
    first = first.removesuffix("\n")
    records = _FirstSightIds()
    parts = []
    tail = ""
    while block := fh.read(BLOCK_CHARS):
        if '"' in block or "\r" in block:
            return None
        lines = (tail + block).split("\n")
        tail = lines.pop()
        parts.append(np.fromiter(map(records.__getitem__, filter(None, lines)),
                                 dtype=np.intp))
    if tail:
        parts.append(np.array([records[tail]], dtype=np.intp))
    limit = csv.field_size_limit()  # read at call time, as csv.reader does
    if len(first) > limit or max(map(len, records), default=0) > limit:
        return None  # a field may be over the limit: csv.reader raises its error
    row_of = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
    return (first.split(",") if first else []), (line.split(",") for line in records), row_of


def column_positions(header) -> dict:
    """Column name -> index; a repeated name reads its last column, as DictReader does."""
    return {name: j for j, name in enumerate(header)}


def infer_schema(path) -> DatasetSchema:
    """Labelled schema of the values a CSV holds, shortest first, then lexicographically."""
    with naming_file(path):
        return _schema_of_tokens(read_csv_tokens(path))


def _schema_of_tokens(tokens: CsvTokens) -> DatasetSchema:
    """:func:`infer_schema` of a read CSV."""
    header, spellings, ids, _ = tokens
    if not header:
        raise SchemaViolation("no header")
    if LABEL not in header:
        raise SchemaViolation(f"labelled CSV must have a {LABEL!r} column")
    features = [c for c in header if c != LABEL]
    if not features:
        raise SchemaViolation("no feature column")
    position = column_positions(header)

    def observed(col):  # every distinct record occurs in some row
        used = np.unique(ids[:, position[col]])
        return sorted((spellings[k] for k in used if k != MISSING_ID),
                      key=lambda s: (len(s), s))

    return DatasetSchema({c: observed(c) for c in features}, observed(LABEL))


def load_dataset(path, schema: DatasetSchema) -> RowTable:
    """Read and validate a CSV file against a schema.

    The header must contain every declared column; unseen categorical
    values raise :class:`SchemaViolation` with the offending row and
    column, and so do missing (empty) values.  Row order is preserved.
    The error names the first offending row in file order, and within
    it a missing value before an unseen one.
    """
    tokens = read_csv_tokens(path)
    codes = _record_codes(tokens, schema)
    nf = len(schema.feature_columns)
    feats = codes[:, :nf][tokens.row_of]
    labs = None if schema.label_domain is None else codes[tokens.row_of, nf]
    return RowTable(schema, feats, labs)


def tokens_distribution(tokens: CsvTokens, schema: DatasetSchema,
                        smoothing_alpha: float = 0.0):
    """The table of :func:`empirical_distribution` on the decoded rows, without expanding them.

    Each distinct record is counted once, weighted by its number of
    rows.  The weighted sums add integers, which float64 holds exactly,
    so the masses are bit for bit those of ``empirical_distribution(
    load_dataset(path, schema), smoothing_alpha)`` for the file ``tokens``
    was read from.  A joint table also keeps the schema's feature
    spellings as its ``domains``.
    """
    codes = _record_codes(tokens, schema)
    counts = np.bincount(tokens.row_of, minlength=codes.shape[0])
    nf = len(schema.feature_columns)
    labels = None if schema.label_domain is None else codes[:, nf]
    return _frequencies(schema, codes[:, :nf], labels, counts.astype(np.float64), smoothing_alpha,
                        [schema.feature_domains[c] for c in schema.feature_columns])


def load_source(path, smoothing_alpha: float = 0.0) -> FiniteJointDistribution:
    """Source joint from exact JSON or a labelled CSV sample.

    A path ending in ``.json`` is a table; any other is a CSV.  A CSV is
    read once; its schema is inferred from the same tokens that are then
    counted.  A table read from CSV keeps the feature values it saw as
    its ``domains``, so that a target sample is decoded with the same
    spellings.  An error names the file.
    """
    path = Path(path)
    with naming_file(path):
        if path.suffix == ".json":
            return FiniteJointDistribution.load(path)
        tokens = read_csv_tokens(path)
        if tokens.header and not tokens.row_of.size:
            raise EmptyDataset("no rows to estimate from")
        return tokens_distribution(tokens, _schema_of_tokens(tokens), smoothing_alpha)


def load_target_marginal(path, source: FiniteJointDistribution,
                         smoothing_alpha: float = 0.0) -> np.ndarray:
    """Target feature marginal from exact JSON or a feature-only CSV sample.

    CSV columns are decoded with the source's value spellings (its
    ``domains``, or the codes ``0..card-1`` when it has none); values
    outside them are schema violations.  An error names the file.
    """
    path = Path(path)
    with naming_file(path):
        if path.suffix == ".json":
            target = FiniteJointDistribution.load(path)
            _same_features(source, target)
            return target.feature_marginal()
        schema = schema_for_distribution(source, labelled=False)
        return tokens_distribution(read_csv_tokens(path), schema, smoothing_alpha)


def _record_codes(tokens: CsvTokens, schema: DatasetSchema) -> np.ndarray:
    """Check and code each distinct record of a read CSV.

    Returns one row of codes per distinct record: the feature columns,
    then the label column if the schema has one.  Errors are those of
    :func:`load_dataset`, naming the row, column and value.
    """
    header, spellings, ids, row_of = tokens
    nf = len(schema.feature_columns)
    columns = list(schema.feature_columns)
    domains = [schema.feature_domains[c] for c in columns]
    if schema.label_domain is not None:
        columns.append(LABEL)
        domains.append(schema.label_domain)
    for k, col in enumerate(columns):
        if col not in header:
            kind = "feature" if k < nf else "label"
            raise SchemaViolation(f"missing {kind} column {col!r} in header")
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
        kind = "value" if k < nf else "label"
        raise SchemaViolation(f"{kind} {value!r} not in declared domain",
                              row=row, column=columns[k])
    return codes


def empirical_distribution(rows: RowTable, smoothing_alpha: float = 0.0):
    """Cell frequencies with optional additive smoothing.

    Returns a :class:`FiniteJointDistribution` when the rows carry
    labels, otherwise the feature-marginal table.  ``smoothing_alpha``
    (finite, >= 0) adds a pseudo-count to every cell before normalising;
    recommended when a target dataset hits cells unseen in the source
    (which would otherwise violate absolute continuity).
    """
    return _frequencies(rows.schema, rows.feature_codes, rows.label_codes, None,
                        smoothing_alpha)


def _frequencies(schema: DatasetSchema, feature_codes, label_codes, weights,
                 smoothing_alpha: float, domains=None):
    """:func:`empirical_distribution` of coded rows, each counted ``weights`` times (or once).

    A joint table carries ``domains`` as its value spellings.
    """
    if feature_codes.shape[0] == 0:
        raise EmptyDataset("no rows to estimate from")
    _finite_non_negative(smoothing_alpha, "smoothing_alpha")
    space = schema.space()
    cells = np.ravel_multi_index(feature_codes.T, space.cardinalities)
    labels, ell = (0, 1) if label_codes is None else (label_codes, schema.num_labels)
    counts = np.bincount(cells * ell + labels, weights, minlength=space.num_cells * ell)
    counts = counts.astype(np.float64, copy=False)
    counts += smoothing_alpha
    mass = counts / counts.sum()
    if label_codes is None:  # a feature-only table: the one-label case, as a marginal
        return mass
    return FiniteJointDistribution(space, ell, mass.reshape(space.num_cells, ell), domains)


def write_rows_csv(path, schema: DatasetSchema, feature_codes: np.ndarray,
                   label_codes: np.ndarray | None = None) -> None:
    """Write code-encoded rows back to CSV using the schema's value spellings."""
    header = list(schema.feature_columns)
    if label_codes is not None:
        header.append(LABEL)
    # "\n" ends lines, so the plain-line read applies, unless a spelling holds "\r":
    # csv.writer quotes a "\r" in a field only when "\r" is in its line terminator.
    spellings = chain(header, *schema.feature_domains.values(), schema.label_domain or ())
    crlf = any("\r" in value for value in spellings)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if crlf else "\n")
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


def write_posterior_csv(path, source: FiniteJointDistribution, table) -> None:
    """Write a table over the feature cells of ``source`` (a posterior) as CSV.

    The header names the features, ``posterior_0``, ... and ``defined``, as
    ``csv.writer`` quotes them.  Then one ``\\r\\n``-ended line per cell, in
    cell order: its codes, the ``repr`` of each label's value and ``defined``
    as 1 or 0.  Each distinct value is spelled once; lines go out in blocks
    of ``BLOCK_ROWS``.  A table of other than one row per cell raises
    :class:`InvalidDistribution`.
    """
    num_cells = source.space.num_cells
    if table.values.shape[0] != num_cells:
        raise InvalidDistribution(f"posterior table has {table.values.shape[0]} rows, "
                                  f"source has {num_cells} feature cells")
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(list(source.space.feature_names)
                                + [f"posterior_{i}" for i in range(table.num_labels)]
                                + ["defined"])
        for start in range(0, num_cells, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, num_cells)
            coords = source.space.coords_of(np.arange(start, stop))
            fields = np.concatenate([_spelled(coords, "{},".format),
                                     _spelled(table.values[start:stop], "{!r},".format),
                                     _spelled(table.defined[start:stop, None], "{}\r\n".format)],
                                    axis=1)
            fh.write("".join(fields.ravel().tolist()))


def schema_for_distribution(dist: FiniteJointDistribution,
                            labelled: bool = True) -> DatasetSchema:
    """Schema matching a distribution's space.

    Feature values are spelled as in ``dist.domains`` when the table
    carries them, and as the integer codes ``0..card-1`` otherwise.
    """
    spellings = dist.domains or [[str(v) for v in range(card)]
                                 for card in dist.space.cardinalities]
    domains = dict(zip(dist.space.feature_names, spellings))
    return DatasetSchema(domains, [str(v) for v in range(dist.num_labels)] if labelled else None)


def sample_rows(dist: FiniteJointDistribution, n: int, seed,
                labelled: bool = True) -> tuple:
    """Draw i.i.d. rows from an exact table; returns (feature_codes, label_codes)."""
    rng = np.random.default_rng(seed)
    flat = dist.mass.ravel()
    draws = rng.choice(flat.size, size=n, p=flat / flat.sum())
    cells, labels = np.divmod(draws, dist.num_labels)
    coords = dist.space.coords_of(cells)
    return coords, (labels if labelled else None)
