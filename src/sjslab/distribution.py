"""Exact finite joint distributions over (feature cell, label) pairs.

The joint table is the single source of truth: marginals, conditionals,
class-conditional distributions, density ratios and importance weights
are all derived from it by exact summation, so every identity that holds
for the underlying measures holds for these tables up to float64
round-off.

Zero-mass cells are kept explicit.  Conditional tables carry a per-cell
``defined`` mask so that a "0/0 treated as 0" entry can be told apart
from a genuine zero probability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AbsoluteContinuityViolated, InvalidDistribution, ZeroLabelMass
from .space import FeaturePartition, FeatureSpace, aggregate

MASS_TOL = 1e-12
LOAD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteJointDistribution:
    """Probability table over (feature cell, label) pairs.

    Parameters
    ----------
    space : FeatureSpace
        Domain of the feature vector.
    num_labels : int
        Number of labels, at least 2.
    mass : ndarray, shape (space.num_cells, num_labels)
        Finite, non-negative entries summing to 1 within ``1e-12``.
    domains : sequence of sequences of str, optional
        The value spelling of each code, one sequence per feature, as
        read from a CSV sample.  Data decoded against this table (a
        target sample) must use the same spellings.  None means the
        codes ``0..card-1`` spell themselves.

    Notes
    -----
    Construction does not require every label to carry positive mass;
    operations that need strictly positive label priors (class
    conditionals, shift checks, estimators) enforce that themselves and
    raise :class:`ZeroLabelMass`.
    """

    space: FeatureSpace
    num_labels: int
    mass: np.ndarray = field(repr=False)
    domains: tuple | None = field(repr=False, default=None)

    def __init__(self, space: FeatureSpace, num_labels: int, mass: np.ndarray,
                 domains=None):
        num_labels = int(num_labels)
        if num_labels < 2:
            raise InvalidDistribution(f"need at least 2 labels, got {num_labels}")
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (space.num_cells, num_labels):
            raise InvalidDistribution(
                f"mass must have shape ({space.num_cells}, {num_labels}), got {mass.shape}")
        if not np.all(np.isfinite(mass)):
            x, i = np.unravel_index(int(np.argmin(np.isfinite(mass))), mass.shape)
            raise InvalidDistribution(f"mass {mass[x, i]} at cell {x}, label {i} is not finite")
        if np.any(mass < 0):
            x, i = np.unravel_index(int(np.argmin(mass)), mass.shape)
            raise InvalidDistribution(f"negative mass {mass[x, i]:.3g} at cell {x}, label {i}")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistribution(f"total mass is {total!r}, expected 1 within {MASS_TOL}")
        if domains is not None:
            domains = tuple(tuple(str(v) for v in values) for values in domains)
            if len(domains) != space.num_features:
                raise InvalidDistribution(
                    f"need one domain per feature ({space.num_features}), got {len(domains)}")
            for name, card, values in zip(space.feature_names, space.cardinalities, domains):
                if len(values) != card or len(set(values)) != card:
                    raise InvalidDistribution(
                        f"domain of {name!r} must list {card} distinct values, got {list(values)}")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num_labels", num_labels)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "domains", domains)

    # -- basic marginals --------------------------------------------------

    def label_masses(self) -> np.ndarray:
        """Prior probability of each label."""
        return self.mass.sum(axis=0)

    def feature_marginal(self) -> np.ndarray:
        """Probability of each feature cell."""
        return self.mass.sum(axis=1)

    def require_positive_labels(self, where: str = "distribution") -> None:
        """Raise :class:`ZeroLabelMass` unless every label has positive mass."""
        masses = self.label_masses()
        for i in range(self.num_labels):
            if masses[i] <= 0.0:
                raise ZeroLabelMass(i, where)

    def project(self, partition: FeaturePartition) -> np.ndarray:
        """(partition cell, label) mass table."""
        return aggregate(self.mass, partition)

    @cached_property
    def full_posterior(self) -> "ConditionalTable":
        """Label posterior given all features, built once: ``mass`` is read-only."""
        return posterior(self, FeaturePartition.full(self.space))

    # -- serialisation -----------------------------------------------------

    def _nonzero_rows(self) -> tuple:
        """``(fields, p)`` of the non-zero entries in row-major order.

        ``fields`` holds each entry's coordinates and label, ``p`` its mass.
        """
        cells, labels = np.nonzero(self.mass)
        return np.column_stack([self.space.coords_of(cells), labels]), self.mass[cells, labels]

    def _document(self, rows: list) -> dict:
        out = {
            "features": [{"name": n, "cardinality": c}
                         for n, c in zip(self.space.feature_names, self.space.cardinalities)],
            "num_labels": self.num_labels,
            "mass": rows,
        }
        if self.domains is not None:
            out["domains"] = [list(values) for values in self.domains]
        return out

    def to_json_dict(self) -> dict:
        fields, p = self._nonzero_rows()
        return self._document([row + [q] for row, q in zip(fields.tolist(), p.tolist())])

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json_dict(), sort_keys=True, indent=2)`` and a newline.

        The mass rows are laid out by :func:`_indented_rows` rather than
        by the pure-Python indenting encoder, which costs most of the time.
        """
        text = json.dumps(self._document([]), sort_keys=True, indent=2)
        rows = _indented_rows(*self._nonzero_rows())
        # JSON strings hold no raw newline, so this is the top-level key.
        text = text.replace('\n  "mass": []', '\n  "mass": ' + rows, 1)
        Path(path).write_text(text + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteJointDistribution":
        """Parse the on-disk format.

        Rows are ``[coord_1, ..., coord_d, label, p]`` in any order;
        missing entries are zero and duplicate rows accumulate.  Labels
        and coordinates must be integers in range and ``p`` finite and
        non-negative; the first row that breaks a rule, in file order,
        is named in the error.  The table is renormalised when its total
        is within ``1e-9`` of 1 and rejected otherwise.  An optional
        ``domains`` key lists each feature's value spellings, in feature
        order.
        """
        try:
            names = [f["name"] for f in data["features"]]
            cards = [int(f["cardinality"]) for f in data["features"]]
            num_labels = int(data["num_labels"])
            rows = data["mass"]
            domains = data.get("domains")
        except (KeyError, TypeError) as exc:
            raise InvalidDistribution(f"malformed distribution document: {exc}") from exc
        if domains is not None and not (isinstance(domains, list)
                                        and all(isinstance(v, list) for v in domains)):
            raise InvalidDistribution("domains must be a list of value lists, one per feature")
        if not isinstance(rows, list):
            raise InvalidDistribution("mass must be a list of rows")
        space = FeatureSpace(names, cards)
        d = space.num_features
        try:
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            # Rows before the first one with a wrong field count are parsed and checked first.
            wrong = np.flatnonzero(lengths != d + 2)
            m = int(wrong[0]) if wrong.size else len(rows)
            table = np.fromiter(chain.from_iterable(rows[:m]), dtype=np.float64,
                                count=m * (d + 2)).reshape(m, d + 2)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidDistribution(f"mass rows must be lists of numbers: {exc}") from exc
        _check_rows(rows, table, names, cards, num_labels)
        if m < len(rows):
            raise InvalidDistribution(f"mass row {m} has {lengths[m]} fields, expected {d + 2}")
        cells = np.ravel_multi_index(tuple(table[:, :d].astype(np.int64).T), space.cardinalities)
        flat = cells * num_labels + table[:, d].astype(np.int64)
        mass = np.bincount(flat, weights=table[:, d + 1], minlength=space.num_cells * num_labels)
        mass = mass.reshape(space.num_cells, num_labels)
        total = mass.sum()
        if abs(total - 1.0) > LOAD_TOL:
            raise InvalidDistribution(
                f"mass totals {total!r}; only totals within {LOAD_TOL} of 1 are renormalised")
        return cls(space, num_labels, mass / total, domains)

    @classmethod
    def load(cls, path) -> "FiniteJointDistribution":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _indented_rows(fields: np.ndarray, p: np.ndarray) -> str:
    """Rows ``[*fields[k], p[k]]`` as ``json.dumps(..., indent=2)`` lays them out one level down.

    ``fields`` holds non-negative integers, written from a table of the
    distinct values; ``p`` is written with ``repr``, as the encoder does.
    """
    if not p.size:
        return "[]"
    values = np.flatnonzero(np.bincount(fields.ravel()))
    text = np.array([f"{v},\n      " for v in values.tolist()], dtype=object)
    columns = text[np.searchsorted(values, fields)].T.tolist()
    rows = map("".join, zip(*columns, map(repr, p.tolist())))
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"


def _check_rows(rows: list, table: np.ndarray, names: list, cards: list, num_labels: int) -> None:
    """Raise for the first row of ``table`` (parsed from ``rows``) that breaks a rule.

    Within a row the label is checked first, then each coordinate, then
    ``p``.  A label or coordinate whose truncation is out of range is out
    of range; one in range that is not whole is not an integer.
    """
    d = len(names)
    fields = table[:, :d + 1]
    whole = np.trunc(fields)
    bad = np.empty(table.shape, dtype=bool)
    bad[:, :d + 1] = ~((whole >= 0) & (whole < np.array(cards + [num_labels])) & (whole == fields))
    p = table[:, d + 1]
    bad[:, d + 1] = ~((p >= 0) & (p < np.inf))
    check_order = [d, *range(d), d + 1]
    bad = bad[:, check_order]
    failed = bad.any(axis=1)
    if not failed.any():
        return
    k = int(np.argmax(failed))
    col = check_order[int(np.argmax(bad[k]))]
    value, raw = table[k, col], rows[k][col]
    if col == d + 1:
        if value < 0:
            raise InvalidDistribution(f"mass row {k}: negative probability {float(raw)}")
        raise InvalidDistribution(f"mass row {k}: probability {raw} is not finite")
    limit = num_labels if col == d else cards[col]
    out_of_range = np.isfinite(value) and not 0 <= np.trunc(value) < limit
    if col == d:
        if out_of_range:
            raise InvalidDistribution(f"mass row {k}: label {int(raw)} out of range")
        raise InvalidDistribution(f"mass row {k}: label {raw} is not an integer")
    if out_of_range:
        raise InvalidDistribution(
            f"mass row {k}: value {raw} out of range for feature {names[col]!r}")
    raise InvalidDistribution(
        f"mass row {k}: value {raw} for feature {names[col]!r} is not an integer")


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Per-(partition cell, label) values with an explicit defined mask.

    ``defined[n]`` is False when the conditioning cell has zero mass and
    the row was filled with the 0/0-as-0 convention.
    """

    partition: FeaturePartition
    values: np.ndarray = field(repr=False)
    defined: np.ndarray = field(repr=False)

    def __init__(self, partition: FeaturePartition, values: np.ndarray, defined: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != partition.num_cells:
            raise InvalidDistribution(
                f"values must have {partition.num_cells} rows, got shape {values.shape}")
        defined = np.asarray(defined, dtype=bool)
        if defined.shape != (partition.num_cells,):
            raise InvalidDistribution("defined mask must have one entry per partition cell")
        values = values.copy()
        values.setflags(write=False)
        defined = defined.copy()
        defined.setflags(write=False)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)

    @property
    def num_labels(self) -> int:
        return self.values.shape[1]


# -- core operations ---------------------------------------------------------


def ratio(num, den) -> np.ndarray:
    """``num / den`` where ``den > 0`` and 0 elsewhere (0/0 as 0), broadcast."""
    num, den = np.asarray(num, dtype=np.float64), np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den > 0.0)


def density_ratio(q, p, label: int | None = None) -> np.ndarray:
    """``ratio(q, p)`` of target over source masses, absolutely continuous.

    Raises
    ------
    AbsoluteContinuityViolated
        At the first entry, in row-major order, with ``q > 0`` and
        ``p == 0``.  It names the cell, and the label: the column of a
        2-D table, or ``label``.
    """
    q, p = np.asarray(q, dtype=np.float64), np.asarray(p, dtype=np.float64)
    bad = (p == 0.0) & (q > 0.0)
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        cell = int(at[0])
        if bad.ndim == 2:
            label = int(at[1])
        raise AbsoluteContinuityViolated(cell, label=label, mass=float(q[at]))
    return ratio(q, p)


def class_conditional(dist: FiniteJointDistribution, label: int) -> np.ndarray:
    """Feature distribution conditional on one label.

    Returns the normalised table ``P[cell | label]`` over feature cells.

    Raises
    ------
    ZeroLabelMass
        If the label has zero prior probability.
    """
    if not 0 <= label < dist.num_labels:
        raise InvalidDistribution(f"label {label} out of range 0..{dist.num_labels - 1}")
    masses = dist.label_masses()
    if masses[label] <= 0.0:
        raise ZeroLabelMass(label)
    return dist.mass[:, label] / masses[label]


def posterior(dist: FiniteJointDistribution, partition: FeaturePartition) -> ConditionalTable:
    """Label probabilities conditional on a partition of the features.

    Entry ``(n, i)`` is ``dist[label i and cell n] / dist[cell n]``.
    Cells with zero mass are flagged as undefined and filled with zeros
    rather than being dropped, so downstream code can distinguish a
    convention-zero from a true zero posterior.
    """
    table = dist.project(partition)
    cell_mass = table.sum(axis=1)
    return ConditionalTable(partition, ratio(table, cell_mass[:, None]), cell_mass > 0.0)


def marginal_density(q: FiniteJointDistribution, p: FiniteJointDistribution,
                     partition: FeaturePartition) -> np.ndarray:
    """Density of the target feature marginal w.r.t. the source, per cell.

    Entry ``n`` is ``q[cell n] / p[cell n]``; cells that are null under
    both measures get density 0.  Satisfies ``E_p[density] = 1``.

    Raises
    ------
    AbsoluteContinuityViolated
        If some cell has positive target mass but zero source mass.
    """
    return density_ratio(aggregate(q.feature_marginal(), partition),
                         aggregate(p.feature_marginal(), partition))


def class_conditional_density(q: FiniteJointDistribution, p: FiniteJointDistribution,
                              partition: FeaturePartition, label: int) -> np.ndarray:
    """Per-cell density of the target class-conditional w.r.t. the source one.

    Entry ``n`` is ``q[cell n | label] / p[cell n | label]``, with
    ``E_{p(.|label)}[density] = 1``.
    """
    return density_ratio(aggregate(class_conditional(q, label), partition),
                         aggregate(class_conditional(p, label), partition), label)


def full_importance_weight(q: FiniteJointDistribution,
                           p: FiniteJointDistribution) -> np.ndarray:
    """Importance weight table over (feature cell, label): ``density_ratio(q.mass, p.mass)``.

    Entry ``(x, i)`` is the per-label feature density times the prior
    ratio, which reconstructs the target cellwise: ``q = weight * p``.
    """
    if q.num_labels != p.num_labels or q.space != p.space:
        raise InvalidDistribution("source and target must share space and labels")
    p.require_positive_labels("source")
    q.require_positive_labels("target")
    return density_ratio(q.mass, p.mass)


def kl_divergence(p_table: np.ndarray, q_table: np.ndarray) -> float:
    """Kullback-Leibler divergence between two mass tables.

    Computes ``sum p * log(p / q)`` with the conventions ``0 log 0 = 0``
    and a return value of ``inf`` whenever ``q`` is zero on an event of
    positive ``p`` mass.
    """
    p_table = np.asarray(p_table, dtype=np.float64).ravel()
    q_table = np.asarray(q_table, dtype=np.float64).ravel()
    if p_table.shape != q_table.shape:
        raise InvalidDistribution("tables must share their index set")
    if np.any(p_table < 0) or np.any(q_table < 0):
        raise InvalidDistribution("tables must be non-negative")
    pos = p_table > 0.0
    if np.any(q_table[pos] == 0.0):
        return float("inf")
    p_pos, q_pos = p_table[pos], q_table[pos]
    # A difference of logs: p / q overflows when q is subnormal.
    return float(np.sum(p_pos * (np.log(p_pos) - np.log(q_pos))))


def check_absolute_continuity(q: FiniteJointDistribution,
                              p: FiniteJointDistribution) -> None:
    """Raise unless the target joint is absolutely continuous w.r.t. the source."""
    if q.space != p.space or q.num_labels != p.num_labels:
        raise InvalidDistribution("source and target must share space and labels")
    if np.any(q.mass[p.mass == 0.0] > 0.0):
        density_ratio(q.mass, p.mass)  # raises at the first violation
