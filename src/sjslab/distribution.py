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
import numbers
import weakref
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (AbsoluteContinuityViolated, InvalidDistribution, SchemaViolation,
                     ZeroLabelMass, _checked, _field)
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
        num_labels = int(_checked("table", "num_labels", num_labels, numbers.Integral,
                                  "an integer"))
        if num_labels < 2:
            raise InvalidDistribution(f"need at least 2 labels, got {num_labels}")
        mass = _finite_non_negative(mass, "mass", ("cell", "label"))
        if mass.shape != (space.num_cells, num_labels):
            raise InvalidDistribution(
                f"mass must have shape ({space.num_cells}, {num_labels}), got {mass.shape}")
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
        mass = _read_only(mass.copy())
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num_labels", num_labels)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "domains", domains)

    def __getstate__(self) -> dict:
        # The cached sums stay out: they are computed again on demand, and a weak dict can't pickle.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- basic marginals --------------------------------------------------
    # ``mass`` is read-only, so each sum below is computed once per table
    # and returned read-only; a caller copies before changing one.

    def label_masses(self) -> np.ndarray:
        """Prior probability of each label."""
        return self._label_masses

    def feature_marginal(self) -> np.ndarray:
        """Probability of each feature cell."""
        return self._feature_marginal

    @cached_property
    def _label_masses(self) -> np.ndarray:
        return _read_only(self.mass.sum(axis=0))

    @cached_property
    def _feature_marginal(self) -> np.ndarray:
        return _read_only(self.mass.sum(axis=1))

    @cached_property
    def _projections(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def require_positive_labels(self, where: str = "distribution") -> None:
        """Raise :class:`ZeroLabelMass` unless every label has positive mass."""
        masses = self.label_masses()
        for i in range(self.num_labels):
            if masses[i] <= 0.0:
                raise ZeroLabelMass(i, where)

    def project(self, partition: FeaturePartition) -> np.ndarray:
        """(partition cell, label) mass table, summed once per partition object.

        The table is kept while the partition lives: partitions compare
        by identity, and the entry goes with its partition.
        """
        table = self._projections.get(partition)
        if table is None:
            table = self._projections[partition] = _read_only(aggregate(self.mass, partition))
        return table

    @cached_property
    def full_posterior(self) -> "ConditionalTable":
        """Label posterior given all features, built once: ``mass`` is read-only."""
        return _normalised_rows(FeaturePartition.full(self.space), self.mass)

    # -- serialisation -----------------------------------------------------

    def save(self, path) -> None:
        """Write the table document as ``json.dumps(..., sort_keys=True, indent=2)`` and a newline.

        The document holds ``features``, ``num_labels``, ``domains`` if set,
        and ``mass``: one row ``[coord_1, ..., coord_d, label, p]`` per
        non-zero entry, in row-major order, as :meth:`from_json_dict` reads
        it.  The rows are laid out by :func:`_indented_rows` rather than by
        the pure-Python indenting encoder, which costs most of the time.
        """
        doc = {"features": [{"name": n, "cardinality": c} for n, c in
                            zip(self.space.feature_names, self.space.cardinalities)],
               "num_labels": self.num_labels, "mass": []}
        if self.domains is not None:
            doc["domains"] = [list(values) for values in self.domains]
        text = json.dumps(doc, sort_keys=True, indent=2)
        cells, labels = np.nonzero(self.mass)
        rows = _indented_rows(np.column_stack([self.space.coords_of(cells), labels]),
                              self.mass[cells, labels])
        # JSON strings hold no raw newline, so this is the top-level key.
        head, tail = text.split('\n  "mass": []', 1)
        with Path(path).open("w") as fh:  # in pieces: no copy of the rows is made
            fh.writelines([head, '\n  "mass": [\n    [\n      ', rows, "\n    ]\n  ]", tail, "\n"])

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
        order.  A missing or mistyped header key is named; ``cardinality``
        and ``num_labels`` must be integers (``2.0`` is not).
        """
        features = _field("table", data, "features", list, "a list")
        names = [_field(f"feature {j}", feature, "name", str, "a string")
                 for j, feature in enumerate(features)]
        cards = [_field(f"feature {j}", feature, "cardinality", numbers.Integral, "an integer")
                 for j, feature in enumerate(features)]
        num_labels = _field("table", data, "num_labels", numbers.Integral, "an integer")
        rows = _field("table", data, "mass", list, "a list of rows")
        domains = data.get("domains")
        if domains is not None:
            _checked("table", "domains", domains, [list], "a list of value lists, one per feature")
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
        total = float(mass.sum())
        if abs(total - 1.0) > LOAD_TOL:
            raise InvalidDistribution(
                f"mass totals {total!r}; only totals within {LOAD_TOL} of 1 are renormalised")
        return cls(space, num_labels, mass / total, domains)

    @classmethod
    def load(cls, path) -> "FiniteJointDistribution":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, its write flag cleared."""
    values.setflags(write=False)
    return values


def _spelled(values: np.ndarray, spell) -> np.ndarray:
    """An object array of ``spell(v)`` for each entry ``v``; ``spell`` runs once per distinct ``v``.

    ``values`` holds non-negative integers (or bools), told apart by value,
    or float64, told apart by bits, so ``-0.0`` and ``0.0`` keep their texts.
    """
    if values.dtype == np.float64:
        bits, index = np.unique(values.view(np.uint64), return_inverse=True)
        text = np.array([spell(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return text[index.reshape(values.shape)]
    counts = np.bincount(values.ravel())
    text = np.empty(counts.size, dtype=object)
    text[counts > 0] = [spell(v) for v in np.flatnonzero(counts).tolist()]
    return np.take(text, values)


def _indented_rows(fields: np.ndarray, p: np.ndarray) -> str:
    """Rows ``[*fields[k], p[k]]`` as ``json.dumps(..., indent=2)`` lays them out one level
    down, without the brackets that open the first row and close the last.

    ``fields`` holds non-negative integers; ``p`` is written with ``repr``,
    as the encoder does.  ``p`` is not empty: a table's mass has a
    non-zero entry.
    """
    columns = _spelled(fields, "{},\n      ".format).T.tolist()
    rows = map("".join, zip(*columns, _spelled(p, repr).tolist()))
    return "\n    ],\n    [\n      ".join(rows)


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
        values, defined = _read_only(values.copy()), _read_only(defined.copy())
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)

    @property
    def num_labels(self) -> int:
        return self.values.shape[1]


# -- core operations ---------------------------------------------------------


def _finite_non_negative(values, what: str, axes: tuple = ()) -> np.ndarray:
    """``values`` as float64, or :class:`InvalidDistribution` naming the first bad entry.

    The first negative or non-finite entry in row-major order is named as
    ``"{what} {value:.3g} at {axes[0]} {i}, ... is negative|not finite"``,
    a scalar without a position.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.size or (values.min() >= 0.0 and values.max() < np.inf):  # NaN fails both
        return values
    at = np.unravel_index(int(np.argmin((values >= 0.0) & (values < np.inf))), values.shape)
    where = " at " + ", ".join(f"{axis} {i}" for axis, i in zip(axes, at)) if axes else ""
    kind = "negative" if np.isfinite(values[at]) else "not finite"
    raise InvalidDistribution(f"{what} {values[at]:.3g}{where} is {kind}")


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


def _normalised_rows(partition: FeaturePartition, joint: np.ndarray) -> ConditionalTable:
    """Rows of ``joint`` over their sums, undefined where a row sums to 0."""
    denom = joint.sum(axis=1)
    return ConditionalTable(partition, ratio(joint, denom[:, None]), denom > 0.0)


def posterior(dist: FiniteJointDistribution, partition: FeaturePartition) -> ConditionalTable:
    """Label probabilities conditional on a partition of the features.

    Entry ``(n, i)`` is ``dist[label i and cell n] / dist[cell n]``.
    Cells with zero mass are flagged as undefined and filled with zeros
    rather than being dropped, so downstream code can distinguish a
    convention-zero from a true zero posterior.
    """
    return _normalised_rows(partition, dist.project(partition))


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
    _same_features(p, q)
    return density_ratio(aggregate(q.feature_marginal(), partition),
                         aggregate(p.feature_marginal(), partition))


def class_conditional_density(q: FiniteJointDistribution, p: FiniteJointDistribution,
                              partition: FeaturePartition, label: int) -> np.ndarray:
    """Per-cell density of the target class-conditional w.r.t. the source one.

    Entry ``n`` is ``q[cell n | label] / p[cell n | label]``, with
    ``E_{p(.|label)}[density] = 1``.
    """
    _same_features(p, q)
    return density_ratio(aggregate(class_conditional(q, label), partition),
                         aggregate(class_conditional(p, label), partition), label)


def full_importance_weight(q: FiniteJointDistribution,
                           p: FiniteJointDistribution) -> np.ndarray:
    """Importance weight table over (feature cell, label): ``ratio(q.mass, p.mass)``.

    Entry ``(x, i)`` is the per-label feature density times the prior
    ratio, which reconstructs the target cellwise: ``q = weight * p``.
    The pair must pass :func:`check_absolute_continuity`.
    """
    check_absolute_continuity(q, p)
    p.require_positive_labels("source")
    q.require_positive_labels("target")
    return ratio(q.mass, p.mass)


def kl_divergence(p_table: np.ndarray, q_table: np.ndarray) -> float:
    """Kullback-Leibler divergence between two mass tables.

    Computes ``sum p * log(p / q)`` with the conventions ``0 log 0 = 0``
    and a return value of ``inf`` whenever ``q`` is zero on an event of
    positive ``p`` mass.  Both must be finite and non-negative.
    """
    p_table = _finite_non_negative(np.ravel(p_table), "p_table", ("entry",))
    q_table = _finite_non_negative(np.ravel(q_table), "q_table", ("entry",))
    if p_table.shape != q_table.shape:
        raise InvalidDistribution("tables must share their index set")
    pos = p_table > 0.0
    if np.any(q_table[pos] == 0.0):
        return float("inf")
    p_pos, q_pos = p_table[pos], q_table[pos]
    # A difference of logs: p / q overflows when q is subnormal.
    return float(np.sum(p_pos * (np.log(p_pos) - np.log(q_pos))))


def _same_features(p: FiniteJointDistribution, q: FiniteJointDistribution) -> None:
    """Raise unless target ``q`` has the features of source ``p``, spelled alike.

    Names and cardinalities must match; then the first feature that both
    tables spell, but spell differently, is named: equal codes there
    stand for different values, each table decoded from its own CSV.
    """
    if q.space != p.space:
        raise InvalidDistribution(
            f"target has features {dict(zip(q.space.feature_names, q.space.cardinalities))}, "
            f"source has {dict(zip(p.space.feature_names, p.space.cardinalities))}")
    for name, ours, theirs in zip(p.space.feature_names, p.domains or (), q.domains or ()):
        if ours != theirs:
            raise SchemaViolation(f"target spells feature {name!r} as "
                                  f"{list(theirs)}, source as {list(ours)}")


def check_absolute_continuity(q: FiniteJointDistribution,
                              p: FiniteJointDistribution) -> None:
    """Raise unless the target joint has the source's features (:func:`_same_features`)
    and labels and is absolutely continuous w.r.t. the source."""
    _same_features(p, q)
    if q.num_labels != p.num_labels:
        raise InvalidDistribution(
            f"target has {q.num_labels} labels, source has {p.num_labels}")
    if np.any(q.mass[p.mass == 0.0] > 0.0):
        density_ratio(q.mass, p.mass)  # raises at the first violation
