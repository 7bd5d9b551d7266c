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
        Non-negative entries summing to 1 within ``1e-12``.
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

    # -- serialisation -----------------------------------------------------

    def to_json_dict(self) -> dict:
        coords = self.space.all_coords()
        rows = []
        for x in range(self.space.num_cells):
            for i in range(self.num_labels):
                p = float(self.mass[x, i])
                if p != 0.0:
                    rows.append([int(v) for v in coords[x]] + [i, p])
        out = {
            "features": [{"name": n, "cardinality": c}
                         for n, c in zip(self.space.feature_names, self.space.cardinalities)],
            "num_labels": self.num_labels,
            "mass": rows,
        }
        if self.domains is not None:
            out["domains"] = [list(values) for values in self.domains]
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteJointDistribution":
        """Parse the on-disk format.

        Rows are ``[coord_1, ..., coord_d, label, p]`` in any order;
        missing entries are zero and duplicate rows accumulate.  The
        table is renormalised when its total is within ``1e-9`` of 1 and
        rejected otherwise.  An optional ``domains`` key lists each
        feature's value spellings, in feature order.
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
        space = FeatureSpace(names, cards)
        mass = np.zeros((space.num_cells, num_labels))
        d = space.num_features
        for k, row in enumerate(rows):
            if len(row) != d + 2:
                raise InvalidDistribution(f"mass row {k} has {len(row)} fields, expected {d + 2}")
            coords, label, p = row[:d], int(row[d]), float(row[d + 1])
            if not 0 <= label < num_labels:
                raise InvalidDistribution(f"mass row {k}: label {label} out of range")
            for j, (v, c) in enumerate(zip(coords, cards)):
                if not 0 <= int(v) < c:
                    raise InvalidDistribution(
                        f"mass row {k}: value {v} out of range for feature {names[j]!r}")
            if p < 0:
                raise InvalidDistribution(f"mass row {k}: negative probability {p}")
            mass[space.index_of(coords), label] += p
        total = mass.sum()
        if abs(total - 1.0) > LOAD_TOL:
            raise InvalidDistribution(
                f"mass totals {total!r}; only totals within {LOAD_TOL} of 1 are renormalised")
        return cls(space, num_labels, mass / total, domains)

    @classmethod
    def load(cls, path) -> "FiniteJointDistribution":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Per-(partition cell, label) values with an explicit defined mask.

    ``defined[n]`` is False when the conditioning cell has zero mass and
    the row was filled with the 0/0-as-0 convention.
    """

    partition: FeaturePartition
    values: np.ndarray = field(repr=False)
    defined: np.ndarray = field(repr=False)

    def __init__(self, partition: FeaturePartition, values: np.ndarray,
                 defined: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != partition.num_cells:
            raise InvalidDistribution(
                f"values must have {partition.num_cells} rows, got shape {values.shape}")
        if defined is None:
            defined = np.ones(partition.num_cells, dtype=bool)
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

    def check_rows_normalised(self, tol: float = MASS_TOL) -> None:
        """Assert defined rows sum to 1 over labels (posterior tables)."""
        sums = self.values[self.defined].sum(axis=1)
        if sums.size and np.max(np.abs(sums - 1.0)) > tol:
            raise InvalidDistribution("posterior rows must sum to 1 on defined cells")


# -- core operations ---------------------------------------------------------


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
    defined = cell_mass > 0.0
    values = np.zeros_like(table)
    values[defined] = table[defined] / cell_mass[defined, None]
    return ConditionalTable(partition, values, defined)


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
    q_cells = aggregate(q.feature_marginal(), partition)
    p_cells = aggregate(p.feature_marginal(), partition)
    bad = (p_cells == 0.0) & (q_cells > 0.0)
    if bad.any():
        n = int(np.argmax(bad))
        raise AbsoluteContinuityViolated(n, mass=float(q_cells[n]))
    out = np.zeros_like(q_cells)
    pos = p_cells > 0.0
    out[pos] = q_cells[pos] / p_cells[pos]
    return out


def class_conditional_density(q: FiniteJointDistribution, p: FiniteJointDistribution,
                              partition: FeaturePartition, label: int) -> np.ndarray:
    """Per-cell density of the target class-conditional w.r.t. the source one.

    Entry ``n`` is ``q[cell n | label] / p[cell n | label]``, with
    ``E_{p(.|label)}[density] = 1``.
    """
    q_i = aggregate(class_conditional(q, label), partition)
    p_i = aggregate(class_conditional(p, label), partition)
    bad = (p_i == 0.0) & (q_i > 0.0)
    if bad.any():
        n = int(np.argmax(bad))
        raise AbsoluteContinuityViolated(n, label=label, mass=float(q_i[n]))
    out = np.zeros_like(q_i)
    pos = p_i > 0.0
    out[pos] = q_i[pos] / p_i[pos]
    return out


def full_importance_weight(q: FiniteJointDistribution,
                           p: FiniteJointDistribution) -> np.ndarray:
    """Importance weight table over (feature cell, label).

    Entry ``(x, i)`` is the per-label feature density times the prior
    ratio, which reconstructs the target cellwise: ``q = weight * p``.
    """
    if q.num_labels != p.num_labels or q.space != p.space:
        raise InvalidDistribution("source and target must share space and labels")
    p.require_positive_labels("source")
    q.require_positive_labels("target")
    full = FeaturePartition.full(p.space)
    prior_ratio = q.label_masses() / p.label_masses()
    out = np.zeros_like(p.mass)
    for i in range(p.num_labels):
        h_i = class_conditional_density(q, p, full, i)
        out[:, i] = h_i * prior_ratio[i]
    return out


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
    return float(np.sum(p_table[pos] * np.log(p_table[pos] / q_table[pos])))


def check_absolute_continuity(q: FiniteJointDistribution,
                              p: FiniteJointDistribution) -> None:
    """Raise unless the target joint is absolutely continuous w.r.t. the source."""
    if q.space != p.space or q.num_labels != p.num_labels:
        raise InvalidDistribution("source and target must share space and labels")
    bad = (p.mass == 0.0) & (q.mass > 0.0)
    if bad.any():
        x, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise AbsoluteContinuityViolated(int(x), label=int(i), mass=float(q.mass[x, i]))
