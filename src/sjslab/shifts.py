"""Shift-hypothesis checks, the conditional rank matrix, and identifiability.

Every check compares exact probability tables, so a hypothesis "holds"
when its defining equalities are satisfied on all positive-mass cells up
to an absolute tolerance (default ``1e-9``, appropriate for ratios of
float64 sums).  Zero-probability cells are excluded: the hypotheses are
almost-sure statements and conditional probabilities are only pinned
down on positive-mass events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import (
    ConditionalTable,
    FiniteJointDistribution,
    _finite_non_negative,
    check_absolute_continuity,
    density_ratio,
    posterior,
    ratio,
)
from .errors import InvalidDistribution
from .space import FeaturePartition, aggregate

DEFAULT_TOL = 1e-9
RANK_RTOL = 1e-10


def numerical_rank(s, scale):
    """Count the singular values (descending, last axis) above ``s_max * scale * RANK_RTOL``."""
    return np.count_nonzero(s > s[..., :1] * scale * RANK_RTOL, axis=-1)


@dataclass(frozen=True)
class ShiftVerdict:
    """Boolean-with-evidence outcome of a shift-hypothesis check.

    For equality-style checks (``kind`` in sjs/prior_shift/covariate_shift/
    cdi/sufficiency) ``holds`` is True iff ``max_violation <= tol``.  For
    the variance criterion the reading flips: ``max_violation`` is the
    smallest within-cell posterior spread and the criterion holds iff it
    exceeds the tolerance (or no cell holds both labels).

    ``witness`` is ``(partition_cell, feature_cell, label)`` for the
    entry achieving ``max_violation`` (entries may be None).  An
    equality-style check names none exactly when ``max_violation`` is 0.
    """

    kind: str
    holds: bool
    max_violation: float
    tol: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "hypothesis": self.kind,
            "holds": bool(self.holds),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tol),
            "witness": list(self.witness) if self.witness is not None else None,
            "details": dict(self.details),  # every check stores Python values
        }


@dataclass(frozen=True)
class RankReport:
    """Conditional class matrix, its numerical rank, and the verdict.

    One matrix per partition cell; ``identifiable`` is True iff every
    cell's rank equals the number of labels with source mass in it.
    """

    partition: FeaturePartition
    num_labels: int
    per_cell_matrices: list
    per_cell_rank: list
    singular_values: list
    cell_masses: np.ndarray
    identifiable: bool

    def to_json_dict(self) -> dict:
        return {
            "partition": self.partition.describe(),
            "num_labels": self.num_labels,
            "identifiable": bool(self.identifiable),
            "rank_rtol": RANK_RTOL,
            "cells": [
                {
                    "cell": n,
                    "mass": float(self.cell_masses[n]),
                    "rank": int(self.per_cell_rank[n]),
                    "singular_values": [float(s) for s in self.singular_values[n]],
                    "matrix": [[float(v) for v in row] for row in self.per_cell_matrices[n]],
                }
                for n in range(self.partition.num_cells)
            ],
        }


def _within(q_x, q_f, p_x, p_f) -> np.ndarray:
    """``|q_x / q_f - p_x / p_f|`` per entry, 0 wherever either f-cell sum has no mass."""
    active = (p_f > 0.0) & (q_f > 0.0)
    return np.where(active, np.abs(ratio(q_x, q_f) - ratio(p_x, p_f)), 0.0)


def _verdict(kind: str, diff: np.ndarray, tol: float, witness, details=None) -> ShiftVerdict:
    """Verdict on a masked deviation table, from its first maximum in row-major order.

    ``witness`` maps that entry's indices to the verdict's witness;
    there is none when the maximum is 0.
    """
    _finite_non_negative(tol, "tol")
    at = np.unravel_index(int(np.argmax(diff)), diff.shape)
    max_violation = float(diff[at])
    return ShiftVerdict(kind, max_violation <= tol, max_violation, tol,
                        witness(*map(int, at)) if max_violation > 0.0 else None, details or {})


def check_sjs(p: FiniteJointDistribution, q: FiniteJointDistribution,
              f: FeaturePartition, tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Does the target relate to the source through sparse joint shift on ``f``?

    For every label ``i``, every f-cell with positive class mass under
    both measures, and every feature cell inside it, the within-cell
    class-conditional probabilities of source and target must agree.
    Checking the finest feature cells suffices for all feature-measurable
    events.
    """
    check_absolute_continuity(q, p)
    p.require_positive_labels("source")
    q.require_positive_labels("target")
    diff = _within(q.mass, f.broadcast(q.project(f)), p.mass, f.broadcast(p.project(f)))
    # Transposed, so the witness is the first maximum in label-major order.
    return _verdict("sjs", diff.T, tol, lambda i, x: (int(f.cell_of[x]), x, i))


def check_prior_shift(p: FiniteJointDistribution, q: FiniteJointDistribution,
                      tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Prior probability shift: class-conditional feature laws unchanged.

    Equivalent to the sparse-joint-shift check on the trivial partition.
    """
    return replace(check_sjs(p, q, FeaturePartition.trivial(p.space), tol), kind="prior_shift")


def check_covariate_shift(p: FiniteJointDistribution, q: FiniteJointDistribution,
                          f: FeaturePartition, tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Label posteriors conditional on ``f`` agree between source and target."""
    check_absolute_continuity(q, p)
    post_p, post_q = posterior(p, f), posterior(q, f)
    active = post_p.defined & post_q.defined
    diff = np.where(active[:, None], np.abs(post_q.values - post_p.values), 0.0)
    return _verdict("covariate_shift", diff, tol, lambda n, i: (n, None, i))


def check_cdi(p: FiniteJointDistribution, q: FiniteJointDistribution,
              f: FeaturePartition, tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Conditional distribution invariance of the features given ``f``.

    Primary form: within every f-cell of positive mass under both
    measures, the conditional probability of each feature cell agrees.
    The equivalent density form (the target feature marginal has an
    f-measurable density w.r.t. the source) is evaluated as a
    cross-check and reported in ``details``.
    """
    check_absolute_continuity(q, p)
    p_h, q_h = p.feature_marginal(), q.feature_marginal()
    p_f, q_f = aggregate(p_h, f), aggregate(q_h, f)
    diff = _within(q_h, f.broadcast(q_f), p_h, f.broadcast(p_f))
    # Density form: the per-feature-cell density must be constant on f-cells.
    dens_dev = np.abs(density_ratio(q_h, p_h) - f.broadcast(ratio(q_f, p_f)))
    dens_dev[p_h == 0.0] = 0.0
    return _verdict("cdi", diff, tol, lambda x: (int(f.cell_of[x]), x, None),
                    {"density_form_max_deviation": float(dens_dev.max(initial=0.0))})


def check_sufficiency(p: FiniteJointDistribution, f: FeaturePartition,
                      tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Is ``f`` sufficient for the full features w.r.t. the labels?

    Holds iff the label posterior given all features is constant inside
    every f-cell, i.e. conditioning on ``f`` already captures all label
    information.
    """
    post_h = p.full_posterior
    diff = np.where(post_h.defined[:, None],
                    np.abs(post_h.values - f.broadcast(posterior(p, f).values)), 0.0)
    return _verdict("sufficiency", diff, tol, lambda x, i: (int(f.cell_of[x]), x, i))


# -- conditional class matrix -------------------------------------------------


def posterior_statistics(p: FiniteJointDistribution) -> np.ndarray:
    """The label posteriors given all features, as one (label, feature cell) table
    of rank statistics: a read-only view of the cached ``p.full_posterior``."""
    return p.full_posterior.values.T


def classifier_statistics(assignment: np.ndarray, num_labels: int) -> np.ndarray:
    """Indicator statistics of a hard classifier's decision regions, (label, feature cell)."""
    return (np.asarray(assignment) == np.arange(num_labels)[:, None]).astype(np.float64)


def _conditional_class_matrix(p: FiniteJointDistribution, g: FeaturePartition,
                              statistics) -> tuple:
    """Matrices M[n, i, j] = E[stat_i | cell n, label j] (0/0 = 0), class masses, and
    the statistics as one (statistic, feature cell) array."""
    stats = _finite_non_negative(statistics, "statistics", ("statistic", "cell"))
    if stats.ndim != 2 or stats.shape[1] != p.space.num_cells:
        raise InvalidDistribution(f"statistics must be a (statistic, cell) table over "
                                  f"{p.space.num_cells} cells, got shape {stats.shape}")
    class_cell = p.project(g)  # (cells, labels)
    # Row j of each product is stat_i * mass_j, contiguous, as aggregate sums columns.
    num = np.stack([aggregate(np.multiply(s, p.mass.T, order="C").T, g) for s in stats], axis=1)
    return ratio(num, class_cell[:, None, :]), class_cell, stats


def rank_matrix(p: FiniteJointDistribution, g: FeaturePartition, statistics) -> RankReport:
    """Conditional class matrix per cell of ``g`` and its identifiability verdict.

    ``statistics``: a finite, non-negative (statistic, feature cell) table,
    or a list of its rows, with one statistic per label.
    Entry ``(i, j)`` of the cell-``n`` matrix is the expectation of
    statistic ``i`` under the class-``j`` conditional distribution,
    conditioned on the cell.  A singular value counts towards the rank
    when it exceeds ``sigma_max * num_labels * RANK_RTOL``; the shift
    model is identifiable from the feature marginal when every cell's
    rank equals the number of labels with source mass in it.  A label
    absent from a cell has target mass 0 there, so its zero column loses
    nothing.
    """
    p.require_positive_labels("source")
    if len(statistics) != p.num_labels:
        raise InvalidDistribution(
            f"need {p.num_labels} statistics (one per label), got {len(statistics)}")
    matrices, class_cell, _ = _conditional_class_matrix(p, g, statistics)
    cell_masses = class_cell.sum(axis=1)
    svals = np.linalg.svd(matrices, compute_uv=False)
    ranks = numerical_rank(svals, p.num_labels)
    identifiable = not np.any(ranks < np.count_nonzero(class_cell > 0.0, axis=1))
    return RankReport(g, p.num_labels, matrices, ranks.tolist(), list(svals), cell_masses,
                      identifiable)


def verify_total_expectation(p: FiniteJointDistribution, g: FeaturePartition,
                             statistics) -> float:
    """Max deviation in the total-expectation identity, per cell of ``g``.

    For each positive-mass cell the unconditional expectations of the
    statistics must equal the conditional class matrix applied to the
    label probabilities given the cell.  Returns the largest absolute
    deviation; used as a numerical self-test.
    """
    matrices, class_cell, stats = _conditional_class_matrix(p, g, statistics)
    cell_mass = class_cell.sum(axis=1)[:, None]
    # C order: aggregate sums the transpose's columns, each a contiguous row here.
    lhs = ratio(aggregate(np.multiply(stats, p.feature_marginal(), order="C").T, g), cell_mass)
    rhs = np.einsum("nij,nj->ni", matrices, ratio(class_cell, cell_mass))
    return float(np.abs(lhs - rhs).max(initial=0.0))


def binary_variance_criterion(p: FiniteJointDistribution, g: FeaturePartition,
                              tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Two-label identifiability criterion via within-cell posterior variance.

    Holds iff the full-feature label posterior is non-constant inside
    every cell of ``g`` in which both labels have source mass: its
    spread there, the largest deviation from the cell average on a
    positive-mass feature cell, exceeds ``tol``.  ``max_violation`` is
    the smallest such spread, and ``witness`` names that cell and the
    feature cell reaching it; with no such cell the criterion holds,
    with spread 0 and no witness; ``tol`` is finite and >= 0.  With
    posterior statistics this is equivalent to the rank condition of
    :func:`rank_matrix`.
    """
    if p.num_labels != 2:
        raise InvalidDistribution("the variance criterion is defined for 2 labels")
    _finite_non_negative(tol, "tol")
    p.require_positive_labels("source")
    post = p.full_posterior.values[:, 0]
    p_h = p.feature_marginal()
    cell_avg = ratio(aggregate(p_h * post, g), aggregate(p_h, g))
    dev = np.abs(post - g.broadcast(cell_avg))
    dev[p_h == 0.0] = 0.0
    spread = np.zeros(g.num_cells)
    np.maximum.at(spread, g.cell_of, dev)
    both = np.flatnonzero(np.all(p.project(g) > 0.0, axis=1))
    if not both.size:
        return ShiftVerdict("binary_variance_criterion", True, 0.0, tol)
    n = int(both[np.argmin(spread[both])])
    x = int(np.argmax(np.where(g.cell_of == n, dev, -1.0)))
    weakest = float(spread[n])
    return ShiftVerdict("binary_variance_criterion", weakest > tol, weakest, tol, (n, x, 0))


# -- triangle of shift hypotheses ---------------------------------------------


@dataclass(frozen=True)
class TriangleReport:
    """Joint verdicts for sjs / cdi / full covariate shift plus implication audit.

    The three hypotheses are tied together: cdi and covariate shift
    imply sjs; sjs and cdi imply covariate shift when the conditional
    class matrix has full rank; and sjs with covariate shift implies cdi
    when the full posterior is positive everywhere.  Violations of these
    implications indicate an internal inconsistency (e.g. tolerance
    interplay) and are listed in ``implication_violations``.
    """

    sjs: ShiftVerdict
    cdi: ShiftVerdict
    csh: ShiftVerdict
    posterior_positive: bool
    rank_full: bool | None
    implication_violations: tuple


def check_triangle(p: FiniteJointDistribution, q: FiniteJointDistribution,
                   f: FeaturePartition, statistics=None,
                   tol: float = DEFAULT_TOL) -> TriangleReport:
    """Run the sjs / cdi / full-covariate-shift checks and audit their implications.

    ``statistics`` (optional, one table per label) enables the rank-based
    audit of "sjs and cdi imply covariate shift".
    """
    sjs = check_sjs(p, q, f, tol)
    cdi = check_cdi(p, q, f, tol)
    csh = check_covariate_shift(p, q, FeaturePartition.full(p.space), tol)

    post = p.full_posterior
    positive = bool(np.all(post.values[post.defined] > 0.0))  # a table has a defined row

    rank_full = None
    if statistics is not None:
        rank_full = rank_matrix(p, f, statistics).identifiable

    violations = []
    if rank_full and sjs.holds and cdi.holds and not csh.holds:
        violations.append("sjs and cdi hold with full rank but covariate shift fails")
    if cdi.holds and csh.holds and not sjs.holds:
        violations.append("cdi and covariate shift hold but sjs fails")
    if positive and sjs.holds and csh.holds and not cdi.holds:
        violations.append("sjs and covariate shift hold with positive posterior but cdi fails")
    return TriangleReport(sjs, cdi, csh, positive, rank_full, tuple(violations))
