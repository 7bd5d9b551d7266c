"""Shift-hypothesis checks, the conditional rank matrix, and identifiability.

Every check compares exact probability tables, so a hypothesis "holds"
when its defining equalities are satisfied on all positive-mass cells up
to an absolute tolerance (default ``1e-9``, appropriate for ratios of
float64 sums).  Zero-probability cells are excluded: the hypotheses are
almost-sure statements and conditional probabilities are only pinned
down on positive-mass events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import (
    ConditionalTable,
    FiniteJointDistribution,
    check_absolute_continuity,
    marginal_density,
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
    entry achieving ``max_violation`` (entries may be None).
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


def _pair_tables(p: FiniteJointDistribution, q: FiniteJointDistribution,
                 f: FeaturePartition):
    check_absolute_continuity(q, p)
    p.require_positive_labels("source")
    q.require_positive_labels("target")
    return p.project(f), q.project(f)


def check_sjs(p: FiniteJointDistribution, q: FiniteJointDistribution,
              f: FeaturePartition, tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Does the target relate to the source through sparse joint shift on ``f``?

    For every label ``i``, every f-cell with positive class mass under
    both measures, and every feature cell inside it, the within-cell
    class-conditional probabilities of source and target must agree.
    Checking the finest feature cells suffices for all feature-measurable
    events.
    """
    p_f, q_f = _pair_tables(p, q, f)
    cells = f.cell_of
    p_cell, q_cell = p_f[cells], q_f[cells]
    active = (p_cell > 0.0) & (q_cell > 0.0)
    diff = np.where(active, np.abs(ratio(q.mass, q_cell) - ratio(p.mass, p_cell)), 0.0)
    # The witness is the first maximum in label-major order.
    i, x = np.unravel_index(int(np.argmax(diff.T)), diff.T.shape)
    max_violation = float(diff[x, i])
    witness = (int(cells[x]), int(x), int(i)) if max_violation > 0.0 else None
    return ShiftVerdict("sjs", max_violation <= tol, max_violation, tol, witness)


def check_prior_shift(p: FiniteJointDistribution, q: FiniteJointDistribution,
                      tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Prior probability shift: class-conditional feature laws unchanged.

    Equivalent to the sparse-joint-shift check on the trivial partition.
    """
    verdict = check_sjs(p, q, FeaturePartition.trivial(p.space), tol)
    return ShiftVerdict("prior_shift", verdict.holds, verdict.max_violation, tol,
                        verdict.witness)


def check_covariate_shift(p: FiniteJointDistribution, q: FiniteJointDistribution,
                          f: FeaturePartition, tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Label posteriors conditional on ``f`` agree between source and target."""
    check_absolute_continuity(q, p)
    post_p = posterior(p, f)
    post_q = posterior(q, f)
    active = post_p.defined & post_q.defined
    max_violation = 0.0
    witness = None
    if active.any():
        diff = np.abs(post_q.values - post_p.values)
        diff[~active] = 0.0
        n, i = np.unravel_index(int(np.argmax(diff)), diff.shape)
        max_violation = float(diff[n, i])
        witness = (int(n), None, int(i))
    return ShiftVerdict("covariate_shift", max_violation <= tol, max_violation, tol, witness)


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
    p_h = p.feature_marginal()
    q_h = q.feature_marginal()
    p_f = aggregate(p_h, f)
    q_f = aggregate(q_h, f)
    cells = f.cell_of
    active = (p_f[cells] > 0.0) & (q_f[cells] > 0.0)
    diff = np.where(active, np.abs(ratio(q_h, q_f[cells]) - ratio(p_h, p_f[cells])), 0.0)
    x = int(np.argmax(diff)) if diff.size else 0
    max_violation = float(diff[x]) if diff.size else 0.0
    witness = (int(cells[x]), x, None) if diff.size else None

    # Density form: the per-feature-cell density must be constant on f-cells.
    density = marginal_density(q, p, FeaturePartition.full(p.space))
    dens_dev = np.abs(density - ratio(q_f, p_f)[cells])
    dens_dev[p_h == 0.0] = 0.0
    return ShiftVerdict("cdi", max_violation <= tol, max_violation, tol, witness,
                        details={"density_form_max_deviation": float(dens_dev.max(initial=0.0))})


def check_sufficiency(p: FiniteJointDistribution, f: FeaturePartition,
                      tol: float = DEFAULT_TOL) -> ShiftVerdict:
    """Is ``f`` sufficient for the full features w.r.t. the labels?

    Holds iff the label posterior given all features is constant inside
    every f-cell, i.e. conditioning on ``f`` already captures all label
    information.
    """
    post_h = p.full_posterior
    post_f = posterior(p, f)
    cells = f.cell_of
    active = post_h.defined  # feature cells with positive mass
    diff = np.abs(post_h.values - post_f.values[cells])
    diff[~active] = 0.0
    x, i = np.unravel_index(int(np.argmax(diff)), diff.shape)
    max_violation = float(diff[x, i])
    return ShiftVerdict("sufficiency", max_violation <= tol, max_violation, tol,
                        (int(cells[x]), int(x), int(i)))


# -- conditional class matrix -------------------------------------------------


def posterior_statistics(p: FiniteJointDistribution) -> list:
    """The label posteriors given all features, as rank statistics."""
    post = p.full_posterior
    return [post.values[:, i].copy() for i in range(p.num_labels)]


def classifier_statistics(assignment: np.ndarray, num_labels: int) -> list:
    """Indicator statistics of a hard classifier's decision regions."""
    assignment = np.asarray(assignment)
    return [(assignment == i).astype(np.float64) for i in range(num_labels)]


def _conditional_class_matrix(p: FiniteJointDistribution, g: FeaturePartition,
                              statistics: list) -> tuple:
    """Matrices M[n, i, j] = E[stat_i | cell n, label j] (0/0 = 0), class masses, stats."""
    stats = [np.asarray(s, dtype=np.float64) for s in statistics]
    for k, s in enumerate(stats):
        if s.shape != (p.space.num_cells,):
            raise InvalidDistribution(f"statistic {k} must be a table over feature cells")
        if np.any(s < 0):
            raise InvalidDistribution(f"statistic {k} must be non-negative")
    class_cell = p.project(g)  # (cells, labels)
    num = np.stack([aggregate(p.mass * s[:, None], g) for s in stats], axis=1)
    return ratio(num, class_cell[:, None, :]), class_cell, np.stack(stats, axis=1)


def rank_matrix(p: FiniteJointDistribution, g: FeaturePartition, statistics: list) -> RankReport:
    """Conditional class matrix per cell of ``g`` and its identifiability verdict.

    ``statistics`` must be one non-negative feature-cell table per label.
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
                             statistics: list) -> float:
    """Max deviation in the total-expectation identity, per cell of ``g``.

    For each positive-mass cell the unconditional expectations of the
    statistics must equal the conditional class matrix applied to the
    label probabilities given the cell.  Returns the largest absolute
    deviation; used as a numerical self-test.
    """
    matrices, class_cell, stats = _conditional_class_matrix(p, g, statistics)
    cell_mass = class_cell.sum(axis=1)[:, None]
    lhs = ratio(aggregate(p.feature_marginal()[:, None] * stats, g), cell_mass)
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
    with spread 0 and no witness.  With posterior statistics this is
    equivalent to the rank condition of :func:`rank_matrix`.
    """
    if p.num_labels != 2:
        raise InvalidDistribution("the variance criterion is defined for 2 labels")
    p.require_positive_labels("source")
    post = p.full_posterior.values[:, 0]
    p_h = p.feature_marginal()
    cell_avg = ratio(aggregate(p_h * post, g), aggregate(p_h, g))
    dev = np.abs(post - cell_avg[g.cell_of])
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
                   f: FeaturePartition, statistics: list | None = None,
                   tol: float = DEFAULT_TOL) -> TriangleReport:
    """Run the sjs / cdi / full-covariate-shift checks and audit their implications.

    ``statistics`` (optional, one table per label) enables the rank-based
    audit of "sjs and cdi imply covariate shift".
    """
    sjs = check_sjs(p, q, f, tol)
    cdi = check_cdi(p, q, f, tol)
    csh = check_covariate_shift(p, q, FeaturePartition.full(p.space), tol)

    post = p.full_posterior
    positive = bool(np.all(post.values[post.defined] > 0.0)) if post.defined.any() else True

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
