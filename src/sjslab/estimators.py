"""Estimation of the target joint distribution under a sparse-shift hypothesis.

Given the source joint table and only the target *feature* marginal, two
strategies recover the per-cell joint masses ``Q[cell n, label i]`` of a
target assumed to differ from the source through sparse joint shift on a
partition ``f``:

* :func:`sees_d_fit` solves, per f-cell, the linear system that the
  unknown masses must satisfy so that the implied feature density
  matches the observed one, by non-negative least squares.
* :func:`sees_c_fit` maximises the target log-likelihood of the implied
  feature density (equivalently minimises the KL divergence to it) over
  f-measurable non-negative weight tables: one mixture-weight fit per
  f-cell, by EM steps and then bordered Newton steps.

Both return an :class:`SjsFit` carrying the fitted masses, target
priors, per-cell density ratios, the corrected posterior and solver
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .distribution import ConditionalTable, FiniteJointDistribution, density_ratio, ratio
from .errors import DegenerateObjective, InvalidDistribution, SjslabError
from .shifts import numerical_rank
from .space import FeaturePartition, FeatureSpace, aggregate, group_sum, stacks

_MARGINAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SjsFit:
    """Result of one estimation run.

    Attributes
    ----------
    partition : FeaturePartition
        The shift partition the model was fitted on.
    cell_label_mass : ndarray, shape (partition.num_cells, num_labels)
        Fitted joint masses of (f-cell, label); non-negative, sums to 1.
    target_priors : ndarray, shape (num_labels,)
        Column sums of ``cell_label_mass``.
    f_ratios : ndarray, same shape as cell_label_mass
        Fitted per-cell class-conditional density ratios; each label's
        ratios average to 1 under the source class-conditional law.
    corrected_posterior : ConditionalTable
        Target label posterior per feature cell, via the conditional
        correction formula.
    residual : float
        Objective value at the solution: summed squared equation
        violations for the linear-system methods, optimal KL divergence
        for the likelihood method.
    method : str
        One of ``"sees_d"``, ``"sees_c"``, ``"conditional_confusion"``.
    diagnostics : dict
        Solver details (underdetermined cells, iteration history, ...).
    """

    partition: FeaturePartition
    cell_label_mass: np.ndarray = field(repr=False)
    target_priors: np.ndarray = field(repr=False)
    f_ratios: np.ndarray = field(repr=False)
    corrected_posterior: ConditionalTable = field(repr=False)
    residual: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("cell_label_mass", "target_priors", "f_ratios"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def underdetermined(self) -> bool:
        return bool(self.diagnostics.get("underdetermined_cells"))

    def to_json_dict(self) -> dict:
        """The fit as JSON values; every producer stores Python values in ``diagnostics``."""
        return {
            "method": self.method,
            "partition": self.partition.describe(),
            "cell_label_mass": self.cell_label_mass.tolist(),
            "target_priors": self.target_priors.tolist(),
            "f_ratios": self.f_ratios.tolist(),
            "residual": float(self.residual),
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True, eq=False)
class HardClassifier:
    """Deterministic label assignment per feature cell."""

    space: FeatureSpace
    num_labels: int
    assignment: np.ndarray = field(repr=False)

    def __init__(self, space, num_labels: int, assignment: np.ndarray):
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (space.num_cells,):
            raise InvalidDistribution(
                f"assignment must cover all {space.num_cells} feature cells")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_labels):
            raise InvalidDistribution("assignment labels out of range")
        assignment = assignment.copy()
        assignment.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num_labels", int(num_labels))
        object.__setattr__(self, "assignment", assignment)

    def partition(self) -> FeaturePartition:
        """Partition of the feature cells by predicted label."""
        _, codes = np.unique(self.assignment, return_inverse=True)
        return FeaturePartition(self.space, codes.astype(np.int64))


def train_argmax_classifier(p: FiniteJointDistribution) -> HardClassifier:
    """Classifier assigning each feature cell its most probable label.

    Ties (and zero-mass cells, whose posterior is undefined) resolve to
    the lowest label index.
    """
    return HardClassifier(p.space, p.num_labels, np.argmax(p.full_posterior.values, axis=1))


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", M, v)


def nnls(A: np.ndarray, b: np.ndarray) -> tuple:
    """``(x, rnorm)``: ``x >= 0`` minimising ``rnorm = ||A x - b||``, for one system or a stack.

    The active-set method of Lawson & Hanson (1974, *Solving Least Squares
    Problems*, ch. 23) on every system of ``A`` (``(..., m, k)``) and ``b``
    (``(..., m)``) at once: each step is one stacked least-squares solve
    over the systems still moving.  After ``10 * (k + 1)`` steps ``x`` is
    returned as it stands, feasible as every iterate is.
    """
    A, b = np.asarray(A, dtype=np.float64), np.asarray(b, dtype=np.float64)
    shape, (m, k) = A.shape[:-2], A.shape[-2:]
    A, b = A.reshape(-1, m, k), b.reshape(-1, m)
    x, passive = np.zeros((len(A), k)), np.zeros((len(A), k), dtype=bool)
    tol = 10 * np.finfo(float).eps * max(m, k) * np.linalg.norm(A, axis=(1, 2)) \
        * np.linalg.norm(b, axis=1)
    moving, choosing = np.ones(len(A), dtype=bool), np.ones(len(A), dtype=bool)
    for _ in range(10 * (k + 1)):
        g = np.nonzero(choosing)[0]  # outer step: the column of largest gradient enters
        w = np.where(passive[g], -np.inf, _mv(np.swapaxes(A[g], 1, 2), b[g] - _mv(A[g], x[g])))
        j = np.argmax(w, axis=1)
        enter = w[np.arange(g.size), j] > tol[g]
        moving[g[~enter]], passive[g[enter], j[enter]], choosing[g] = False, True, False
        g = np.nonzero(moving)[0]
        if not g.size:
            break
        on, xg = passive[g], x[g]
        s = _mv(np.linalg.pinv(A[g] * on[:, None, :]), b[g]) * on
        # inner step: to s, or towards it until the first passive entry reaches 0 and leaves
        t = np.where(on & (s <= 0.0), ratio(xg, xg - s), np.inf)
        done = np.all(np.isinf(t), axis=1)
        xg += np.minimum(t.min(axis=1), 1.0)[:, None] * (s - xg)
        xg[np.arange(g.size), np.argmin(t, axis=1)] *= done
        passive[g] = on & (xg > 0.0)
        x[g] = np.where(passive[g], xg, 0.0)
        choosing[g] = done | ~passive[g].any(axis=1)
    rnorm = np.linalg.norm(_mv(A, x) - b, axis=1)
    if not shape:
        return x[0], float(rnorm[0])
    return x.reshape(*shape, k), rnorm.reshape(shape)


# -- anchored solutions for rank-deficient cells -------------------------------


def _anchored_solution(A: np.ndarray, u_hat: np.ndarray, anchor: np.ndarray,
                       scale=None) -> np.ndarray:
    """Point of ``{u >= 0 : A u = A u_hat}`` closest to ``anchor``, for one system or a stack.

    ``u_hat`` (a non-negative least-squares solution) certifies the set
    is non-empty; it is returned unchanged where the projection cannot be
    computed reliably.  ``scale`` is the rank rule's, ``max(A.shape[-2:])``
    by default.
    """
    _, s, vt = np.linalg.svd(A)
    rank = np.asarray(numerical_rank(s, max(A.shape[-2:]) if scale is None else scale))
    # orthonormal basis of null(A), as columns; the rest are zero
    null = np.swapaxes(vt, -1, -2) * (np.arange(vt.shape[-1]) >= rank[..., None])[..., None, :]
    base = u_hat + _mv(null, _mv(np.swapaxes(null, -1, -2), anchor - u_hat))
    # Minimum-norm v with null @ v >= -base (least distance), by the classic reduction to NNLS.
    E = np.concatenate([np.swapaxes(null, -1, -2), -base[..., None, :]], axis=-2)
    e = np.zeros(E.shape[:-1])
    e[..., -1] = 1.0
    r = _mv(E, nnls(E, e)[0]) - e
    feasible = np.abs(r[..., -1]) >= 1e-12
    u = base - _mv(null, r[..., :-1] / np.where(feasible, r[..., -1], 1.0)[..., None])
    ok = feasible & (u.min(axis=-1) >= -1e-9)
    return np.where(ok[..., None], np.maximum(u, 0.0), u_hat)


# -- SEES-d: per-cell linear systems ------------------------------------------


def _validate_q_marginal(p: FiniteJointDistribution, q_marginal: np.ndarray) -> np.ndarray:
    q_marginal = np.asarray(q_marginal, dtype=np.float64)
    if q_marginal.shape != (p.space.num_cells,):
        raise InvalidDistribution(
            f"q_marginal must be a table over the {p.space.num_cells} feature cells")
    if not np.all(np.isfinite(q_marginal)):
        x = int(np.argmin(np.isfinite(q_marginal)))
        raise InvalidDistribution(f"q_marginal is {q_marginal[x]} at cell {x}, not finite")
    if np.any(q_marginal < 0):
        raise InvalidDistribution("q_marginal must be non-negative")
    total = q_marginal.sum()
    if abs(total - 1.0) > _MARGINAL_TOL:
        raise InvalidDistribution(f"q_marginal totals {total!r}, expected 1")
    return q_marginal / total


def fit_from_cell_mass(p: FiniteJointDistribution, f: FeaturePartition, u: np.ndarray,
                       residual: float = 0.0, method: str = "sees_d",
                       diagnostics: dict | None = None) -> SjsFit:
    """An :class:`SjsFit` from fitted (f-cell, label) masses ``u``, such as a saved fit's.

    ``u`` must be finite and non-negative, and is normalised to total 1;
    the priors, f-ratios and corrected posterior follow from it and the
    source ``p``.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (f.num_cells, p.num_labels):
        raise InvalidDistribution(
            f"cell masses must have shape ({f.num_cells}, {p.num_labels}), got {u.shape}")
    bad = ~(np.isfinite(u) & (u >= 0.0))
    if bad.any():  # the first in row-major order
        n, i = np.unravel_index(int(np.argmax(bad)), u.shape)
        kind = "negative" if u[n, i] < 0.0 else "non-finite"
        raise InvalidDistribution(f"{kind} cell mass {u[n, i]:.3g} at f-cell {n}, label {i}")
    diagnostics = {} if diagnostics is None else diagnostics
    total = u.sum()
    diagnostics["raw_total_mass"] = float(total)
    if total <= 0:
        raise InvalidDistribution("fit produced zero total mass")
    u = u / total
    priors = u.sum(axis=0)
    w = _shift_density(p, f, u)
    # Class-conditional density ratios: dQ/dP over the prior ratio Q_i / P_i.
    f_ratios = w * ratio(p.label_masses(), priors)
    return SjsFit(f, u, priors, f_ratios, _corrected_posterior(p, f, w), float(residual),
                  method, diagnostics)


def _shift_density(p: FiniteJointDistribution, f: FeaturePartition, u: np.ndarray) -> np.ndarray:
    """The fitted shift density ``dQ/dP`` per (f-cell, label): ``u`` over the source's masses."""
    return ratio(u, aggregate(p.mass, f))


def sees_d_fit(p: FiniteJointDistribution, q_marginal: np.ndarray,
               f: FeaturePartition, h_prime: FeaturePartition | None = None) -> SjsFit:
    """Fit the shifted-cell masses by per-cell non-negative least squares.

    Parameters
    ----------
    p : FiniteJointDistribution
        Fully known source joint.
    q_marginal : ndarray over feature cells
        Observed target feature marginal.
    f : FeaturePartition
        Hypothesised shift partition.
    h_prime : FeaturePartition or None
        Sub-information-set the density is matched on; must refine ``f``.
        ``None`` means the full feature partition.

    Notes
    -----
    Per f-cell ``n`` the unknown masses ``u_i = Q[cell n, label i]``
    must satisfy, for every h'-cell ``r`` inside ``n``,

        ``sum_i u_i * P[label i | r] / P[cell n, label i] = Q[r] / P[r]``.

    Full-rank systems have a unique non-negative solution, recovered
    exactly on identifiable instances.  Rank-deficient cells are flagged
    as underdetermined (not fatal) and resolved to the feasible point
    closest to the source cell proportions scaled by the fitted overall
    prior ratios.
    """
    p.require_positive_labels("source")
    q_marginal = _validate_q_marginal(p, q_marginal)
    if h_prime is None:
        h_prime = FeaturePartition.full(p.space)
    if not h_prime.refines(f):
        raise InvalidDistribution("h_prime must refine the shift partition")
    parent = h_prime.parent_cells(f)
    p_hp_label = aggregate(p.mass, h_prime)
    p_hp = p_hp_label.sum(axis=1)
    p_f_label = aggregate(p.mass, f)
    positive = p_f_label > 0.0
    ell = p.num_labels
    # Equations come from the positive-mass h'-cells.  One QR of [A | b] per f-cell
    # leaves an (ell + 1, ell + 1) triangle R with A's solutions, singular values and
    # null space, and the residual below R[:ell]; an overflow (such as a density
    # over a subnormal source mass) leaves it non-finite.
    live = np.nonzero(p_hp > 0.0)[0]
    tri = np.zeros((f.num_cells, ell + 1, ell + 1))
    scale = np.maximum(np.bincount(parent[live], minlength=f.num_cells), positive.sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        density = density_ratio(aggregate(q_marginal, h_prime), p_hp)
        per_label = ratio(1.0, p_f_label)
        for cells, members in stacks(parent[live], f.num_cells):
            x = live[members]
            columns = np.empty((cells.size, ell + 1, x.shape[1]))  # [A | b] column by column
            p_x = p_hp[x]
            for i in range(ell):
                columns[:, i] = p_hp_label[x, i] / p_x * per_label[cells, i, None]
            columns[:, ell] = density[x]
            r = np.linalg.qr(np.swapaxes(columns, 1, 2), mode="r")
            tri[cells, :r.shape[1]] = r
        R, T, c = tri[:, :, :ell], tri[:, :ell, :ell], tri[:, :ell, ell]
        rank = numerical_rank(np.linalg.svd(T, compute_uv=False), scale[:, None])
        # A full-rank cell's least-squares solution, if non-negative, is its NNLS optimum.
        u, full = np.zeros((f.num_cells, ell)), rank == ell
        u[full] = np.linalg.solve(T[full], c[full, :, None])[:, :, 0]
        rest = ~full | np.any(u < 0.0, axis=1)
        u[rest] = nnls(T[rest], c[rest])[0]
        per_cell_residual = np.sum((_mv(R, u) - tri[:, :, ell]) ** 2, axis=1)
    if not np.all(np.isfinite(per_cell_residual)):
        n = int(np.argmin(np.isfinite(per_cell_residual)))
        raise DegenerateObjective(
            f"f-cell {n}: squared residual {per_cell_residual[n]} is not finite "
            f"(target/source density up to {np.max(density[parent == n]):.3g})")

    deficient = rank < positive.sum(axis=1)
    if deficient.any():
        # Overall prior ratios from the determinate cells anchor the rest.
        det_mass, det_source = u[~deficient].sum(axis=0), p_f_label[~deficient].sum(axis=0)
        rho = np.divide(det_mass, det_source, out=np.ones(ell), where=det_source > 0.0)
        u[deficient] = _anchored_solution(R[deficient], u[deficient],
                                          p_f_label[deficient] * rho, scale[deficient, None])
        u[~positive] = 0.0

    diagnostics = {"underdetermined_cells": np.nonzero(deficient)[0].tolist(),
                   "per_cell_residual": per_cell_residual.tolist()}
    return fit_from_cell_mass(p, f, u, per_cell_residual.sum(), "sees_d", diagnostics)


def sees_d_fit_with_classifier(p: FiniteJointDistribution, q_marginal: np.ndarray,
                               f: FeaturePartition, h_prime: FeaturePartition,
                               clf: HardClassifier) -> SjsFit:
    """Linear-system fit on the sub-information-set augmented by a classifier.

    Equations are indexed by (h'-cell, predicted label) intersections,
    which restores full rank when ``h_prime`` alone is too coarse.  With
    ``h_prime`` equal to ``f`` this is the conditional confusion-matrix
    estimator, and with the trivial ``f`` the classical confusion-matrix
    prior estimator.
    """
    augmented = h_prime.join(clf.partition())
    fit = sees_d_fit(p, q_marginal, f, h_prime=augmented)
    return replace(fit, method="conditional_confusion")


# -- SEES-c: likelihood maximisation, one small problem per f-cell -----------

_EM_STEPS = 3  # EM warm-start steps before the Newton steps
_MIN_STEP = 1e-14  # smallest backtracking step


@dataclass(frozen=True)
class OptimizerOptions:
    """SEES-c settings: ``tol`` bounds the KKT residual, ``max_iter`` the EM and
    Newton steps.  A fit that stops short says so in ``diagnostics["converged"]``."""

    tol: float = 1e-10
    max_iter: int = 10000


class SeesCProblem:
    """Likelihood objective of the density-matching problem on a partition.

    The decision variable is a non-negative table ``phi`` over
    (f-cell, label); feasibility demands ``sum(phi * coeffs) == 1``
    where ``coeffs[n, i]`` is the source class-conditional mass of
    f-cell ``n``.  The objective is the target-weighted log of the
    implied feature density.  It is concave, and its maximiser gives
    ``phi[n, i] = f_i(n) * Q[label i]``.  As
    ``sum_i phi[n, i] * gradient[n, i] = Q[F_n]`` at every ``phi``, the
    constraint's multiplier is 1 at the optimum: each f-cell carries its
    target mass ``cell_mass[n]``, and the problem splits into one
    mixture-weight fit per f-cell.
    """

    def __init__(self, p: FiniteJointDistribution, q_marginal: np.ndarray,
                 f: FeaturePartition):
        p.require_positive_labels("source")
        q_marginal = _validate_q_marginal(p, q_marginal)
        self.p = p
        self.f = f
        self.num_labels = p.num_labels
        p_h = p.feature_marginal()
        if np.any(q_marginal[p_h == 0.0] > 0.0):
            density_ratio(q_marginal, p_h)  # raises at the first violation
        priors = p.label_masses()
        post = p.full_posterior.values
        self.coeffs = aggregate(p.mass, f) / priors  # E_{P_i}[1_{F_n}]
        self.free = self.coeffs > 0.0
        support = q_marginal > 0.0
        self._idx = f.cell_of[support]
        self._bq = post[support] / priors
        self._qx = q_marginal[support]
        self.cell_mass = group_sum(self._idx, self._qx, f.num_cells)
        # From logs, so a subnormal source mass cannot overflow a density.
        self.kl_offset = float(np.sum(self._qx * (np.log(self._qx) - np.log(p_h[support]))))

    def initial_phi(self) -> np.ndarray:
        """Feasible start equivalent to the no-shift hypothesis."""
        phi = np.tile(self.p.label_masses(), (self.f.num_cells, 1))
        phi[~self.free] = 0.0
        return phi / self.constraint(phi)

    def density(self, phi: np.ndarray) -> np.ndarray:
        return np.einsum("xi,xi->x", phi[self._idx], self._bq)

    def objective(self, phi: np.ndarray) -> float:
        s = self.density(phi)
        if np.any(s <= 0.0):
            return -np.inf
        return float(np.dot(self._qx, np.log(s)))

    def gradient(self, phi: np.ndarray) -> np.ndarray:
        s = self.density(phi)
        if np.any(s <= 0.0):
            raise DegenerateObjective("implied density vanishes on a target cell")
        grad = group_sum(self._idx, self._bq * (self._qx / s)[:, None], self.f.num_cells)
        grad[~self.free] = 0.0
        return grad

    def constraint(self, phi: np.ndarray) -> float:
        return float(np.sum(phi * self.coeffs))

    def cell_hessian(self, phi: np.ndarray) -> np.ndarray:
        """The objective's Hessian, one (label, label) block per f-cell."""
        rows = self._bq * (np.sqrt(self._qx) / self.density(phi))[:, None]
        i, j = np.triu_indices(self.num_labels)
        hess = np.empty((self.f.num_cells, self.num_labels, self.num_labels))
        hess[:, i, j] = hess[:, j, i] = -group_sum(self._idx, rows[:, i] * rows[:, j],
                                                   self.f.num_cells)
        return hess

    def cell_gain(self, phi: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Each f-cell's objective gain from ``phi`` to ``phi + step``, at its target mass.

        Summed from ``log1p`` of relative changes, its sign holds where the
        objective is flat to rounding.
        """
        mass = np.sum(phi * self.coeffs, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = group_sum(self._idx, self._qx * np.log1p(self.density(step) / self.density(phi)),
                             self.f.num_cells)
            moved = np.sum(step * self.coeffs, axis=1) / np.where(mass > 0.0, mass, 1.0)
        return gain - self.cell_mass * np.log1p(moved)


def _newton_direction(hess, border, rhs, active) -> np.ndarray:
    """``d`` of ``[[H, b], [b', 0]] [d, mu] = [rhs, 0]`` for every f-cell, on active entries.

    Inactive entries get ``d = 0``, and the pseudo-inverse drops
    directions the objective cannot see.
    """
    k = rhs.shape[1]
    on = active.astype(float)
    kkt = np.zeros((len(rhs), k + 1, k + 1))
    kkt[:, :k, :k] = hess * on[:, :, None] * on[:, None, :]
    kkt[:, :k, k] = kkt[:, k, :k] = border * on
    kkt[:, range(k), range(k)] -= 1.0 - on
    inverse = np.linalg.pinv(kkt, rcond=1e-13, hermitian=True)[:, :k, :k]
    return on * np.einsum("nij,nj->ni", inverse, on * rhs)


def sees_c_fit(p: FiniteJointDistribution, q_marginal: np.ndarray, f: FeaturePartition,
               opts: OptimizerOptions | None = None) -> SjsFit:
    """Fit by maximising the target likelihood of the implied density.

    All f-cells' problems (see :class:`SeesCProblem`) are solved at once,
    from the no-shift start with each f-cell at its target mass: EM steps
    ``phi <- phi * gradient / coeffs``, then bordered Newton steps on each
    cell's active entries.  A ratio test keeps ``phi >= 0``, and each cell
    halves its step, down to ``_MIN_STEP``, until its objective does not
    fall, so the recorded objective never decreases.  Converged means a
    KKT residual (``|gradient / coeffs - 1|`` where ``phi > 0``, its
    positive part where ``phi == 0``) of at most ``opts.tol``.  Stopping
    after ``opts.max_iter`` steps, or after a Newton step that raised no
    objective and cut no residual, is reported in the diagnostics as
    ``converged`` False.  ``residual`` on the fit is the optimal KL
    divergence of the observed feature density from the fitted one (0
    for an exact fit).
    """
    opts = opts or OptimizerOptions()
    problem = SeesCProblem(p, q_marginal, f)
    coeffs, free, target = problem.coeffs, problem.free, problem.cell_mass[:, None]

    def at_target(phi):
        return ratio(phi * target, np.sum(phi * coeffs, axis=1, keepdims=True))

    def kkt(phi):
        scaled = ratio(problem.gradient(phi), coeffs)
        return scaled, np.where(phi > 0.0, np.abs(scaled - 1.0), np.maximum(scaled - 1.0, 0.0))

    phi = at_target(problem.initial_phi())
    obj = problem.objective(phi)
    objective_history, constraint_errors = [obj], [abs(problem.constraint(phi) - 1.0)]
    iterations = newton_steps = 0
    best, raised = np.inf, True
    for iterations in range(1, opts.max_iter + 1):
        scaled, violation = kkt(phi)
        worst, cell_worst = float(violation.max(initial=0.0)), violation.max(axis=1)
        if worst <= opts.tol or (newton_steps and not raised and worst >= best):
            break
        best, pending = min(best, worst), cell_worst > 0.0
        if iterations <= _EM_STEPS:
            d = at_target(phi * scaled) - phi
        else:
            newton_steps += 1
            active = free & ((phi > 0.0) | (scaled > 1.0)) & pending[:, None]
            d = _newton_direction(problem.cell_hessian(phi), coeffs, coeffs * (1.0 - scaled),
                                  active)
            d[(phi <= 0.0) & (d < 0.0)] = 0.0
        blocking = np.divide(phi, -d, out=np.full_like(phi, np.inf), where=d < 0.0)
        t = np.minimum(1.0, blocking.min(axis=1))
        trial, gain, ok = phi, np.zeros(f.num_cells), np.zeros(f.num_cells, dtype=bool)
        while pending.any():
            attempt = np.maximum(phi + t[:, None] * d, 0.0)
            attempt[blocking <= t[:, None]] = 0.0
            attempt = at_target(attempt)
            attempt_gain = problem.cell_gain(phi, attempt - phi)
            take = pending & (attempt_gain >= 0.0)
            trial = np.where(take[:, None], attempt, trial)
            gain, ok = np.where(take, attempt_gain, gain), ok | take
            pending &= ~take & (cell_worst > opts.tol)  # cells within tol: full step only
            t[pending] *= 0.5
            pending &= t >= _MIN_STEP
        new_obj = obj + float(gain[ok].sum())
        raised = new_obj > obj
        if ok.any():
            phi, obj = trial, new_obj
            objective_history.append(obj)
            constraint_errors.append(abs(problem.constraint(phi) - 1.0))
    else:  # out of steps: the residual after the last one
        worst = float(kkt(phi)[1].max(initial=0.0))

    diagnostics = {"converged": worst <= opts.tol, "iterations": iterations,
                   "polish_steps": newton_steps, "kkt_residual": worst,
                   "objective_history": objective_history, "constraint_errors": constraint_errors}
    return fit_from_cell_mass(p, f, phi * coeffs, max(0.0, problem.kl_offset - obj), "sees_c",
                              diagnostics)


# -- posterior correction and reconstruction -----------------------------------


def _normalised_rows(full: FeaturePartition, joint: np.ndarray) -> ConditionalTable:
    """Rows of ``joint`` over their sums, undefined where a row sums to 0."""
    denom = joint.sum(axis=1)
    return ConditionalTable(full, ratio(joint, denom[:, None]), denom > 0.0)


def _corrected_posterior(p: FiniteJointDistribution, f: FeaturePartition,
                         w: np.ndarray) -> ConditionalTable:
    """Target label posterior of the source times the shift density ``w``."""
    # The cached source posterior is built, if it must be, before the joint is allocated.
    return _normalised_rows(p.full_posterior.partition, p.mass * w[f.cell_of])


def posterior_correct(p: FiniteJointDistribution, correction) -> ConditionalTable:
    """Target label posterior per feature cell from f-conditional prior ratios.

    ``correction`` is either an :class:`SjsFit` or a pair
    ``(target_table, source_table)`` of :class:`ConditionalTable` over
    the same partition giving the label probabilities conditional on it;
    their entrywise ratio (0/0 as 0) feeds the correction formula

        ``corrected_i(x) ~ ratio_i(cell of x) * source_posterior_i(x)``

    normalised over labels.  For a fit the per-cell factors cancel in the
    normalisation, which leaves the source joint times the fitted shift
    density ``Q[cell n, label i] / P[cell n, label i]``: the result is the
    fit's ``corrected_posterior``.
    """
    if isinstance(correction, SjsFit):
        f = correction.partition
        return _corrected_posterior(p, f, _shift_density(p, f, correction.cell_label_mass))
    target_table, source_table = correction
    if target_table.partition.num_cells != source_table.partition.num_cells:
        raise InvalidDistribution("conditional tables must share their partition")
    ratios = ratio(target_table.values, source_table.values)
    ratios[~(target_table.defined & source_table.defined)] = 0.0
    post = p.full_posterior
    return _normalised_rows(post.partition, ratios[source_table.partition.cell_of] * post.values)


def reconstruct_target(p: FiniteJointDistribution, fit: SjsFit) -> FiniteJointDistribution:
    """Target joint implied by a fit: source times the fitted shift density.

    Cellwise, ``q[x, i] = p[x, i] * Q[cell n, label i] / P[cell n, label i]``
    for ``n`` the f-cell of ``x``.
    """
    f = fit.partition
    w = _shift_density(p, f, fit.cell_label_mass)
    # Masses are at most 1, so w is 0 only where u is 0 or the source pair is null.
    lost = fit.cell_label_mass[w == 0.0].sum()
    if lost > 1e-9:
        raise InvalidDistribution(
            f"fit places mass {lost:.3g} on source-null (cell, label) pairs")
    mass = p.mass * w[f.cell_of]
    total = mass.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"reconstructed table totals {total!r}")
    return FiniteJointDistribution(p.space, p.num_labels, mass / total)


# -- shifted-feature search ----------------------------------------------------


@dataclass(frozen=True)
class SubsetResult:
    """One evaluated candidate subset in :func:`sparsity_search`."""

    features: tuple
    fit: SjsFit | None
    objective: float
    penalized_objective: float
    error: str | None = None


def sparsity_search(p: FiniteJointDistribution, q_marginal: np.ndarray,
                    candidate_features: list, penalty: float,
                    fit: Callable[[np.ndarray, FeaturePartition], SjsFit] | None = None) -> list:
    """Rank feature subsets by penalised goodness-of-fit.

    ``fit(q, f)`` fits the checked target marginal ``q`` on a candidate
    shift partition ``f``; the default is :func:`sees_d_fit`.

    Because shift on a feature set transfers to every superset, fitting
    all (d-1)-subsets first loses nothing; the search then greedily
    shrinks the best subset while the penalised objective
    ``residual + penalty * |subset|`` keeps improving.  The full set and
    (via shrinking) possibly the empty set are evaluated as well.
    Returns every evaluated subset as a :class:`SubsetResult`, sorted by
    penalised objective with lexicographic tie-break for determinism.
    """
    order = {name: k for k, name in enumerate(p.space.feature_names)}
    for name in candidate_features:
        if name not in order:
            raise InvalidDistribution(f"unknown candidate feature {name!r}")
    candidates = tuple(sorted(dict.fromkeys(candidate_features), key=order.get))
    q_marginal = _validate_q_marginal(p, q_marginal)

    results: dict[tuple, SubsetResult] = {}

    def evaluate(subset: tuple) -> SubsetResult:
        if subset in results:
            return results[subset]
        f = FeaturePartition.from_features(p.space, subset)
        try:
            result = fit(q_marginal, f) if fit is not None else sees_d_fit(p, q_marginal, f)
            res = SubsetResult(subset, result, result.residual,
                               result.residual + penalty * len(subset))
        except (SjslabError, np.linalg.LinAlgError) as exc:  # recorded, keeps the ranking total
            res = SubsetResult(subset, None, np.inf, np.inf, error=str(exc))
        results[subset] = res
        return res

    evaluate(candidates)
    for drop in candidates:
        evaluate(tuple(n for n in candidates if n != drop))

    current = min(results.values(), key=lambda r: (r.penalized_objective, r.features))
    while current.features:
        children = [evaluate(tuple(n for n in current.features if n != drop))
                    for drop in current.features]
        best_child = min(children, key=lambda r: (r.penalized_objective, r.features))
        if best_child.penalized_objective < current.penalized_objective:
            current = best_child
        else:
            break
    return sorted(results.values(), key=lambda r: (r.penalized_objective, r.features))
