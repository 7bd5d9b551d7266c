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
  f-measurable non-negative weight tables, by projected gradient ascent
  on a single linear constraint.

Both return an :class:`SjsFit` carrying the fitted masses, target
priors, per-cell density ratios, the corrected posterior and solver
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import ConditionalTable, FiniteJointDistribution, posterior
from .errors import (
    AbsoluteContinuityViolated,
    DegenerateObjective,
    InvalidDistribution,
    NotConverged,
    SjslabError,
)
from .shifts import numerical_rank
from .space import FeaturePartition, FeatureSpace, aggregate, group, group_sum

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
        diag = {}
        for k, v in self.diagnostics.items():
            if isinstance(v, np.ndarray):
                v = v.tolist()
            elif isinstance(v, (np.floating, np.integer)):
                v = v.item()
            elif isinstance(v, list):
                v = [x.item() if isinstance(x, (np.floating, np.integer)) else x for x in v]
            diag[k] = v
        return {
            "method": self.method,
            "partition": self.partition.describe(),
            "cell_label_mass": self.cell_label_mass.tolist(),
            "target_priors": self.target_priors.tolist(),
            "f_ratios": self.f_ratios.tolist(),
            "residual": float(self.residual),
            "diagnostics": diag,
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

    def source_error(self, p: FiniteJointDistribution) -> float:
        """Probability of misclassification under the source joint."""
        correct = p.mass[np.arange(p.space.num_cells), self.assignment]
        return float(1.0 - correct.sum())


def train_argmax_classifier(p: FiniteJointDistribution) -> HardClassifier:
    """Classifier assigning each feature cell its most probable label.

    Ties (and zero-mass cells, whose posterior is undefined) resolve to
    the lowest label index.
    """
    post = posterior(p, FeaturePartition.full(p.space))
    return HardClassifier(p.space, p.num_labels, np.argmax(post.values, axis=1))


def nnls(A: np.ndarray, b: np.ndarray) -> tuple:
    """``scipy.optimize.nnls``, imported on first use: the import costs most of ``import sjslab``."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(A, b)


# -- anchored solutions for rank-deficient cells -------------------------------


def _ldp(G: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """Minimum-norm x with G x >= h, via the classic reduction to NNLS.

    Returns None when the constraints are (numerically) infeasible.
    """
    m, n = G.shape
    E = np.vstack([G.T, h[None, :]])
    fvec = np.zeros(n + 1)
    fvec[-1] = 1.0
    u, _ = nnls(E, fvec)
    r = E @ u - fvec
    if abs(r[-1]) < 1e-12:
        return None
    return -r[:-1] / r[-1]


def _anchored_solution(A: np.ndarray, u_hat: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Point of ``{u >= 0 : A u = A u_hat}`` closest to ``anchor``.

    ``u_hat`` (a non-negative least-squares solution) certifies the set
    is non-empty; it is returned unchanged when the projection cannot be
    computed reliably.
    """
    b = A @ u_hat
    u0, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, s, vt = np.linalg.svd(A)
    rank = numerical_rank(s, max(A.shape))
    null = vt[rank:].T  # orthonormal basis of null(A)
    if null.shape[1] == 0:
        return np.maximum(u0, 0.0)
    z0 = null.T @ (anchor - u0)
    v = _ldp(null, -(u0 + null @ z0))
    if v is None:
        return u_hat
    u = u0 + null @ (z0 + v)
    if u.min() < -1e-9:
        return u_hat
    return np.maximum(u, 0.0)


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

    ``u`` is normalised to total 1; the priors, f-ratios and corrected
    posterior follow from it and the source ``p``.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (f.num_cells, p.num_labels):
        raise InvalidDistribution(
            f"cell masses must have shape ({f.num_cells}, {p.num_labels}), got {u.shape}")
    diagnostics = {} if diagnostics is None else diagnostics
    total = u.sum()
    diagnostics["raw_total_mass"] = float(total)
    if total <= 0:
        raise InvalidDistribution("fit produced zero total mass")
    u = u / total
    priors = u.sum(axis=0)
    p_f_label = aggregate(p.mass, f)
    p_priors = p.label_masses()

    f_ratios = _ratios(u, priors[None, :], p_f_label, p_priors[None, :])
    corrected = _posterior_correct_with_ratios(p, f, _conditional_ratios(u, p_f_label))
    return SjsFit(f, u, priors, f_ratios, corrected, float(residual), method, diagnostics)


def _ratios(u, u_norm, p_mass, p_norm) -> np.ndarray:
    """``(u / u_norm) / (p_mass / p_norm)`` where the last three are positive, else 0.

    Normalised by the label priors, (f-cell, label) masses give the
    class-conditional density ratios; by the f-cell masses, the ratios of
    the label probabilities conditional on each f-cell.
    """
    u_norm, p_norm = np.broadcast_to(u_norm, u.shape), np.broadcast_to(p_norm, u.shape)
    ok = (u_norm > 0.0) & (p_mass > 0.0) & (p_norm > 0.0)
    out = np.zeros_like(u)
    out[ok] = (u[ok] / u_norm[ok]) / (p_mass[ok] / p_norm[ok])
    return out


def _conditional_ratios(u: np.ndarray, p_f_label: np.ndarray) -> np.ndarray:
    return _ratios(u, u.sum(axis=1)[:, None], p_f_label, p_f_label.sum(axis=1)[:, None])


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
    q_hp = aggregate(q_marginal, h_prime)
    bad = (p_hp == 0.0) & (q_hp > 0.0)
    if bad.any():
        r = int(np.argmax(bad))
        raise AbsoluteContinuityViolated(r, mass=float(q_hp[r]))
    p_f_label = aggregate(p.mass, f)
    # Equations come from the positive-mass h'-cells, grouped by f-cell.
    live = np.nonzero(p_hp > 0.0)[0]
    order, bounds = group(parent[live], f.num_cells)
    live = live[order]

    ell = p.num_labels
    u = np.zeros((f.num_cells, ell))
    residual = 0.0
    per_cell_residual = np.zeros(f.num_cells)
    deficient: list[int] = []
    systems: dict[int, tuple] = {}
    for n in range(f.num_cells):
        rows = live[bounds[n]:bounds[n + 1]]
        cols = np.nonzero(p_f_label[n] > 0.0)[0]
        if rows.size == 0 or cols.size == 0:
            continue
        post_rows = p_hp_label[rows[:, None], cols] / p_hp[rows, None]
        A = post_rows / p_f_label[n, cols][None, :]
        b = q_hp[rows] / p_hp[rows]
        sol, rnorm = nnls(A, b)
        per_cell_residual[n] = float(rnorm) ** 2
        residual += float(rnorm) ** 2
        s = np.linalg.svd(A, compute_uv=False)
        if numerical_rank(s, max(A.shape)) < cols.size:
            deficient.append(n)
            systems[n] = (A, cols, sol)
        u[n, cols] = sol

    if deficient:
        # Overall prior ratios from the determinate cells anchor the rest.
        det = np.ones(f.num_cells, dtype=bool)
        det[deficient] = False
        det_mass = u[det].sum(axis=0)
        det_source = p_f_label[det].sum(axis=0)
        for n in deficient:
            A, cols, sol = systems[n]
            rho = np.divide(det_mass[cols], det_source[cols],
                            out=np.ones(cols.size), where=det_source[cols] > 0.0)
            anchor = p_f_label[n, cols] * rho
            u[n, cols] = _anchored_solution(A, sol, anchor)

    diagnostics = {"underdetermined_cells": deficient,
                   "per_cell_residual": per_cell_residual.tolist()}
    return fit_from_cell_mass(p, f, u, residual, "sees_d", diagnostics)


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


# -- SEES-c: constrained likelihood maximisation -------------------------------


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings for the projected-gradient likelihood maximiser."""

    tol: float = 1e-10
    max_iter: int = 10000
    min_step: float = 1e-14
    strict: bool = False


class SeesCProblem:
    """Likelihood objective of the density-matching problem on a partition.

    The decision variable is a non-negative table ``phi`` over
    (f-cell, label); feasibility demands ``sum(phi * coeffs) == 1``
    where ``coeffs[n, i]`` is the source class-conditional mass of
    f-cell ``n``.  The objective is the target-weighted log of the
    implied feature density.  It is concave, and its maximiser gives
    ``phi[n, i] = f_i(n) * Q[label i]``.
    """

    def __init__(self, p: FiniteJointDistribution, q_marginal: np.ndarray,
                 f: FeaturePartition):
        p.require_positive_labels("source")
        q_marginal = _validate_q_marginal(p, q_marginal)
        self.p = p
        self.f = f
        self.num_labels = p.num_labels
        p_h = p.feature_marginal()
        bad = (p_h == 0.0) & (q_marginal > 0.0)
        if bad.any():
            x = int(np.argmax(bad))
            raise AbsoluteContinuityViolated(x, mass=float(q_marginal[x]))
        priors = p.label_masses()
        post = posterior(p, FeaturePartition.full(p.space)).values
        self.coeffs = aggregate(p.mass, f) / priors  # E_{P_i}[1_{F_n}]
        self.free = self.coeffs > 0.0
        support = q_marginal > 0.0
        self._idx = f.cell_of[support]
        self._groups = group(self._idx, f.num_cells)
        self._bq = post[support] / priors
        self._qx = q_marginal[support]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(support, q_marginal / np.where(p_h > 0, p_h, 1.0), 1.0)
        self.kl_offset = float(np.sum(self._qx * np.log(ratio[support])))

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

    def hessian_blocks(self, phi: np.ndarray) -> np.ndarray:
        """Per-f-cell blocks of the (block-diagonal) objective Hessian."""
        s = self.density(phi)
        blocks = np.zeros((self.f.num_cells, self.num_labels, self.num_labels))
        order, bounds = self._groups
        scaled = (self._bq * np.sqrt(self._qx / s ** 2)[:, None])[order]
        for n in np.nonzero(np.diff(bounds))[0]:
            rows = scaled[bounds[n]:bounds[n + 1]]
            blocks[n] = -(rows.T @ rows)
        return blocks

    def projected_gradient(self, phi: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Gradient projected on the feasible directions at ``phi``.

        Zero iff ``phi`` satisfies the first-order optimality conditions
        of the constrained problem: the gradient is a multiple of the
        constraint coefficients on positive entries and no entry pinned
        at zero has an inward ascent direction.
        """
        a = self.coeffs
        work = self.free & (phi > 0.0)
        lam = 0.0
        for _ in range(3):
            denom = float(np.sum(a[work] ** 2))
            lam = float(np.sum(grad[work] * a[work])) / denom if denom > 0 else 0.0
            work = self.free & ((phi > 0.0) | (grad - lam * a > 0.0))
        pg = grad - lam * a
        at_bound = self.free & (phi <= 0.0)
        pg[at_bound] = np.maximum(pg[at_bound], 0.0)
        pg[~self.free] = 0.0
        return pg


def sees_c_problem(p: FiniteJointDistribution, q_marginal: np.ndarray,
                   f: FeaturePartition) -> SeesCProblem:
    """Expose the likelihood problem (used by the numerical oracles)."""
    return SeesCProblem(p, q_marginal, f)


def sees_c_fit(p: FiniteJointDistribution, q_marginal: np.ndarray, f: FeaturePartition,
               opts: OptimizerOptions | None = None) -> SjsFit:
    """Fit by maximising the target likelihood of the implied density.

    Projected gradient ascent with exact renormalisation onto the linear
    constraint after every step and a backtracking line search, so the
    recorded objective is non-decreasing and every accepted iterate is
    feasible.  A short Newton polish on the first-order system finishes
    the job when the likelihood is nearly flat.  Convergence is declared
    when the projected-gradient norm drops below ``opts.tol`` (or the
    polish stalls below 1e-9, the float64 resolution of this objective);
    stopping early at ``opts.max_iter`` is reported in the diagnostics
    and raises :class:`NotConverged` when ``opts.strict``.

    ``residual`` on the returned fit is the optimal KL divergence of the
    observed feature density from the fitted one (0 for an exact fit).
    """
    opts = opts or OptimizerOptions()
    problem = SeesCProblem(p, q_marginal, f)
    phi = problem.initial_phi()
    obj = problem.objective(phi)
    if not np.isfinite(obj):
        raise DegenerateObjective("implied density vanishes on a target cell at the start")

    objective_history = [obj]
    constraint_errors = [abs(problem.constraint(phi) - 1.0)]
    step = 1.0
    pg_norm = np.inf
    converged = False
    iterations = 0
    prev_phi = prev_pg = None
    for iterations in range(1, opts.max_iter + 1):
        grad = problem.gradient(phi)
        pg = problem.projected_gradient(phi, grad)
        pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
        if pg_norm < opts.tol:
            converged = True
            break
        if pg_norm < 1e-6:
            break  # close enough for the Newton polish to take over
        # Spectral (Barzilai-Borwein) step guess, safeguarded by backtracking.
        if prev_phi is not None:
            d_phi = phi - prev_phi
            d_pg = pg - prev_pg
            denom = -float(np.sum(d_phi * d_pg))  # ascent: curvature is negative
            if denom > 0:
                step = min(max(float(np.sum(d_phi * d_phi)) / denom, opts.min_step), 1e12)
        prev_phi, prev_pg = phi, pg
        accepted = False
        while step >= opts.min_step:
            trial = np.maximum(phi + step * pg, 0.0)
            trial[~problem.free] = 0.0
            c = problem.constraint(trial)
            if c > 0.0:
                trial = trial / c
                new_obj = problem.objective(trial)
                if new_obj > obj:
                    phi, obj = trial, new_obj
                    objective_history.append(obj)
                    constraint_errors.append(abs(problem.constraint(phi) - 1.0))
                    accepted = True
                    step *= 2.0
                    break
            step *= 0.5
        if not accepted:
            # Line search exhausted: no ascent at float precision from here.
            converged = pg_norm < 1e-6
            break

    # Newton polish on the KKT system: the Hessian is block-diagonal per
    # f-cell, so this is cheap and resolves the nearly flat directions
    # that first-order steps crawl along on barely identifiable instances.
    polish_steps = 0
    polish_budget = min(50, max(0, opts.max_iter - iterations))
    if phi.size > 1500:
        polish_budget = 0  # dense KKT solve is a desk-scale tool
    if not (converged and pg_norm < opts.tol):
        for _ in range(polish_budget):
            grad = problem.gradient(phi)
            pg = problem.projected_gradient(phi, grad)
            pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
            if pg_norm < opts.tol:
                break
            free = problem.free & ((phi > 0.0) | (pg > 0.0))
            idx = np.nonzero(free.ravel())[0]
            if idx.size == 0:
                break
            blocks = problem.hessian_blocks(phi)
            k = phi.shape[1]
            hess = np.zeros((phi.size, phi.size))
            for n in range(phi.shape[0]):
                hess[n * k:(n + 1) * k, n * k:(n + 1) * k] = blocks[n]
            a_vec = problem.coeffs.ravel()[idx]
            kkt = np.zeros((idx.size + 1, idx.size + 1))
            kkt[:-1, :-1] = hess[np.ix_(idx, idx)]
            kkt[:-1, -1] = -a_vec
            kkt[-1, :-1] = a_vec
            rhs = np.concatenate([-grad.ravel()[idx], [0.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            direction = np.zeros(phi.size)
            direction[idx] = sol[:-1]
            direction = direction.reshape(phi.shape)
            t = 1.0
            improved = False
            while t >= opts.min_step:
                trial = np.maximum(phi + t * direction, 0.0)
                trial[~problem.free] = 0.0
                c = problem.constraint(trial)
                if c > 0.0:
                    trial = trial / c
                    new_obj = problem.objective(trial)
                    if new_obj >= obj:
                        phi, obj = trial, new_obj
                        objective_history.append(obj)
                        constraint_errors.append(abs(problem.constraint(phi) - 1.0))
                        improved = True
                        break
                t *= 0.5
            polish_steps += 1
            if not improved:
                break
        grad = problem.gradient(phi)
        pg_norm = float(np.max(np.abs(problem.projected_gradient(phi, grad))))
        converged = converged or pg_norm < max(opts.tol, 1e-9)

    w = phi * problem.coeffs
    residual = max(0.0, problem.kl_offset - obj)
    diagnostics = {
        "converged": converged,
        "iterations": iterations,
        "polish_steps": polish_steps,
        "projected_gradient_norm": pg_norm,
        "objective_history": [float(v) for v in objective_history],
        "constraint_errors": [float(v) for v in constraint_errors],
    }
    fit = fit_from_cell_mass(p, f, w, residual, "sees_c", diagnostics)
    if opts.strict and not converged:
        raise NotConverged(
            f"projected gradient norm {pg_norm:.3g} above {opts.tol} "
            f"after {iterations} iterations", fit)
    return fit


# -- posterior correction and reconstruction -----------------------------------


def _posterior_correct_with_ratios(p: FiniteJointDistribution, f: FeaturePartition,
                                   ratios: np.ndarray) -> ConditionalTable:
    """Apply the conditional correction formula with explicit prior ratios.

    ``ratios[n, i]`` is the target/source ratio of the label-``i``
    probability conditional on f-cell ``n``.  Cells where the corrected
    denominator vanishes are flagged undefined (possible only on
    target-null cells); the 0/0-as-0 convention applies throughout.
    """
    post = posterior(p, FeaturePartition.full(p.space))
    expanded = ratios[f.cell_of]
    numer = expanded * post.values
    denom = numer.sum(axis=1)
    defined = denom > 0.0
    values = np.zeros_like(numer)
    values[defined] = numer[defined] / denom[defined, None]
    return ConditionalTable(FeaturePartition.full(p.space), values, defined)


def posterior_correct(p: FiniteJointDistribution, correction) -> ConditionalTable:
    """Target label posterior per feature cell from f-conditional prior ratios.

    ``correction`` is either an :class:`SjsFit` or a pair
    ``(target_table, source_table)`` of :class:`ConditionalTable` over
    the same partition giving the label probabilities conditional on it;
    their entrywise ratio (0/0 as 0) feeds the correction formula

        ``corrected_i(x) ~ ratio_i(cell of x) * source_posterior_i(x)``

    normalised over labels.
    """
    if isinstance(correction, SjsFit):
        f = correction.partition
        ratios = _conditional_ratios(correction.cell_label_mass, aggregate(p.mass, f))
        return _posterior_correct_with_ratios(p, f, ratios)
    target_table, source_table = correction
    if target_table.partition.num_cells != source_table.partition.num_cells:
        raise InvalidDistribution("conditional tables must share their partition")
    ratios = np.zeros_like(target_table.values)
    ok = source_table.values > 0.0
    ratios[ok] = target_table.values[ok] / source_table.values[ok]
    ratios[~(target_table.defined & source_table.defined)] = 0.0
    return _posterior_correct_with_ratios(p, source_table.partition, ratios)


def reconstruct_target(p: FiniteJointDistribution, fit: SjsFit) -> FiniteJointDistribution:
    """Target joint implied by a fit: source times the fitted shift density.

    Cellwise, ``q[x, i] = p[x, i] * Q[cell n, label i] / P[cell n, label i]``
    for ``n`` the f-cell of ``x``.
    """
    f = fit.partition
    p_f_label = aggregate(p.mass, f)
    scale = np.zeros_like(fit.cell_label_mass)
    pos = p_f_label > 0.0
    scale[pos] = fit.cell_label_mass[pos] / p_f_label[pos]
    lost = fit.cell_label_mass[~pos].sum()
    if lost > 1e-9:
        raise InvalidDistribution(
            f"fit places mass {lost:.3g} on source-null (cell, label) pairs")
    mass = p.mass * scale[f.cell_of]
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
                    method: str = "sees_d",
                    opts: OptimizerOptions | None = None) -> list:
    """Rank feature subsets by penalised goodness-of-fit.

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
            if method == "sees_c":
                fit = sees_c_fit(p, q_marginal, f, opts)
            else:
                fit = sees_d_fit(p, q_marginal, f)
            res = SubsetResult(subset, fit, fit.residual,
                               fit.residual + penalty * len(subset))
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
