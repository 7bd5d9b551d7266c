"""Brute-force constructions and checks used to validate the estimators.

Everything here is deliberately independent of the estimator code paths:
planted instances are built by direct cellwise multiplication, feasible
sets are enumerated by exact linear algebra, and gradients are checked
by central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .distribution import FiniteJointDistribution
from .errors import InfeasibleRatios, InvalidDistribution
from .estimators import SeesCProblem, SjsFit
from .space import FeaturePartition, aggregate, group


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A source, a target constructed to satisfy shift on a known partition,
    and the ground truth the estimators must recover."""

    source: FiniteJointDistribution
    target: FiniteJointDistribution
    shift_partition: FeaturePartition
    planted_priors: np.ndarray = field(repr=False)
    planted_cell_mass: np.ndarray = field(repr=False)
    cell_ratios: np.ndarray = field(repr=False)
    seed: int | None = None


def plant_sjs(source: FiniteJointDistribution, f: FeaturePartition,
              new_priors, cell_ratios="random", seed: int | None = None) -> PlantedInstance:
    """Construct a target that differs from the source by shift on ``f`` only.

    The target is ``source`` times the cellwise density
    ``ratio[f-cell, label] * new_prior[label] / source_prior[label]``.
    ``cell_ratios`` may be a (num_f_cells, num_labels) table or
    ``"random"`` (seeded, uniform in [0.25, 4)); either way each label's
    ratios are renormalised so their source-class-conditional expectation
    is exactly 1, so the planted priors are exact.
    """
    source.require_positive_labels("source")
    new_priors = np.asarray(new_priors, dtype=np.float64)
    if new_priors.shape != (source.num_labels,):
        raise InvalidDistribution(f"need {source.num_labels} target priors")
    if np.any(new_priors <= 0.0) or abs(new_priors.sum() - 1.0) > 1e-9:
        raise InvalidDistribution("target priors must be positive and sum to 1")
    new_priors = new_priors / new_priors.sum()

    if isinstance(cell_ratios, str) and cell_ratios == "random":
        rng = np.random.default_rng(seed)
        ratios = rng.uniform(0.25, 4.0, size=(f.num_cells, source.num_labels))
    else:
        ratios = np.asarray(cell_ratios, dtype=np.float64).copy()
        if ratios.shape != (f.num_cells, source.num_labels):
            raise InvalidDistribution(
                f"cell_ratios must have shape ({f.num_cells}, {source.num_labels})")
        if np.any(ratios < 0.0):
            raise InvalidDistribution("cell_ratios must be non-negative")

    p_f_label = aggregate(source.mass, f)
    priors = source.label_masses()
    cond = p_f_label / priors  # source class-conditional mass of each f-cell
    for i in range(source.num_labels):
        expect = float(np.dot(cond[:, i], ratios[:, i]))
        if expect <= 0.0:
            raise InfeasibleRatios(
                f"label {i}: ratios are supported on source-null cells only")
        ratios[:, i] /= expect

    density = ratios[f.cell_of] * (new_priors / priors)[None, :]
    target = FiniteJointDistribution(source.space, source.num_labels,
                                     source.mass * density)
    planted_cell_mass = p_f_label / priors * ratios * new_priors[None, :]
    return PlantedInstance(source, target, f, new_priors, planted_cell_mass,
                           ratios, seed)


# -- exhaustive per-cell solution sets -----------------------------------------

_BRUTE_TOL = 1e-10
_BRUTE_CAP = 10_000


@dataclass(frozen=True, eq=False)
class CellSolutionSet:
    """All non-negative solutions of one per-cell equation system.

    ``vertices`` spans the feasible polytope (a single row when unique).
    """

    cell: int
    labels: np.ndarray
    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    vertices: np.ndarray = field(repr=False)
    unique: bool

    def contains(self, u: np.ndarray, tol: float = 1e-8) -> bool:
        """Membership in {u >= 0 : matrix u = attainable rhs} up to ``tol``."""
        if np.any(u[np.setdiff1d(np.arange(u.size), self.labels)] > tol):
            return False
        active = u[self.labels]
        if np.any(active < -tol):
            return False
        if self.vertices.size == 0:
            return bool(np.all(np.abs(active) <= tol))
        best = self.matrix @ self.vertices[0]
        return bool(np.max(np.abs(self.matrix @ active - best)) <= tol)


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Per-cell solution sets for the density-matching equations."""

    partition: FeaturePartition
    num_labels: int
    cells: list

    @property
    def is_singleton(self) -> bool:
        return all(c.unique for c in self.cells)

    def contains(self, fit: SjsFit, tol: float = 1e-8) -> bool:
        """Does the fit's per-cell mass table lie in every cell's solution set?"""
        if fit.partition.num_cells != self.partition.num_cells:
            return False
        return all(c.contains(fit.cell_label_mass[c.cell], tol) for c in self.cells)

    def unique_solution(self) -> np.ndarray:
        """(num_cells, num_labels) table when every cell is uniquely solvable."""
        if not self.is_singleton:
            raise InvalidDistribution("solution set is not a singleton")
        out = np.zeros((self.partition.num_cells, self.num_labels))
        for c in self.cells:
            if c.vertices.size:
                out[c.cell, c.labels] = c.vertices[0]
        return out


def brute_force_fit(p: FiniteJointDistribution, q_marginal: np.ndarray,
                    f: FeaturePartition) -> BruteForceResult:
    """Enumerate, per f-cell, every non-negative solution of the exact system.

    Full-rank cells yield the unique solution; rank-deficient consistent
    cells yield the vertex set of the feasible polytope (enumerated via
    basic solutions, exact at desk scale).  Any estimator's per-cell
    masses must lie in these sets.
    """
    if p.space.num_cells > _BRUTE_CAP:
        raise InvalidDistribution("brute force enumeration is desk-scale only")
    p.require_positive_labels("source")
    q_marginal = np.asarray(q_marginal, dtype=np.float64)
    q_marginal = q_marginal / q_marginal.sum()
    p_h = p.feature_marginal()
    p_f_label = aggregate(p.mass, f)
    live = np.nonzero(p_h > 0.0)[0]
    order, bounds = group(f.cell_of[live], f.num_cells)
    live = live[order]
    cells = []
    for n in range(f.num_cells):
        members = live[bounds[n]:bounds[n + 1]]
        labels = np.nonzero(p_f_label[n] > 0.0)[0]
        if members.size == 0 or labels.size == 0:
            cells.append(CellSolutionSet(n, labels, np.zeros((0, labels.size)),
                                         np.zeros(0), np.zeros((1, labels.size)), True))
            continue
        post = p.mass[np.ix_(members, labels)] / p_h[members, None]
        A = post / p_f_label[n, labels][None, :]
        b = q_marginal[members] / p_h[members]
        s = np.linalg.svd(A, compute_uv=False)
        thresh = s[0] * max(A.shape) * 1e-10 if s.size and s[0] > 0 else 0.0
        rank = int(np.sum(s > thresh))
        if rank == labels.size:
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            sol = np.where(np.abs(sol) < _BRUTE_TOL, 0.0, sol)
            vertices = sol[None, :]
            unique = True
        else:
            vertices = _basic_feasible_solutions(A, b, rank)
            unique = len(vertices) == 1
            vertices = np.asarray(vertices) if len(vertices) else np.zeros((0, labels.size))
        cells.append(CellSolutionSet(n, labels, A, b, vertices, unique))
    return BruteForceResult(f, p.num_labels, cells)


def _basic_feasible_solutions(A: np.ndarray, b: np.ndarray, rank: int) -> list:
    """Vertices of {u >= 0 : A u = b} via basic solutions over column subsets."""
    m, k = A.shape
    found = []
    for support in combinations(range(k), rank):
        sub = A[:, support]
        s = np.linalg.svd(sub, compute_uv=False)
        if s.size == 0 or s[-1] <= s[0] * max(sub.shape) * 1e-10:
            continue  # not a basis
        x, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ x - b)) > _BRUTE_TOL * max(1.0, np.abs(b).max()):
            continue  # inconsistent on this basis
        if np.any(x < -_BRUTE_TOL):
            continue
        u = np.zeros(k)
        u[list(support)] = np.maximum(x, 0.0)
        if not any(np.max(np.abs(u - v)) < 1e-9 for v in found):
            found.append(u)
    return found


# -- finite-difference gradient oracle -----------------------------------------


def fd_gradient_check(problem: SeesCProblem, phi: np.ndarray,
                      step: float = 1e-6) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Only coordinates that participate in the objective are compared;
    the step is taken symmetric so ``phi`` must be strictly feasible
    (entries larger than ``step`` wherever perturbed).
    """
    phi = np.asarray(phi, dtype=np.float64)
    grad = problem.gradient(phi)
    worst = 0.0
    for n in range(phi.shape[0]):
        for i in range(phi.shape[1]):
            if not problem.free[n, i]:
                continue
            delta = np.zeros_like(phi)
            delta[n, i] = step
            fd = (problem.objective(phi + delta) - problem.objective(phi - delta)) / (2 * step)
            err = abs(fd - grad[n, i]) / max(1.0, abs(grad[n, i]))
            worst = max(worst, err)
    return worst
