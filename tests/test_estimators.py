import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sjslab import (
    AbsoluteContinuityViolated,
    DegenerateObjective,
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    InvalidDistribution,
    SjslabError,
    aggregate,
    brute_force_fit,
    check_covariate_shift,
    class_conditional,
    fit_from_cell_mass,
    kl_divergence,
    plant_sjs,
    posterior,
    posterior_correct,
    posterior_statistics,
    rank_matrix,
    reconstruct_target,
    sees_c_fit,
    sees_d_fit,
    sees_d_fit_with_classifier,
    sparsity_search,
    train_argmax_classifier,
)
from sjslab import estimators
from sjslab.synthetic import product_distribution
from _support import (
    awkward_draws,
    awkward_instance,
    awkward_planted,
    near_singular_cells,
    random_planted,
    random_source,
)


def assert_fit_invariants(fit, source):
    assert np.all(fit.cell_label_mass >= 0)
    assert fit.cell_label_mass.sum() == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(fit.target_priors, fit.cell_label_mass.sum(axis=0),
                               atol=1e-12)
    cond = aggregate(source.mass, fit.partition) / source.label_masses()
    for i in range(source.num_labels):
        if fit.target_priors[i] > 0:
            assert float(cond[:, i] @ fit.f_ratios[:, i]) == pytest.approx(1.0, abs=1e-8)


@pytest.fixture
def x1(source):
    return FeaturePartition.from_features(source.space, ["X1"])


class TestSeesD:
    def test_recovers_literal_target_priors(self, source, target_literal, x1):
        fit = sees_d_fit(source, target_literal.feature_marginal(), x1)
        np.testing.assert_allclose(fit.target_priors, [0.4, 0.6], atol=1e-12)
        assert fit.residual < 1e-16
        # per-cell ratios for label 1: 1.25 on X1=0 and 5/6 on X1=1
        np.testing.assert_allclose(fit.f_ratios[:, 1], [1.25, 5.0 / 6.0], atol=1e-10)
        assert_fit_invariants(fit, source)

    def test_no_shift_fixed_point(self, source, x1):
        fit = sees_d_fit(source, source.feature_marginal(), x1)
        np.testing.assert_allclose(fit.target_priors, source.label_masses(), atol=1e-12)
        np.testing.assert_allclose(fit.f_ratios, 1.0, atol=1e-10)
        assert fit.residual < 1e-20

    def test_plant_and_recover_exact(self):
        for seed in range(20):
            inst, f = random_planted(seed)
            if not rank_matrix(inst.source, f,
                               posterior_statistics(inst.source)).identifiable:
                continue
            fit = sees_d_fit(inst.source, inst.target.feature_marginal(), f)
            np.testing.assert_allclose(fit.target_priors, inst.planted_priors, atol=1e-8)
            np.testing.assert_allclose(fit.cell_label_mass, inst.planted_cell_mass,
                                       atol=1e-8)
            assert_fit_invariants(fit, inst.source)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_plant_save_load_then_fit(self, tmp_path_factory, seed):
        inst, f = random_planted(seed)
        assume(rank_matrix(inst.source, f, posterior_statistics(inst.source)).identifiable)
        folder = tmp_path_factory.mktemp("planted")
        inst.source.save(folder / "source.json")
        inst.target.save(folder / "target.json")
        source = FiniteJointDistribution.load(folder / "source.json")
        target = FiniteJointDistribution.load(folder / "target.json")
        fit = sees_d_fit(source, target.feature_marginal(), f)
        np.testing.assert_allclose(fit.target_priors, inst.planted_priors, rtol=0, atol=1e-8)

    def test_rejects_a_non_finite_target_marginal(self, source, x1):
        q = np.array([0.25, np.nan, 0.25, 0.5])
        for fit in (sees_d_fit, sees_c_fit):
            with pytest.raises(InvalidDistribution, match="q_marginal nan at cell 1 is not finite"):
                fit(source, q, x1)

    def test_rejects_a_negative_target_marginal(self, source, x1):
        q = np.array([0.25, 0.5, -0.25, 0.5])
        for fit in (sees_d_fit, sees_c_fit):
            with pytest.raises(InvalidDistribution, match=r"q_marginal -0\.25 at cell 2 is negative"):
                fit(source, q, x1)

    def test_fit_from_cell_mass_rebuilds_a_fit(self, source, target_literal, x1):
        fit = sees_d_fit(source, target_literal.feature_marginal(), x1)
        again = fit_from_cell_mass(source, x1, fit.cell_label_mass, fit.residual)
        for name in ("cell_label_mass", "target_priors", "f_ratios"):
            assert getattr(again, name).tobytes() == getattr(fit, name).tobytes()
        assert again.corrected_posterior.values.tobytes() == \
            fit.corrected_posterior.values.tobytes()
        with pytest.raises(InvalidDistribution, match=r"shape \(2, 2\), got \(2, 3\)"):
            fit_from_cell_mass(source, x1, np.ones((2, 3)) / 6)

    def test_marginal_fit_identity(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            p = random_source(rng, [2, 3], 2)
            # perturbed target marginal: generally not an exact shift fit
            q_marg = p.feature_marginal() * rng.uniform(0.6, 1.4, p.space.num_cells)
            q_marg /= q_marg.sum()
            f = FeaturePartition.from_features(p.space, ["X1"])
            fit = sees_d_fit(p, q_marg, f)
            rec = reconstruct_target(p, fit)
            gap = np.abs(rec.feature_marginal() - q_marg).max()
            assert gap <= np.sqrt(fit.residual) + 1e-8

    def test_absolute_continuity_violation_raises(self):
        space = FeatureSpace(["a"], [2])
        p = FiniteJointDistribution(space, 2, np.array([[0.5, 0.5], [0.0, 0.0]]))
        q_marg = np.array([0.5, 0.5])
        with pytest.raises(AbsoluteContinuityViolated):
            sees_d_fit(p, q_marg, FeaturePartition.trivial(space))

    def test_h_prime_must_refine_shift_partition(self, source):
        f12 = FeaturePartition.from_features(source.space, ["X1", "X2"])
        x2 = FeaturePartition.from_features(source.space, ["X2"])
        with pytest.raises(Exception):
            sees_d_fit(source, source.feature_marginal(), f12, h_prime=x2)

    def test_underdetermined_cells_flagged_and_resolved(self):
        # Three labels but only two feature cells per shift cell: every
        # per-cell system has more unknowns than equations.
        rng = np.random.default_rng(8)
        p = random_source(rng, [2, 2], 3)
        f = FeaturePartition.from_features(p.space, ["X1"])
        inst = plant_sjs(p, f, [0.2, 0.5, 0.3], "random", seed=8)
        fit = sees_d_fit(p, inst.target.feature_marginal(), f)
        assert fit.underdetermined
        assert fit.diagnostics["underdetermined_cells"] == [0, 1]
        # The anchored fallback still matches the observed marginal exactly.
        rec = reconstruct_target(p, fit)
        np.testing.assert_allclose(rec.feature_marginal(),
                                   inst.target.feature_marginal(), atol=1e-9)
        assert_fit_invariants(fit, p)

    def test_non_finite_residual_names_the_f_cell(self):
        # A source cell of mass ~1e-301 where the target has ordinary mass makes
        # b = q / p about 1e300, whose squared residual overflows.
        space = FeatureSpace(["X1", "X2"], [2, 3])
        mass = np.full((6, 2), 1.0 / 12)
        mass[4] = 0.5e-301
        p = FiniteJointDistribution(space, 2, mass / mass.sum())
        q = np.full(6, 1.0 / 6)
        with pytest.raises(DegenerateObjective, match="f-cell 1: squared residual"):
            sees_d_fit(p, q, FeaturePartition.from_features(space, ["X1"]))
        ranking = sparsity_search(p, q, ["X1", "X2"], 0.0)
        assert ranking and all(r.fit is None and "f-cell" in r.error for r in ranking)

    def test_subnormal_source_mass_raises_without_a_warning(self):
        # q / p overflows to inf at the cell of mass 1e-320, inside the fit's errstate.
        p, q = subnormal_source()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateObjective, match="f-cell 1: squared residual"):
                sees_d_fit(p, q, FeaturePartition.from_features(p.space, ["A"]))
            ranking = sparsity_search(p, q, ["A", "B"], 0.0)
        assert ranking and all(r.fit is None and "f-cell" in r.error for r in ranking)


def subnormal_source():
    """A 2x3 source with one feature cell at mass 1e-320, and a uniform target."""
    space = FeatureSpace(["A", "B"], [2, 3])
    mass = np.full((6, 2), 1.0 / 12)
    mass[4] = 0.5e-320
    return FiniteJointDistribution(space, 2, mass / mass.sum()), np.full(6, 1.0 / 6)


class TestNnls:
    """The in-house NNLS against ``scipy.optimize.nnls`` as the reference."""

    KINDS = ["full_rank", "rank_deficient", "negative_least_squares", "zero_columns"]

    @staticmethod
    def system(seed, kind, m, k):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, k))
        if kind == "rank_deficient":  # an exact integer product, so the rank is exact
            r = int(rng.integers(1, k)) if k > 1 else 1
            A = (rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, k))).astype(float)
        elif kind == "zero_columns":
            A[:, rng.random(k) < 0.5] = 0.0
        if kind == "negative_least_squares":
            b = A @ rng.uniform(-1.0, 1.0, k)
        else:
            b = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
        return A, b

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS), st.integers(1, 7),
           st.integers(1, 6))
    def test_agrees_with_scipy(self, seed, kind, m, k):
        from scipy.optimize import nnls as reference_nnls

        A, b = self.system(seed, kind, m, k)
        x, rnorm = estimators.nnls(A, b)
        want, want_rnorm = reference_nnls(A, b)
        assert x.shape == (k,) and np.all(x >= 0.0)
        assert abs(rnorm - np.linalg.norm(A @ x - b)) <= 1e-12 * np.linalg.norm(b)
        # Objectives relative to the objective at x = 0.
        assert abs(rnorm ** 2 - want_rnorm ** 2) <= 1e-12 * (b @ b)
        if m >= k and np.linalg.cond(A) < 1e6:
            np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-9 * max(1.0, want.max()))

    def test_solves_a_stack_as_its_systems(self):
        systems = [self.system(seed, kind, 5, 3) for seed in range(10) for kind in self.KINDS]
        x, rnorm = estimators.nnls(np.stack([A for A, _ in systems]),
                                   np.stack([b for _, b in systems]))
        for (A, b), got, got_rnorm in zip(systems, x, rnorm):
            want, want_rnorm = estimators.nnls(A, b)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
            assert got_rnorm == pytest.approx(want_rnorm, rel=1e-12, abs=1e-15)


class TestRankRule:
    def test_rank_report_flags_the_cells_sees_d_finds_underdetermined(self):
        # The two use different matrices and threshold scales (num_labels
        # and max(A.shape)) but must reach the same verdict on every cell.
        # Dropping one feature leaves cells with fewer feature cells than
        # labels on some instances, so rank-deficient cells are tested too.
        flagged = 0
        for seed in range(200):
            inst, f = random_planted(seed)
            p, names = inst.source, inst.source.space.feature_names
            stats = posterior_statistics(p)
            for g in [f] + [FeaturePartition.from_features(p.space, [m for m in names if m != drop])
                            for drop in names]:
                report = rank_matrix(p, g, stats)
                deficient = [n for n in range(g.num_cells) if report.cell_masses[n] > 0.0
                             and report.per_cell_rank[n] < p.num_labels]
                fit = sees_d_fit(p, inst.target.feature_marginal(), g)
                assert fit.diagnostics["underdetermined_cells"] == deficient, (seed, g.feature_subset)
                flagged += bool(deficient)
        assert flagged >= 100


class TestSeesDWithClassifier:
    def test_equals_fit_on_jointly_generated_partition(self, source, target_literal, x1):
        clf = train_argmax_classifier(source)
        direct = sees_d_fit_with_classifier(source, target_literal.feature_marginal(),
                                            x1, x1, clf)
        joined = sees_d_fit(source, target_literal.feature_marginal(), x1,
                            h_prime=x1.join(clf.partition()))
        np.testing.assert_allclose(direct.cell_label_mass, joined.cell_label_mass,
                                   atol=1e-12)
        assert direct.method == "conditional_confusion"

    def test_trivial_partition_is_classical_confusion_matrix(self, source):
        # Prior-shift target; oracle = solving the confusion-matrix system
        # sum_i Q[label i] P[predicted j | label i] = Q[predicted j].
        new_priors = np.array([0.75, 0.25])
        q = FiniteJointDistribution(source.space, 2,
                                    source.mass / source.label_masses() * new_priors)
        clf = train_argmax_classifier(source)
        triv = FeaturePartition.trivial(source.space)
        fit = sees_d_fit_with_classifier(source, q.feature_marginal(), triv, triv, clf)

        cm = np.zeros((2, 2))  # cm[j, i] = P[predicted j | label i]
        for i in range(2):
            cond = class_conditional(source, i)
            for j in range(2):
                cm[j, i] = cond[clf.assignment == j].sum()
        q_pred = np.array([q.feature_marginal()[clf.assignment == j].sum()
                           for j in range(2)])
        oracle = np.linalg.solve(cm, q_pred)
        np.testing.assert_allclose(fit.target_priors, oracle, atol=1e-10)
        np.testing.assert_allclose(fit.target_priors, new_priors, atol=1e-10)

    def test_no_shift_exact(self, source, x1):
        clf = train_argmax_classifier(source)
        fit = sees_d_fit_with_classifier(source, source.feature_marginal(), x1, x1, clf)
        np.testing.assert_allclose(fit.target_priors, source.label_masses(), atol=1e-12)
        assert fit.residual < 1e-20


def planted_on_4096_cells(shifted):
    """Shift on the first ``shifted`` of six 4-valued features, 3 labels:
    4 ** shifted f-cells of 4 ** (6 - shifted) feature cells each."""
    rng = np.random.default_rng(shifted)
    p = random_source(rng, [4] * 6, 3)
    f = FeaturePartition.from_features(p.space, list(p.space.feature_names[:shifted]))
    return plant_sjs(p, f, rng.dirichlet(np.full(3, 5.0)), "random", seed=shifted), f


class TestSeesC:
    def test_no_shift_is_immediately_optimal(self, source, x1):
        fit = sees_c_fit(source, source.feature_marginal(), x1)
        np.testing.assert_allclose(fit.target_priors, source.label_masses(), atol=1e-9)
        assert fit.residual < 1e-12
        assert fit.diagnostics["converged"]
        assert fit.diagnostics["iterations"] == 1

    def test_matches_linear_solution_on_literal_target(self, source, target_literal, x1):
        fit = sees_c_fit(source, target_literal.feature_marginal(), x1)
        np.testing.assert_allclose(fit.target_priors, [0.4, 0.6], atol=1e-3)
        assert fit.residual < 1e-10
        assert_fit_invariants(fit, source)

    def test_objective_monotone_and_constraint_tight(self, source, target_literal, x1):
        fit = sees_c_fit(source, target_literal.feature_marginal(), x1)
        hist = fit.diagnostics["objective_history"]
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert max(fit.diagnostics["constraint_errors"]) <= 1e-10

    def test_positive_divergence_on_unshiftable_marginal(self, source, x1):
        # A marginal no X1-shift model can match: compare against the KL of
        # the best linear-system fit, evaluated independently.
        rng = np.random.default_rng(4)
        q_marg = source.feature_marginal() * rng.uniform(0.5, 1.8, source.space.num_cells)
        q_marg /= q_marg.sum()
        fit = sees_c_fit(source, q_marg, x1)
        assert fit.residual > 1e-4
        fit_d = sees_d_fit(source, q_marg, x1)
        candidate = reconstruct_target(source, fit_d).feature_marginal()
        assert fit.residual <= kl_divergence(q_marg, candidate) + 1e-9

    def test_zero_phi_has_no_objective_and_no_gradient(self, source, target_literal, x1):
        problem = estimators.SeesCProblem(source, target_literal.feature_marginal(), x1)
        zero = np.zeros_like(problem.initial_phi())
        assert problem.objective(zero) == -np.inf
        with pytest.raises(DegenerateObjective, match="implied density vanishes"):
            problem.gradient(zero)

    @pytest.mark.parametrize("shifted", [4, 5])
    def test_newton_steps_converge_quadratically_on_4096_cells(self, shifted):
        inst, f = planted_on_4096_cells(shifted)
        fit = sees_c_fit(inst.source, inst.target.feature_marginal(), f)
        assert fit.diagnostics["converged"] and fit.diagnostics["polish_steps"] <= 6
        np.testing.assert_allclose(fit.target_priors, inst.planted_priors, atol=1e-10)

    def test_stops_when_a_tolerance_below_rounding_cannot_be_met(self):
        inst, f = planted_on_4096_cells(4)
        fit = sees_c_fit(inst.source, inst.target.feature_marginal(), f, tol=0.0)
        diag = fit.diagnostics
        assert diag["iterations"] <= 30
        assert diag["converged"] == (diag["kkt_residual"] == 0.0)

    def test_subnormal_source_mass_gives_a_finite_divergence(self):
        p, q = subnormal_source()
        f = FeaturePartition.from_features(p.space, ["A"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sees_c_fit(p, q, f)
        assert fit.diagnostics["converged"]
        # Both labels have one feature law within each f-cell, so a fit can only rescale
        # an f-cell: the optimum is p_h * Q(F_n) / P(F_n).  Its divergence, from logs:
        p_h, cells = p.feature_marginal(), f.cell_of
        log_fitted = np.log(p_h) + np.log(aggregate(q, f) / aggregate(p_h, f))[cells]
        kl = float(np.sum(q * (np.log(q) - log_fitted)))
        assert kl > 100.0 and fit.residual == pytest.approx(kl, rel=1e-12)

    def test_plant_and_recover_within_tolerance(self):
        for seed in (3, 11, 27):
            inst, f = random_planted(seed)
            if not rank_matrix(inst.source, f,
                               posterior_statistics(inst.source)).identifiable:
                continue
            fit = sees_c_fit(inst.source, inst.target.feature_marginal(), f)
            np.testing.assert_allclose(fit.target_priors, inst.planted_priors, atol=1e-3)


def awkward_instances(margins=True):
    """Seeds of :func:`_support.awkward_instance`: zero cells and (cell, label)
    pairs, labels absent from f-cells and nearly collinear columns."""
    return (st.integers(0, 2 ** 32 - 1)
            .map(lambda seed: awkward_instance(np.random.default_rng(seed), margins))
            .filter(lambda instance: instance is not None))


def assert_sees_c_converged(p, f, q):
    fit = sees_c_fit(p, q, f)
    diag = fit.diagnostics
    assert diag["converged"] and diag["kkt_residual"] <= 1e-10
    assert np.abs(fit.cell_label_mass.sum(axis=1) - aggregate(q, f)).max() <= 1e-12
    hist = diag["objective_history"]
    assert all(b >= a for a, b in zip(hist, hist[1:]))
    assert max(diag["constraint_errors"]) <= 1e-10


class TestSeesCProperties:
    @settings(max_examples=100, deadline=None)
    @given(awkward_instances())
    def test_converges_with_each_f_cell_at_its_target_mass(self, instance):
        assert_sees_c_converged(*instance)

    def test_converges_on_three_hundred_seeded_sources(self):
        # A fixed sweep beside the search: the ratio test's guards decide
        # convergence on 5 of these sources, too few for 100 random examples.
        for seed in range(300):
            instance = awkward_instance(np.random.default_rng(seed))
            if instance is not None:
                assert_sees_c_converged(*instance)

    @settings(max_examples=100, deadline=None)
    @given(awkward_instances(margins=False))
    def test_equals_sees_d_on_exact_identifiable_instances(self, instance):
        # The gap follows the KKT residual times the cells' conditioning: at
        # the default tol it reaches 1.5e-8 on these sources, so the fit is
        # driven to 1e-12, on cells at least 1e-3 from losing rank.
        p, f, q = instance
        report = rank_matrix(p, f, posterior_statistics(p))
        assume(report.identifiable)
        assume(all(s[-1] >= 1e-3 * s[0]
                   for s, mass in zip(report.singular_values, report.cell_masses) if mass > 0))
        fit_c = sees_c_fit(p, q, f, tol=1e-12)
        assert fit_c.diagnostics["converged"]
        gap = np.abs(fit_c.target_priors - sees_d_fit(p, q, f).target_priors).max()
        assert gap <= 1e-9


def fit_outcome(p, q, f, h_prime):
    try:
        return sees_d_fit(p, q, f, h_prime)
    except SjslabError as exc:
        return exc


class TestFeatureCellEquations:
    @settings(max_examples=150, deadline=None)
    @given(awkward_draws(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_default_equations_are_those_of_the_full_partition(self, built, seed, reweight):
        # h_prime=None fits on the feature cells themselves, bit for bit as on
        # FeaturePartition.full; a reweighted target leaves residuals and NNLS cells.
        p, f, inst = built
        q = inst.target.feature_marginal()
        if reweight:
            q = q * np.random.default_rng(seed).uniform(0.5, 2.0, q.size)
            q = q / q.sum()
        got = fit_outcome(p, q, f, None)
        want = fit_outcome(p, q, f, FeaturePartition.full(p.space))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        for name in ("cell_label_mass", "target_priors", "f_ratios"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
        assert got.diagnostics["underdetermined_cells"] == want.diagnostics["underdetermined_cells"]
        assert np.array(got.diagnostics["per_cell_residual"]).tobytes() == \
            np.array(want.diagnostics["per_cell_residual"]).tobytes()
        assert got.corrected_posterior.values.tobytes() == \
            want.corrected_posterior.values.tobytes()
        assert got.corrected_posterior.defined.tobytes() == \
            want.corrected_posterior.defined.tobytes()


class TestIdentifiabilityProperty:
    @settings(max_examples=150, deadline=None)
    @given(awkward_instances(margins=False))
    def test_rank_sees_d_and_brute_force_agree(self, instance):
        # Property (iii): identifiable by rank, iff SEES-d finds no underdetermined
        # cell, iff the exact system has a single solution.
        p, f, q = instance
        assume(not near_singular_cells(p, f))
        identifiable = rank_matrix(p, f, posterior_statistics(p)).identifiable
        determined = not sees_d_fit(p, q, f).diagnostics["underdetermined_cells"]
        assert identifiable == determined == brute_force_fit(p, q, f).is_singleton


class TestPosteriorCorrect:
    def test_unit_ratios_return_source_posterior(self, source, x1):
        same = posterior(source, x1)
        corrected = posterior_correct(source, (same, same))
        np.testing.assert_allclose(
            corrected.values, posterior(source, FeaturePartition.full(source.space)).values,
            atol=1e-15)

    def test_marginal_shift_target_keeps_posterior(self, source, target_marginal_shift, x1):
        corrected = posterior_correct(source, (posterior(target_marginal_shift, x1),
                                               posterior(source, x1)))
        src_post = posterior(source, FeaturePartition.full(source.space))
        assert np.abs(corrected.values - src_post.values).max() < 1e-12

    def test_prior_shift_correction_matches_direct_bayes(self, source):
        new_priors = np.array([0.15, 0.85])
        q = FiniteJointDistribution(source.space, 2,
                                    source.mass / source.label_masses() * new_priors)
        triv = FeaturePartition.trivial(source.space)
        corrected = posterior_correct(source, (posterior(q, triv), posterior(source, triv)))
        direct = posterior(q, FeaturePartition.full(source.space))
        np.testing.assert_allclose(corrected.values, direct.values, atol=1e-12)

    def test_true_ratios_reproduce_true_posterior(self):
        for seed in range(15):
            inst, f = random_planted(seed)
            corrected = posterior_correct(inst.source,
                                          (posterior(inst.target, f),
                                           posterior(inst.source, f)))
            truth = posterior(inst.target, FeaturePartition.full(inst.source.space))
            both = corrected.defined & truth.defined
            gap = np.abs(corrected.values[both] - truth.values[both]).max()
            assert gap < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_corrects_to_the_target_posterior_on_identifiable_instances(self, seed):
        # Property (ii), on awkward sources: zero cells and pairs, absent labels.
        built = awkward_planted(np.random.default_rng(seed), margins=False)
        assume(built is not None)
        p, f, inst = built
        assume(rank_matrix(p, f, posterior_statistics(p)).identifiable)
        got = posterior_correct(p, sees_d_fit(p, inst.target.feature_marginal(), f))
        truth = inst.target.full_posterior
        np.testing.assert_array_equal(got.defined, truth.defined)
        assert np.abs(got.values - truth.values).max() <= 1e-9

    @pytest.mark.parametrize("fit_with", [sees_d_fit, sees_c_fit])
    def test_fit_route_returns_the_fits_posterior(self, fit_with):
        for seed in range(10):
            inst, f = random_planted(seed)
            fit = fit_with(inst.source, inst.target.feature_marginal(), f)
            got = posterior_correct(inst.source, fit)
            assert got.values.tobytes() == fit.corrected_posterior.values.tobytes()
            assert got.defined.tobytes() == fit.corrected_posterior.defined.tobytes()

    def test_fit_route_reads_the_fit_and_rebuilds_nothing(self, source, target_literal, x1):
        q = target_literal.feature_marginal()
        clf = train_argmax_classifier(source)
        for fit in (sees_d_fit(source, q, x1), sees_c_fit(source, q, x1),
                    sees_d_fit_with_classifier(source, q, x1, x1, clf)):
            assert posterior_correct(source, fit) is fit.corrected_posterior

    def test_fit_route_matches_table_route(self, source, target_literal, x1):
        fit = sees_d_fit(source, target_literal.feature_marginal(), x1)
        via_fit = posterior_correct(source, fit)
        via_tables = posterior_correct(source, (posterior(target_literal, x1),
                                                posterior(source, x1)))
        np.testing.assert_allclose(via_fit.values, via_tables.values, atol=1e-9)


class TestReconstructTarget:
    def test_identity(self, source, x1):
        fit = sees_d_fit(source, source.feature_marginal(), x1)
        rec = reconstruct_target(source, fit)
        np.testing.assert_allclose(rec.mass, source.mass, atol=1e-12)

    def test_literal_target_reconstructed(self, source, target_literal, x1):
        fit = sees_d_fit(source, target_literal.feature_marginal(), x1)
        rec = reconstruct_target(source, fit)
        np.testing.assert_allclose(rec.mass, target_literal.mass, atol=1e-8)

    def test_planted_targets_reconstructed(self):
        for seed in (0, 5, 9):
            inst, f = random_planted(seed)
            if not rank_matrix(inst.source, f,
                               posterior_statistics(inst.source)).identifiable:
                continue
            fit = sees_d_fit(inst.source, inst.target.feature_marginal(), f)
            rec = reconstruct_target(inst.source, fit)
            np.testing.assert_allclose(rec.mass, inst.target.mass, atol=1e-8)


class TestArgmaxClassifier:
    def test_separable_source_has_zero_error(self):
        space = FeatureSpace(["a"], [2])
        dist = FiniteJointDistribution(space, 2, np.array([[0.4, 0.0], [0.0, 0.6]]))
        clf = train_argmax_classifier(dist)
        assert clf.assignment.tolist() == [0, 1]

    def test_example_cell_prediction(self, source):
        # P[label 1 | X1=1, X2=0] = 0.24 / (0.24 + 0.08) = 0.75
        clf = train_argmax_classifier(source)
        assert clf.assignment[source.space.index_of((1, 0))] == 1

    def test_tie_breaks_to_lowest_label(self):
        space = FeatureSpace(["a"], [2])
        dist = FiniteJointDistribution(space, 2, np.array([[0.25, 0.25], [0.2, 0.3]]))
        clf = train_argmax_classifier(dist)
        assert clf.assignment[0] == 0


class TestSparsitySearch:
    def test_recovers_planted_feature(self):
        rng = np.random.default_rng(31)
        p = random_source(rng, [2, 2, 2], 2)
        f = FeaturePartition.from_features(p.space, ["X1"])
        inst = plant_sjs(p, f, [0.3, 0.7], "random", seed=31)
        results = sparsity_search(p, inst.target.feature_marginal(),
                                  list(p.space.feature_names), penalty=1e-6)
        top = results[0]
        assert "X1" in top.features
        supersets = [r for r in results if set(r.features) >= {"X1"}]
        assert all(r.objective < 1e-10 for r in supersets)

    def test_fit_errors_are_recorded_and_bugs_propagate(self, source, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular cell")

        monkeypatch.setattr(estimators, "sees_d_fit", singular)
        results = sparsity_search(source, source.feature_marginal(), ["X1", "X2"], 0.0)
        assert results and all(r.fit is None and r.error == "singular cell" for r in results)

        def broken(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr(estimators, "sees_d_fit", broken)
        with pytest.raises(TypeError, match="a bug"):
            sparsity_search(source, source.feature_marginal(), ["X1", "X2"], 0.0)

    def test_no_shift_prefers_smallest_subset(self, source):
        results = sparsity_search(source, source.feature_marginal(),
                                  ["X1", "X2"], penalty=0.01)
        assert results[0].features == ()
        assert results[0].objective < 1e-16

    def test_full_set_always_fits_exactly(self, source):
        # A covariate-shift-only target: posteriors preserved, feature
        # marginal reweighted so sharply towards one cell that no
        # proper-subset model can match it non-negatively.  Shift on the
        # full feature set always fits any marginal exactly.
        q_marg = np.array([0.05, 0.05, 0.05, 0.85])
        post = posterior(source, FeaturePartition.full(source.space)).values
        cov_target = FiniteJointDistribution(source.space, 2, post * q_marg[:, None])
        assert check_covariate_shift(source, cov_target,
                                     FeaturePartition.full(source.space)).holds
        results = sparsity_search(source, cov_target.feature_marginal(),
                                  ["X1", "X2"], penalty=1e-9)
        by_features = {r.features: r for r in results}
        assert by_features[("X1", "X2")].objective < 1e-12
        proper = [r for r in results if len(r.features) < 2]
        assert proper and all(r.objective > 1.0 for r in proper)

    def test_any_marginal_fits_on_full_set(self, source):
        rng = np.random.default_rng(13)
        full = FeaturePartition.full(source.space)
        for _ in range(20):
            q_marg = rng.dirichlet(np.ones(source.space.num_cells))
            fit = sees_d_fit(source, q_marg, full)
            assert fit.residual < 1e-12
