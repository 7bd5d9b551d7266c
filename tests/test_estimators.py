import numpy as np
import pytest

from sjslab import (
    AbsoluteContinuityViolated,
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    NotConverged,
    OptimizerOptions,
    aggregate,
    check_covariate_shift,
    class_conditional,
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
from sjslab.synthetic import product_distribution
from _support import random_planted, random_source


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

    def test_strict_mode_raises_not_converged(self, source, target_literal, x1):
        opts = OptimizerOptions(tol=0.0, max_iter=2, strict=True)
        with pytest.raises(NotConverged) as info:
            sees_c_fit(source, target_literal.feature_marginal(), x1, opts)
        assert info.value.fit is not None

    def test_plant_and_recover_within_tolerance(self):
        for seed in (3, 11, 27):
            inst, f = random_planted(seed)
            if not rank_matrix(inst.source, f,
                               posterior_statistics(inst.source)).identifiable:
                continue
            fit = sees_c_fit(inst.source, inst.target.feature_marginal(), f)
            np.testing.assert_allclose(fit.target_priors, inst.planted_priors, atol=1e-3)


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
        assert clf.source_error(dist) == pytest.approx(0.0, abs=1e-15)

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
