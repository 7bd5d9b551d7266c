import numpy as np
import pytest

from sjslab import (
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    InfeasibleRatios,
    brute_force_fit,
    check_prior_shift,
    check_sjs,
    fd_gradient_check,
    plant_sjs,
    posterior_statistics,
    rank_matrix,
    sees_c_fit,
    sees_c_problem,
    sees_d_fit,
)
from _support import random_planted, random_source


@pytest.fixture
def x1(source):
    return FeaturePartition.from_features(source.space, ["X1"])


class TestPlantSjs:
    def test_identity_plant(self, source, x1):
        inst = plant_sjs(source, x1, source.label_masses(),
                         np.ones((2, 2)))
        np.testing.assert_allclose(inst.target.mass, source.mass, atol=1e-15)

    def test_reconstructs_literal_target_from_its_ratios(self, source, target_literal, x1):
        # ratios indexed (cell = X1 value, label): label 0 is 5/6 then 1.25,
        # label 1 the transpose.
        ratios = np.array([[5.0 / 6.0, 1.25], [1.25, 5.0 / 6.0]])
        inst = plant_sjs(source, x1, [0.4, 0.6], ratios)
        np.testing.assert_allclose(inst.target.mass, target_literal.mass, atol=1e-15)

    def test_prior_shift_plant(self, source):
        triv = FeaturePartition.trivial(source.space)
        inst = plant_sjs(source, triv, [0.9, 0.1], np.ones((1, 2)))
        assert check_prior_shift(source, inst.target).holds
        np.testing.assert_allclose(inst.target.label_masses(), [0.9, 0.1], atol=1e-12)

    def test_planted_instances_satisfy_shift_exactly(self):
        for seed in range(40):
            inst, f = random_planted(seed)
            verdict = check_sjs(inst.source, inst.target, f)
            assert verdict.holds and verdict.max_violation < 1e-12
            np.testing.assert_allclose(inst.target.label_masses(),
                                       inst.planted_priors, atol=1e-12)

    def test_infeasible_ratios_rejected(self):
        space = FeatureSpace(["a"], [2])
        # label 1 lives entirely in cell 0; ratios supported on cell 1 only
        p = FiniteJointDistribution(space, 2, np.array([[0.3, 0.5], [0.2, 0.0]]))
        f = FeaturePartition.full(space)
        with pytest.raises(InfeasibleRatios):
            plant_sjs(p, f, [0.5, 0.5], np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_seeded_random_ratios_are_deterministic(self, source, x1):
        a = plant_sjs(source, x1, [0.3, 0.7], "random", seed=5)
        b = plant_sjs(source, x1, [0.3, 0.7], "random", seed=5)
        np.testing.assert_array_equal(a.target.mass, b.target.mass)


class TestBruteForce:
    def test_identifiable_instances_have_singleton_sets(self):
        checked = 0
        for seed in range(25):
            inst, f = random_planted(seed, max_features=3, max_card=3)
            if not rank_matrix(inst.source, f,
                               posterior_statistics(inst.source)).identifiable:
                continue
            checked += 1
            bf = brute_force_fit(inst.source, inst.target.feature_marginal(), f)
            assert bf.is_singleton
            fit = sees_d_fit(inst.source, inst.target.feature_marginal(), f)
            np.testing.assert_allclose(bf.unique_solution(), fit.cell_label_mass,
                                       atol=1e-10)
            assert bf.contains(fit, tol=1e-10)
        assert checked >= 10

    def test_contains_planted_truth_always(self):
        for seed in range(25):
            inst, f = random_planted(seed, max_features=3, max_card=3)
            bf = brute_force_fit(inst.source, inst.target.feature_marginal(), f)
            fit = sees_d_fit(inst.source, inst.target.feature_marginal(), f)
            assert bf.contains(fit)

    def test_full_partition_solution_set_is_nontrivial(self, source):
        # One equation per cell against several labels: every prior vector
        # consistent with the marginal stays feasible.
        full = FeaturePartition.full(source.space)
        bf = brute_force_fit(source, source.feature_marginal(), full)
        assert not bf.is_singleton
        assert all(len(c.vertices) >= 2 for c in bf.cells)

    def test_no_shift_contains_identity_fit(self, source, x1):
        bf = brute_force_fit(source, source.feature_marginal(), x1)
        fit = sees_d_fit(source, source.feature_marginal(), x1)
        assert bf.contains(fit)


class TestGradientOracle:
    def test_random_feasible_points(self):
        rng = np.random.default_rng(14)
        for seed in (2, 6, 10):
            inst, f = random_planted(seed, max_features=3, max_card=3)
            problem = sees_c_problem(inst.source, inst.target.feature_marginal(), f)
            phi = problem.initial_phi()
            phi = phi * rng.uniform(0.7, 1.3, phi.shape)
            phi[~problem.free] = 0.0
            phi /= problem.constraint(phi)
            assert fd_gradient_check(problem, phi) < 1e-5

    def test_kkt_residual_vanishes_at_optimum(self, source, target_literal, x1):
        fit = sees_c_fit(source, target_literal.feature_marginal(), x1)
        assert fit.diagnostics["kkt_residual"] <= 1e-10

    def test_gradient_zero_on_target_null_cells(self, source, x1):
        # Mass the target marginal away from X1=0: those cells contribute
        # nothing to the likelihood, so their gradient entries vanish.
        q_marg = source.feature_marginal().copy()
        q_marg[source.space.all_coords()[:, 0] == 0] = 0.0
        q_marg /= q_marg.sum()
        problem = sees_c_problem(source, q_marg, x1)
        grad = problem.gradient(problem.initial_phi())
        np.testing.assert_array_equal(grad[0], [0.0, 0.0])  # cell X1=0
        assert np.any(grad[1] > 0)
