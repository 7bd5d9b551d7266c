"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1 and 2 pin the two fixed presets to their constructed-by-design
properties.  Criteria 3 to 9 are batch properties over seeded random
instances with frozen tolerances.  Criterion 10 closes the loop through
sampling.
"""

import numpy as np
import pytest

from sjslab import (
    FeaturePartition,
    SeesCProblem,
    binary_variance_criterion,
    brute_force_fit,
    check_cdi,
    check_covariate_shift,
    check_prior_shift,
    check_sjs,
    check_sufficiency,
    empirical_distribution,
    fd_gradient_check,
    plant_sjs,
    posterior,
    posterior_correct,
    posterior_statistics,
    rank_matrix,
    sees_c_fit,
    sees_d_fit,
    verify_total_expectation,
)
from sjslab.datasets import RowTable, schema_for_distribution
from sjslab.datasets import sample_rows
from sjslab.synthetic import cdi_not_sjs_tables, paper_example_tables
from _support import random_planted, random_source, sufficient_source


def report(number, summary):
    print(f"ACCEPTANCE {number}: PASS - {summary}")


@pytest.fixture(scope="module")
def battery():
    """200 identifiable planted instances plus the non-identifiable ones
    met along the way, with both fits precomputed on the identifiable set."""
    identifiable, rest = [], []
    seed = 0
    while len(identifiable) < 200:
        inst, f = random_planted(seed, max_features=4, max_card=4, labels=(2, 3))
        seed += 1
        ok = rank_matrix(inst.source, f,
                         posterior_statistics(inst.source)).identifiable
        fit_d = sees_d_fit(inst.source, inst.target.feature_marginal(), f)
        if ok:
            fit_c = sees_c_fit(inst.source, inst.target.feature_marginal(), f)
            identifiable.append((inst, f, fit_d, fit_c))
        else:
            rest.append((inst, f, fit_d))
    return identifiable, rest


class TestCriterion1FixedExample:
    def test_coexisting_shift_example(self):
        p, q = paper_example_tables()
        f = FeaturePartition.from_features(p.space, ["X1"])

        assert check_sjs(p, q, f).holds
        assert not check_prior_shift(p, q).holds

        csh = check_covariate_shift(p, q, f)
        assert csh.holds
        post_p = posterior(p, f)
        post_q = posterior(q, f)
        # label 1 posterior: 0.6 on the X1=1 cell, 0.4 on the X1=0 cell
        for table in (post_p, post_q):
            assert abs(table.values[1, 1] - 0.6) < 1e-12
            assert abs(table.values[0, 1] - 0.4) < 1e-12

        corrected = posterior_correct(p, (post_q, post_p))
        source_post = posterior(p, FeaturePartition.full(p.space))
        dev = np.abs(corrected.values - source_post.values).max()
        assert dev < 1e-12

        fit = sees_d_fit(p, q.feature_marginal(), f)
        dev_fit = np.abs(fit.corrected_posterior.values - source_post.values).max()
        assert dev_fit < 1e-12
        report(1, "fixed example: shift-on-X1 holds, prior shift fails, covariate "
                  f"shift holds at (0.6, 0.4), corrected posterior dev {dev:.1e}")


class TestCriterion2SquaredPosteriorExample:
    def test_conditional_invariance_without_shift(self):
        p, q = cdi_not_sjs_tables()
        f = FeaturePartition.from_features(p.space, ["X1"])
        full = FeaturePartition.full(p.space)

        assert check_cdi(p, q, f).holds
        assert not check_covariate_shift(p, q, full).holds
        assert binary_variance_criterion(p, f).holds
        assert not check_sjs(p, q, f).holds
        report(2, "squared-posterior example: invariance holds, covariate shift "
                  "fails, and shift-on-X1 fails under the variance criterion")


class TestCriterion3PlantAndRecover:
    def test_two_hundred_identifiable_instances(self, battery):
        identifiable, _ = battery
        assert len(identifiable) == 200
        worst_d = worst_c = worst_gap = 0.0
        for inst, f, fit_d, fit_c in identifiable:
            worst_d = max(worst_d, float(np.abs(fit_d.target_priors
                                                - inst.planted_priors).max()))
            worst_c = max(worst_c, float(np.abs(fit_c.target_priors
                                                - inst.planted_priors).max()))
            worst_gap = max(worst_gap, float(np.abs(fit_d.target_priors
                                                    - fit_c.target_priors).max()))
        assert worst_d < 1e-8
        assert worst_c < 1e-8
        assert worst_gap < 1e-8  # the two strategies agree on exact instances
        report(3, f"200 planted recoveries: linear fit max error {worst_d:.2e} "
                  f"(< 1e-8), likelihood fit {worst_c:.2e} (< 1e-8), "
                  f"agreement gap {worst_gap:.2e} (< 1e-8)")


class TestCriterion4OracleEquivalence:
    def test_fits_lie_in_enumerated_solution_sets(self, battery):
        identifiable, rest = battery
        singletons = 0
        for inst, f, fit_d, _ in identifiable:
            bf = brute_force_fit(inst.source, inst.target.feature_marginal(), f)
            assert bf.contains(fit_d, tol=1e-8)
            assert bf.is_singleton
            np.testing.assert_allclose(bf.unique_solution(), fit_d.cell_label_mass,
                                       atol=1e-10)
            singletons += 1
        for inst, f, fit_d in rest[:50]:
            bf = brute_force_fit(inst.source, inst.target.feature_marginal(), f)
            assert bf.contains(fit_d, tol=1e-8)
        report(4, f"linear fit inside the brute-force feasible set on "
                  f"{singletons + min(len(rest), 50)} instances; all "
                  f"{singletons} identifiable sets are singletons")


class TestCriterion5TotalExpectationIdentity:
    def test_five_hundred_random_triples(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(500):
            d = int(rng.integers(2, 4))
            cards = [int(rng.integers(2, 4)) for _ in range(d)]
            ell = int(rng.integers(2, 4))
            dist = random_source(rng, cards, ell)
            names = list(dist.space.feature_names)
            k = int(rng.integers(0, d + 1))
            subset = sorted(rng.choice(names, size=k, replace=False).tolist())
            g = FeaturePartition.from_features(dist.space, subset)
            stats = [rng.uniform(0.0, 3.0, dist.space.num_cells) for _ in range(ell)]
            worst = max(worst, verify_total_expectation(dist, g, stats))
        assert worst < 1e-10
        report(5, f"total-expectation identity max deviation {worst:.2e} "
                  "over 500 triples (< 1e-10)")


class TestCriterion6RankVarianceEquivalence:
    def test_five_hundred_binary_instances(self):
        rng = np.random.default_rng(77)
        disagreements = 0
        holds = fails = 0
        for k in range(500):
            if k % 4 == 0:
                dist, g = sufficient_source(rng)  # variance exactly zero
            else:
                d = int(rng.integers(2, 4))
                cards = [int(rng.integers(2, 4)) for _ in range(d)]
                dist = random_source(rng, cards, 2)
                kf = int(rng.integers(1, d))
                subset = sorted(rng.choice(list(dist.space.feature_names),
                                           size=kf, replace=False).tolist())
                g = FeaturePartition.from_features(dist.space, subset)
            by_rank = rank_matrix(dist, g, posterior_statistics(dist)).identifiable
            by_var = binary_variance_criterion(dist, g).holds
            if by_rank != by_var:
                disagreements += 1
            holds += by_var
            fails += not by_var
        assert disagreements == 0
        assert holds > 0 and fails > 0
        report(6, f"rank and variance criteria agree on all 500 binary instances "
                  f"({holds} identifiable, {fails} not)")


class TestCriterion7Nestedness:
    def test_five_hundred_refinement_pairs(self):
        violations = 0
        checked = 0
        seed = 0
        while checked < 500:
            inst, f = random_planted(seed, max_features=4, max_card=3)
            seed += 1
            names = list(inst.source.space.feature_names)
            extra = [n for n in names if n not in f.feature_subset]
            if not extra:
                continue
            rng = np.random.default_rng((seed, 5))
            add = rng.choice(extra, size=int(rng.integers(1, len(extra) + 1)),
                             replace=False).tolist()
            finer = FeaturePartition.from_features(
                inst.source.space,
                sorted(set(f.feature_subset) | set(add), key=names.index))
            checked += 1
            if not check_sjs(inst.source, inst.target, finer).holds:
                violations += 1
        assert violations == 0
        report(7, "planted shift held on all 500 enlarged feature sets")


class TestCriterion8SufficiencyTransfer:
    def test_one_hundred_sufficient_instances(self):
        worst_cdi = worst_suff = 0.0
        for seed in range(100):
            rng = np.random.default_rng((seed, 8))
            dist, f = sufficient_source(rng)
            priors = rng.dirichlet(np.ones(2) * 4)
            inst = plant_sjs(dist, f, priors, "random", seed=seed)
            worst_cdi = max(worst_cdi,
                            check_cdi(dist, inst.target, f).max_violation)
            worst_suff = max(worst_suff,
                             check_sufficiency(inst.target, f).max_violation)
        assert worst_cdi < 1e-10
        assert worst_suff < 1e-10
        report(8, f"sufficiency transfer on 100 instances: invariance dev "
                  f"{worst_cdi:.2e}, target sufficiency dev {worst_suff:.2e} (< 1e-10)")


class TestCriterion9OptimizerNumerics:
    def test_gradient_monotonicity_and_constraint(self, battery):
        identifiable, _ = battery
        rng = np.random.default_rng(99)
        worst_grad = 0.0
        for inst, f, _, _ in identifiable[:20]:
            problem = SeesCProblem(inst.source, inst.target.feature_marginal(), f)
            phi = problem.initial_phi() * rng.uniform(0.7, 1.3,
                                                      problem.initial_phi().shape)
            phi[~problem.free] = 0.0
            phi /= problem.constraint(phi)
            worst_grad = max(worst_grad, fd_gradient_check(problem, phi))
        assert worst_grad < 1e-5

        worst_constraint = 0.0
        for inst, f, _, fit_c in identifiable:
            hist = fit_c.diagnostics["objective_history"]
            assert all(b >= a for a, b in zip(hist, hist[1:]))
            worst_constraint = max(worst_constraint,
                                   max(fit_c.diagnostics["constraint_errors"]))
        assert worst_constraint <= 1e-10
        report(9, f"gradient check max rel error {worst_grad:.2e} (< 1e-5); "
                  f"objectives monotone; constraint error {worst_constraint:.2e} "
                  "(<= 1e-10)")


class TestCriterion10SamplingSanity:
    def test_hundred_thousand_samples(self):
        # A comfortably identifiable instance: the fixed example source with
        # planted priors (0.35, 0.65).  Nearly singular instances would test
        # noise amplification, not sampling consistency.
        source, _ = paper_example_tables()
        f = FeaturePartition.from_features(source.space, ["X1"])
        inst = plant_sjs(source, f, [0.35, 0.65], "random", seed=7)

        schema = schema_for_distribution(source)
        feats_s, labels_s = sample_rows(source, 100_000, seed=42)
        emp_source = empirical_distribution(RowTable(schema, feats_s, labels_s))
        feats_t, _ = sample_rows(inst.target, 100_000, seed=43, labelled=False)
        emp_target = empirical_distribution(
            RowTable(schema_for_distribution(source, labelled=False), feats_t))

        err_d = float(np.abs(sees_d_fit(emp_source, emp_target, f).target_priors
                             - inst.planted_priors).max())
        err_c = float(np.abs(sees_c_fit(emp_source, emp_target, f).target_priors
                             - inst.planted_priors).max())
        assert err_d < 0.02
        assert err_c < 0.02
        report(10, f"priors from 1e5 sampled rows within {max(err_d, err_c):.3f} "
                   "of planted (< 0.02)")
