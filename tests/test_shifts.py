import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjslab import (
    AbsoluteContinuityViolated,
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    InvalidDistribution,
    aggregate,
    binary_variance_criterion,
    brute_force_fit,
    check_cdi,
    check_covariate_shift,
    check_prior_shift,
    check_sjs,
    check_sufficiency,
    check_triangle,
    classifier_statistics,
    plant_sjs,
    posterior,
    posterior_statistics,
    rank_matrix,
    sees_d_fit,
    train_argmax_classifier,
    verify_total_expectation,
)
from sjslab.shifts import _within
from sjslab.synthetic import cdi_not_sjs_tables, product_distribution
from _support import (
    awkward_draws,
    awkward_source,
    random_planted,
    random_source,
    reference_ratio,
    sufficient_source,
)


def prior_shift_of(source, new_priors):
    mass = source.mass / source.label_masses() * np.asarray(new_priors)
    return FiniteJointDistribution(source.space, source.num_labels, mass)


@pytest.fixture
def x1(source):
    return FeaturePartition.from_features(source.space, ["X1"])


@pytest.fixture
def full(source):
    return FeaturePartition.full(source.space)


class TestCheckSjs:
    def test_literal_target_is_x1_shift(self, source, target_literal, x1):
        verdict = check_sjs(source, target_literal, x1)
        assert verdict.holds
        assert verdict.max_violation < 1e-12

    def test_literal_target_is_not_prior_shift(self, source, target_literal):
        verdict = check_sjs(source, target_literal, FeaturePartition.trivial(source.space))
        assert not verdict.holds
        assert verdict.max_violation > 0.01

    def test_no_shift_holds_with_zero_violation(self, source, x1):
        verdict = check_sjs(source, source, x1)
        assert verdict.holds and verdict.max_violation == 0.0

    def test_witness_points_at_worst_entry(self, source, target_literal):
        verdict = check_sjs(source, target_literal, FeaturePartition.trivial(source.space))
        f_cell, h_cell, label = verdict.witness
        assert f_cell == 0 and 0 <= h_cell < 4 and label in (0, 1)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_within_matches_the_two_ratios_it_replaced(num_labels, data):
    # Feature cells of 1-3 f-cells (an empty one included) and their f-cell sums,
    # with +0.0, -0.0 and subnormal entries; 1-D as check_cdi has them, 2-D as check_sjs.
    cell_of = np.array(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=8)))
    shape = cell_of.shape if num_labels == 1 else cell_of.shape + (num_labels,)
    tables = st.lists(_ENTRIES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    q_x, p_x = (np.array(data.draw(tables)).reshape(shape) for _ in range(2))
    f_sums = [np.zeros((3,) + shape[1:]) for _ in range(2)]
    for table, sums in zip((q_x, p_x), f_sums):
        np.add.at(sums, cell_of, table)
    q_f, p_f = (sums[cell_of] for sums in f_sums)
    active = (p_f > 0.0) & (q_f > 0.0)
    want = np.where(active, np.abs(reference_ratio(q_x, q_f) - reference_ratio(p_x, p_f)), 0.0)
    assert _within(q_x, q_f, p_x, p_f).tobytes() == want.tobytes()


class TestCheckPriorShift:
    def test_literal_target_fails(self, source, target_literal):
        assert not check_prior_shift(source, target_literal).holds

    def test_synthetic_prior_shift_holds(self, source):
        q = prior_shift_of(source, [0.9, 0.1])
        assert check_prior_shift(source, q).holds

    def test_identity_holds(self, source):
        assert check_prior_shift(source, source).holds


class TestCheckCovariateShift:
    def test_marginal_shift_target_on_x1(self, source, target_marginal_shift, x1):
        verdict = check_covariate_shift(source, target_marginal_shift, x1)
        assert verdict.holds

    def test_marginal_shift_target_on_full_features(self, source, target_marginal_shift, full):
        assert check_covariate_shift(source, target_marginal_shift, full).holds

    def test_squared_posterior_target_fails_on_full(self, full):
        p, q = cdi_not_sjs_tables()
        assert not check_covariate_shift(p, q, full).holds

    def test_literal_target_fails_even_on_x1(self, source, target_literal, x1):
        # The literal target moves the priors to 0.6 while keeping the
        # X1 posterior spread of the source, which is impossible under
        # covariate shift, so the check must fail.
        assert not check_covariate_shift(source, target_literal, x1).holds


class TestCheckCdi:
    def test_squared_posterior_target_keeps_cdi(self, x1):
        p, q = cdi_not_sjs_tables()
        verdict = check_cdi(p, q, x1)
        assert verdict.holds
        assert verdict.details["density_form_max_deviation"] < 1e-12

    def test_identity_holds(self, source, x1):
        assert check_cdi(source, source, x1).holds

    def test_prior_shift_with_informative_features_fails(self, source, x1):
        q = prior_shift_of(source, [0.8, 0.2])
        # Oracle: compare the X2 law within the X1=1 cell directly.
        f_cells = aggregate(q.feature_marginal(), x1)
        qx = q.feature_marginal()
        px = source.feature_marginal()
        p_cells = aggregate(px, x1)
        idx = source.space.index_of((1, 1))
        direct = abs(qx[idx] / f_cells[1] - px[idx] / p_cells[1])
        assert direct > 1e-3
        assert not check_cdi(source, q, x1).holds


class TestCheckSufficiency:
    def test_full_partition_always_sufficient(self, source, full):
        assert check_sufficiency(source, full).holds

    def test_x1_not_sufficient_when_x2_informative(self, source, x1):
        # Oracle: the posterior differs across X2 within an X1 cell.
        post = posterior(source, FeaturePartition.full(source.space)).values[:, 1]
        a = post[source.space.index_of((1, 0))]
        b = post[source.space.index_of((1, 1))]
        assert abs(a - b) > 0.1
        assert not check_sufficiency(source, x1).holds

    def test_x1_sufficient_when_x2_uninformative(self):
        flat = product_distribution(
            [0.5, 0.5],
            [
                [[0.6, 0.4], [0.4, 0.6]],
                [[0.5, 0.5], [0.5, 0.5]],  # X2 carries no label information
            ],
        )
        f = FeaturePartition.from_features(flat.space, ["X1"])
        assert check_sufficiency(flat, f).holds


class TestRankMatrix:
    def test_binary_example_identifiable_via_posteriors(self, source, x1):
        report = rank_matrix(source, x1, posterior_statistics(source))
        assert report.identifiable
        assert report.per_cell_rank == [2, 2]

    def test_posterior_statistics_are_read_only_views_of_the_posterior(self, source):
        values = source.full_posterior.values
        stats = posterior_statistics(source)
        assert stats.shape == (source.num_labels, source.space.num_cells)
        assert not stats.flags.writeable and np.shares_memory(stats, values)
        for i, s in enumerate(stats):
            assert s.tobytes() == values[:, i].tobytes()

    def test_statistics_as_one_table_or_as_its_rows_give_the_same_bytes(self, source, x1):
        clf = classifier_statistics(np.array([0, 1, 1, 0]), 2)
        assert clf.tolist() == [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
        for stats in (posterior_statistics(source), clf):
            table, rows = rank_matrix(source, x1, stats), rank_matrix(source, x1, list(stats))
            assert json.dumps(table.to_json_dict()) == json.dumps(rows.to_json_dict())
            assert (verify_total_expectation(source, x1, stats).hex()
                    == verify_total_expectation(source, x1, list(stats)).hex())

    def test_constant_statistics_rank_one(self, source, x1):
        ones = [np.ones(source.space.num_cells) for _ in range(2)]
        report = rank_matrix(source, x1, ones)
        assert not report.identifiable
        assert all(r == 1 for r in report.per_cell_rank)

    def test_perfect_classifier_gives_identity_matrices(self):
        space = FeatureSpace(["X1"], [2])
        mass = np.array([[0.5, 0.0], [0.0, 0.5]])  # separable: X1 determines label
        dist = FiniteJointDistribution(space, 2, mass)
        stats = classifier_statistics(np.array([0, 1]), 2)
        report = rank_matrix(dist, FeaturePartition.trivial(space), stats)
        assert report.identifiable
        np.testing.assert_allclose(report.per_cell_matrices[0], np.eye(2), atol=1e-15)

    def test_requires_one_statistic_per_label(self, source, x1):
        with pytest.raises(InvalidDistribution):
            rank_matrix(source, x1, [np.ones(source.space.num_cells)])

    def test_a_label_absent_from_a_cell_costs_no_rank(self):
        # Label 2 has no source mass in A=0, so its target mass there is 0: that
        # cell has two unknowns, and rank 2 determines them.
        space = FeatureSpace(["A", "B"], [2, 3])
        f = FeaturePartition.from_features(space, ["A"])
        mass = np.random.default_rng(0).uniform(0.5, 1.5, (6, 3))
        mass[f.cell_of == 0, 2] = 0.0
        p = FiniteJointDistribution(space, 3, mass / mass.sum())
        report = rank_matrix(p, f, posterior_statistics(p))
        assert report.per_cell_rank == [2, 3] and report.identifiable
        inst = plant_sjs(p, f, [0.2, 0.3, 0.5], "random", seed=1)
        q = inst.target.feature_marginal()
        assert sees_d_fit(p, q, f).diagnostics["underdetermined_cells"] == []
        assert brute_force_fit(p, q, f).is_singleton


class TestVerifyTotalExpectation:
    def test_small_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dist = random_source(rng, [3, 4], 3)  # 12 feature cells, 3 labels
            g = FeaturePartition.from_features(dist.space, ["X1"])
            stats = [rng.uniform(0, 2, dist.space.num_cells) for _ in range(3)]
            assert verify_total_expectation(dist, g, stats) < 1e-10

    def test_cell_indicator_statistics(self, source, x1):
        # With indicators of the partition's own cells both sides reduce to
        # the per-cell label probabilities.
        stats = [(x1.cell_of == n).astype(float) for n in range(x1.num_cells)]
        assert verify_total_expectation(source, x1, stats) < 1e-12


class TestBinaryVarianceCriterion:
    def test_holds_when_posterior_varies_within_cells(self, source, x1):
        verdict = binary_variance_criterion(source, x1)
        assert verdict.holds
        assert verdict.max_violation > 0.01

    def test_fails_on_full_partition(self, source, full):
        assert not binary_variance_criterion(source, full).holds

    def test_fails_when_partition_sufficient(self):
        dist, f = sufficient_source(np.random.default_rng(2))
        assert check_sufficiency(dist, f).holds
        assert not binary_variance_criterion(dist, f).holds

    def test_fails_when_the_posterior_is_constant_in_one_cell(self):
        # Both labels have mass in A=0, where the posterior is 1/3 throughout.
        space = FeatureSpace(["A", "B"], [2, 2])
        g = FeaturePartition.from_features(space, ["A"])
        mass = np.array([[0.1, 0.2], [0.05, 0.1], [0.2, 0.1], [0.05, 0.2]])
        p = FiniteJointDistribution(space, 2, mass / mass.sum())
        verdict = binary_variance_criterion(p, g)
        assert not verdict.holds and verdict.witness[0] == 0
        assert verdict.max_violation < 1e-15
        assert not rank_matrix(p, g, posterior_statistics(p)).identifiable

    def test_holds_when_no_cell_holds_both_labels(self):
        space = FeatureSpace(["A"], [2])
        p = FiniteJointDistribution(space, 2, np.array([[0.4, 0.0], [0.0, 0.6]]))
        full = FeaturePartition.full(space)
        verdict = binary_variance_criterion(p, full)
        assert verdict.holds and verdict.max_violation == 0.0 and verdict.witness is None
        json.dumps(verdict.to_json_dict(), allow_nan=False)
        assert rank_matrix(p, full, posterior_statistics(p)).identifiable

    def test_agrees_with_rank_matrix_on_awkward_sources(self):
        # Zero cells, zero (cell, label) pairs and labels absent from cells.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(1000):
            cards = rng.integers(2, 5, int(rng.integers(2, 4))).tolist()
            shifted = int(rng.integers(1, len(cards) + 1))
            built = awkward_source(rng, cards, 2, shifted, *rng.choice([0.0, 0.2, 0.5], 3))
            if built is None:
                continue
            p, g = built
            verdict = binary_variance_criterion(p, g)
            assert verdict.holds == rank_matrix(p, g, posterior_statistics(p)).identifiable
            json.dumps(verdict.to_json_dict(), allow_nan=False)
            checked += 1
        assert checked > 900

    def test_requires_two_labels(self):
        rng = np.random.default_rng(1)
        dist = random_source(rng, [2, 2], 3)
        with pytest.raises(InvalidDistribution):
            binary_variance_criterion(dist, FeaturePartition.trivial(dist.space))


class TestCheckTriangle:
    def test_marginal_shift_target_satisfies_all_three(self, source, target_marginal_shift, x1):
        report = check_triangle(source, target_marginal_shift, x1,
                                posterior_statistics(source))
        assert report.sjs.holds and report.cdi.holds and report.csh.holds
        assert report.rank_full is True
        assert report.implication_violations == ()

    def test_squared_posterior_target(self, x1):
        p, q = cdi_not_sjs_tables()
        report = check_triangle(p, q, x1, posterior_statistics(p))
        assert report.cdi.holds
        assert not report.csh.holds
        assert not report.sjs.holds
        assert report.implication_violations == ()

    def test_identity(self, source, x1):
        report = check_triangle(source, source, x1)
        assert report.sjs.holds and report.cdi.holds and report.csh.holds


class TestStructuralProperties:
    def test_shift_transfers_to_larger_feature_sets(self):
        # Planted shift on a subset must hold on every superset partition.
        violations = 0
        for seed in range(60):
            inst, f = random_planted(seed)
            rng = np.random.default_rng((seed, 99))
            names = list(inst.source.space.feature_names)
            extra = [n for n in names if n not in (f.feature_subset or ())]
            if not extra:
                continue
            add = rng.choice(extra, size=int(rng.integers(1, len(extra) + 1)),
                             replace=False).tolist()
            finer = FeaturePartition.from_features(
                inst.source.space, sorted(set(f.feature_subset) | set(add),
                                          key=names.index))
            if not check_sjs(inst.source, inst.target, finer).holds:
                violations += 1
        assert violations == 0

    def test_shift_equalises_conditional_statistics(self):
        # On shifted pairs, class-conditional conditional expectations of
        # arbitrary non-negative feature statistics agree between source
        # and target (computed directly, not via the checker).
        worst = 0.0
        for seed in range(20):
            inst, f = random_planted(seed)
            p, q = inst.source, inst.target
            rng = np.random.default_rng((seed, 7))
            for _ in range(5):
                stat = rng.uniform(0, 3, p.space.num_cells)
                for i in range(p.num_labels):
                    pn = aggregate(p.mass[:, i] * stat, f)
                    pd = aggregate(p.mass[:, i], f)
                    qn = aggregate(q.mass[:, i] * stat, f)
                    qd = aggregate(q.mass[:, i], f)
                    ok = (pd > 0) & (qd > 0)
                    if ok.any():
                        worst = max(worst, np.max(np.abs(pn[ok] / pd[ok]
                                                         - qn[ok] / qd[ok])))
        assert worst < 1e-10

    def test_sufficient_partition_caps_rank_at_one(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            dist, f = sufficient_source(rng)
            stats = [rng.uniform(0, 2, dist.space.num_cells) for _ in range(2)]
            report = rank_matrix(dist, f, stats)
            pos = report.cell_masses > 0
            assert all(r <= 1 for r, keep in zip(report.per_cell_rank, pos) if keep)

    def test_sufficiency_transfers_to_target(self):
        # Shift on a sufficient partition keeps the features conditionally
        # invariant and keeps the partition sufficient under the target.
        for seed in range(25):
            rng = np.random.default_rng(seed)
            dist, f = sufficient_source(rng)
            priors = rng.dirichlet(np.ones(2) * 4)
            inst = plant_sjs(dist, f, priors, "random", seed=seed)
            assert check_cdi(dist, inst.target, f).max_violation < 1e-10
            assert check_sufficiency(inst.target, f).max_violation < 1e-10

    def test_rank_equivalence_with_variance_criterion(self):
        rng = np.random.default_rng(77)
        for k in range(60):
            if k % 4 == 0:
                dist, g = sufficient_source(rng)
            else:
                dist = random_source(rng, [2, 3], 2)
                g = FeaturePartition.from_features(dist.space, ["X1"])
            by_rank = rank_matrix(dist, g, posterior_statistics(dist)).identifiable
            by_var = binary_variance_criterion(dist, g).holds
            assert by_rank == by_var


class TestPaperProperties:
    @settings(max_examples=100, deadline=None)
    @given(awkward_draws())
    def test_transmission_to_finer_partitions(self, built):
        # Property (i): sparse joint shift on f holds on every partition refining f.
        p, f, inst = built
        names = p.space.feature_names
        finer = [FeaturePartition.from_features(
                     p.space, [n for n in names if n in f.feature_subset or n == extra])
                 for extra in names if extra not in f.feature_subset]
        finer += [f.join(train_argmax_classifier(p).partition()), FeaturePartition.full(p.space)]
        for g in finer:
            verdict = check_sjs(p, inst.target, g)
            assert verdict.holds, (g.describe(), verdict.max_violation)

    @settings(max_examples=150, deadline=None)
    @given(awkward_draws(), st.sampled_from(["f_weight", "feature_weight", "planted"]),
           st.integers(0, 2 ** 32 - 1))
    def test_triangle_implications_hold(self, built, kind, seed):
        # Property (iv): cdi and covariate shift imply sjs, sjs and cdi imply
        # covariate shift at full rank, and sjs and covariate shift imply cdi
        # where the posterior is positive.
        p, f, inst = built
        if kind == "planted":
            q = inst.target
        else:
            rng = np.random.default_rng(seed)
            w = rng.uniform(0.2, 5.0, f.num_cells if kind == "f_weight" else p.space.num_cells)
            mass = p.mass * (w[f.cell_of] if kind == "f_weight" else w)[:, None]
            q = FiniteJointDistribution(p.space, p.num_labels, mass / mass.sum())
        report = check_triangle(p, q, f, posterior_statistics(p))
        assert report.implication_violations == ()


def named_deviation(kind, p, q, f, witness) -> float:
    """The deviation of the entry a verdict's witness names, from the tables directly."""
    n, x, i = witness
    P, Q = aggregate(p.mass, f), aggregate(q.mass, f)
    if kind in ("sjs", "prior_shift"):
        return abs(q.mass[x, i] / Q[n, i] - p.mass[x, i] / P[n, i])
    if kind == "covariate_shift":
        return abs(Q[n, i] / Q.sum(axis=1)[n] - P[n, i] / P.sum(axis=1)[n])
    p_h, q_h = p.feature_marginal(), q.feature_marginal()
    if kind == "cdi":
        return abs(q_h[x] / aggregate(q_h, f)[n] - p_h[x] / aggregate(p_h, f)[n])
    return abs(p.mass[x, i] / p_h[x] - P[n, i] / P.sum(axis=1)[n])  # sufficiency


class TestWitnessRule:
    @settings(max_examples=100, deadline=None)
    @given(awkward_draws(), st.sampled_from(["planted", "feature_weight", "source"]),
           st.sampled_from(["f", "trivial", "full"]), st.integers(0, 2 ** 32 - 1))
    def test_the_witness_names_a_maximum_and_only_a_positive_one(self, built, kind, part,
                                                                 seed):
        # Property: no witness exactly when max_violation is 0; otherwise the
        # named entry's deviation is max_violation.
        p, f, inst = built
        if kind == "planted":
            q = inst.target
        elif kind == "source":
            q = p
        else:
            mass = p.mass * np.random.default_rng(seed).uniform(0.2, 5.0, p.space.num_cells)[:, None]
            q = FiniteJointDistribution(p.space, p.num_labels, mass / mass.sum())
        trivial = FeaturePartition.trivial(p.space)
        g = {"f": f, "trivial": trivial, "full": FeaturePartition.full(p.space)}[part]
        verdicts = [(check_sjs(p, q, g), g), (check_prior_shift(p, q), trivial),
                    (check_covariate_shift(p, q, g), g), (check_cdi(p, q, g), g),
                    (check_sufficiency(p, g), g)]
        for verdict, h in verdicts:
            if verdict.max_violation == 0.0:
                assert verdict.witness is None, verdict.kind
            else:
                named = named_deviation(verdict.kind, p, q, h, verdict.witness)
                assert named == verdict.max_violation, (verdict.kind, verdict.witness)

    def test_continuity_is_checked_before_label_mass(self):
        # The target puts mass where the source has none and has no label-1 mass.
        space = FeatureSpace(["X1"], [2])
        p = FiniteJointDistribution(space, 2, np.array([[0.0, 0.4], [0.3, 0.3]]))
        q = FiniteJointDistribution(space, 2, np.array([[0.6, 0.0], [0.4, 0.0]]))
        full = FeaturePartition.full(space)
        for check in (check_sjs, check_cdi):
            with pytest.raises(AbsoluteContinuityViolated, match="cell 0, label 0"):
                check(p, q, full)
