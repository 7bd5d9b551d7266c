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
    ZeroLabelMass,
    aggregate,
    class_conditional,
    class_conditional_density,
    full_importance_weight,
    kl_divergence,
    marginal_density,
    posterior,
)
from sjslab.distribution import density_ratio, ratio
from _support import (
    random_source,
    reference_continuity_error,
    reference_from_json_dict,
    reference_ratio,
    reference_table_json,
)


def uniform_two_by_two():
    space = FeatureSpace(["a"], [2])
    return FiniteJointDistribution(space, 2, np.full((2, 2), 0.25))


class TestConstruction:
    def test_mass_must_sum_to_one(self):
        space = FeatureSpace(["a"], [2])
        with pytest.raises(InvalidDistribution):
            FiniteJointDistribution(space, 2, np.full((2, 2), 0.3))

    def test_mass_must_be_non_negative(self):
        space = FeatureSpace(["a"], [2])
        mass = np.array([[0.6, 0.5], [-0.1, 0.0]])
        with pytest.raises(InvalidDistribution):
            FiniteJointDistribution(space, 2, mass)

    def test_needs_two_labels(self):
        space = FeatureSpace(["a"], [2])
        with pytest.raises(InvalidDistribution):
            FiniteJointDistribution(space, 1, np.array([[0.5], [0.5]]))

    def test_mass_must_be_finite(self):
        space = FeatureSpace(["a"], [2])
        with pytest.raises(InvalidDistribution, match="mass nan at cell 0, label 1 is not finite"):
            FiniteJointDistribution(space, 2, [[0.5, np.nan], [0.25, 0.25]])
        with pytest.raises(InvalidDistribution, match="mass inf at cell 1, label 0"):
            FiniteJointDistribution(space, 2, [[0.5, 0.0], [np.inf, 0.25]])

    def test_positive_label_requirement(self):
        space = FeatureSpace(["a"], [2])
        dist = FiniteJointDistribution(space, 2, np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ZeroLabelMass):
            dist.require_positive_labels()


class TestClassConditional:
    def test_source_example_cell(self, source):
        # label 1, cell (X1=1, X2=1): 0.6 * 0.2
        idx = source.space.index_of((1, 1))
        assert class_conditional(source, 1)[idx] == pytest.approx(0.12, abs=1e-15)

    def test_uniform_symmetry(self):
        dist = uniform_two_by_two()
        np.testing.assert_allclose(class_conditional(dist, 0), [0.5, 0.5])

    def test_target_example_cell(self, target_literal):
        # label 0, cell (X1=0, X2=1): 0.5 * 0.6
        idx = target_literal.space.index_of((0, 1))
        assert class_conditional(target_literal, 0)[idx] == pytest.approx(0.30, abs=1e-15)

    def test_zero_label_mass_raises(self):
        space = FeatureSpace(["a"], [2])
        dist = FiniteJointDistribution(space, 2, np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ZeroLabelMass):
            class_conditional(dist, 1)


class TestPosterior:
    def test_informative_feature(self, source):
        f1 = FeaturePartition.from_features(source.space, ["X1"])
        post = posterior(source, f1)
        # cells are ordered by X1 value: 0 then 1
        assert post.values[1, 1] == pytest.approx(0.6, abs=1e-15)
        assert post.values[0, 1] == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_allclose(post.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_trivial_partition_gives_priors(self, source):
        post = posterior(source, FeaturePartition.trivial(source.space))
        np.testing.assert_allclose(post.values[0], source.label_masses(), atol=1e-15)

    def test_zero_mass_cells_flagged(self):
        space = FeatureSpace(["a"], [2])
        dist = FiniteJointDistribution(space, 2, np.array([[0.4, 0.6], [0.0, 0.0]]))
        post = posterior(dist, FeaturePartition.full(space))
        assert post.defined[0] and not post.defined[1]
        np.testing.assert_array_equal(post.values[1], [0.0, 0.0])


class TestMarginalDensity:
    def test_identity(self, source):
        f = FeaturePartition.from_features(source.space, ["X1"])
        np.testing.assert_allclose(marginal_density(source, source, f), 1.0, atol=1e-15)

    def test_x1_marginal_unchanged_in_literal_target(self, source, target_literal):
        f1 = FeaturePartition.from_features(source.space, ["X1"])
        dens = marginal_density(target_literal, source, f1)
        np.testing.assert_allclose(dens, [1.0, 1.0], atol=1e-15)

    def test_x2_marginal_moves_in_literal_target(self, source, target_literal):
        # Q[X2=1] = 0.6*0.2 + 0.4*0.6 = 0.36 while P[X2=1] = 0.40, so the
        # density on the X2 partition is (0.64/0.60, 0.36/0.40).
        f2 = FeaturePartition.from_features(source.space, ["X2"])
        dens = marginal_density(target_literal, source, f2)
        np.testing.assert_allclose(dens, [0.64 / 0.60, 0.9], atol=1e-12)
        p_cells = aggregate(source.feature_marginal(), f2)
        assert float(p_cells @ dens) == pytest.approx(1.0, abs=1e-12)

    def test_absolute_continuity_enforced(self):
        space = FeatureSpace(["a"], [2])
        p = FiniteJointDistribution(space, 2, np.array([[0.5, 0.5], [0.0, 0.0]]))
        q = FiniteJointDistribution(space, 2, np.array([[0.25, 0.25], [0.25, 0.25]]))
        with pytest.raises(AbsoluteContinuityViolated):
            marginal_density(q, p, FeaturePartition.full(space))

    def test_expectation_one_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_source(rng, [2, 3], 2)
            q = random_source(rng, [2, 3], 2)
            f = FeaturePartition.from_features(p.space, ["X2"])
            dens = marginal_density(q, p, f)
            cells = aggregate(p.feature_marginal(), f)
            assert float(cells @ dens) == pytest.approx(1.0, abs=1e-12)


class TestClassConditionalDensity:
    def test_literal_target_ratios(self, source, target_literal):
        f1 = FeaturePartition.from_features(source.space, ["X1"])
        dens = class_conditional_density(target_literal, source, f1, 1)
        # label 1: 0.5/0.4 on X1=0 and 0.5/0.6 on X1=1
        np.testing.assert_allclose(dens, [1.25, 5.0 / 6.0], atol=1e-15)

    def test_identity(self, source):
        f1 = FeaturePartition.from_features(source.space, ["X1"])
        for label in range(source.num_labels):
            dens = class_conditional_density(source, source, f1, label)
            np.testing.assert_allclose(dens, 1.0, atol=1e-15)

    def test_unit_expectation(self, source, target_literal):
        f1 = FeaturePartition.from_features(source.space, ["X1"])
        for label in range(2):
            dens = class_conditional_density(target_literal, source, f1, label)
            cond = aggregate(class_conditional(source, label), f1)
            assert float(cond @ dens) == pytest.approx(1.0, abs=1e-12)


class TestFullImportanceWeight:
    def test_identity(self, source):
        np.testing.assert_allclose(full_importance_weight(source, source), 1.0, atol=1e-12)

    def test_literal_weights_on_x1_equals_one_cells(self, source, target_literal):
        w = full_importance_weight(target_literal, source)
        for x2 in (0, 1):
            idx = source.space.index_of((1, x2))
            assert w[idx, 1] == pytest.approx(1.0, abs=1e-12)

    def test_prior_shift_weights_constant_per_label(self, source):
        # Same class conditionals, new priors: the weight is the prior ratio.
        new = source.mass / source.label_masses() * np.array([0.8, 0.2])
        q = FiniteJointDistribution(source.space, 2, new)
        w = full_importance_weight(q, source)
        np.testing.assert_allclose(w[:, 0], 1.6, atol=1e-12)
        np.testing.assert_allclose(w[:, 1], 0.4, atol=1e-12)

    def test_reconstructs_target_cellwise(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_source(rng, [2, 2, 3], 3)
            q = random_source(rng, [2, 2, 3], 3)
            w = full_importance_weight(q, p)
            np.testing.assert_allclose(w * p.mass, q.mass, atol=1e-12)

    def test_continuity_error_names_the_first_cell_and_label_row_major(self):
        space = FeatureSpace(["a"], [3])
        p = FiniteJointDistribution(space, 2, np.array([[0.2, 0.2], [0.2, 0.0], [0.0, 0.4]]))
        q = FiniteJointDistribution(space, 2, np.array([[0.1, 0.1], [0.1, 0.3], [0.3, 0.1]]))
        with pytest.raises(AbsoluteContinuityViolated) as info:
            full_importance_weight(q, p)
        assert str(info.value) == str(AbsoluteContinuityViolated(1, label=1, mass=0.3))


class TestKlDivergence:
    def test_zero_iff_equal(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_computed_value(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-15)

    def test_infinite_on_support_mismatch(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_finite_without_overflow_on_subnormal_q(self):
        # p / q overflows here; RuntimeWarning is an error in this suite.
        value = kl_divergence([0.5, 0.5], [1.0, 1e-320])
        assert np.isfinite(value)
        assert value == pytest.approx(np.log(0.5) - 0.5 * np.log(1e-320))

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_divergence(p, q) >= 0.0

    def test_rejects_negative_tables(self):
        with pytest.raises(InvalidDistribution):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])


class TestMeasureIdentities:
    def test_per_label_conditionals_recombine(self):
        # Conditioning on (partition cell, label) atoms directly agrees with
        # the per-label route through the class conditionals.
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(50):
            dist = random_source(rng, [2, 3, 2], 3)
            f = FeaturePartition.from_features(dist.space, ["X1"])
            event = rng.random(dist.space.num_cells) < 0.5
            for i in range(dist.num_labels):
                joint = aggregate(dist.mass[:, i] * event, f)
                cell = aggregate(dist.mass[:, i], f)
                cond_i = class_conditional(dist, i)
                via_label = aggregate(cond_i * event, f)
                cell_label = aggregate(cond_i, f)
                for n in range(f.num_cells):
                    if cell[n] > 0:
                        worst = max(worst, abs(joint[n] / cell[n]
                                               - via_label[n] / cell_label[n]))
        assert worst < 1e-10

    def test_law_of_total_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dist = random_source(rng, [3, 2], 2)
            post = posterior(dist, FeaturePartition.full(dist.space))
            recon = (post.values * dist.feature_marginal()[:, None]).sum(axis=0)
            np.testing.assert_allclose(recon, dist.label_masses(), atol=1e-12)

    def test_density_tower_property(self):
        # The density on a coarser partition is the source-conditional
        # average of the finer one.
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_source(rng, [2, 2, 2], 2)
            q = random_source(rng, [2, 2, 2], 2)
            fine = FeaturePartition.from_features(p.space, ["X1", "X2"])
            coarse = FeaturePartition.from_features(p.space, ["X1"])
            h_fine = marginal_density(q, p, fine)
            h_coarse = marginal_density(q, p, coarse)
            p_fine = aggregate(p.feature_marginal(), fine)
            parent = fine.parent_cells(coarse)
            p_coarse = aggregate(p.feature_marginal(), coarse)
            avg = np.bincount(parent, weights=p_fine * h_fine,
                              minlength=coarse.num_cells) / p_coarse
            np.testing.assert_allclose(avg, h_coarse, atol=1e-12)


class TestJsonFormat:
    def test_roundtrip(self, source):
        doc = source.to_json_dict()
        again = FiniteJointDistribution.from_json_dict(doc)
        np.testing.assert_allclose(again.mass, source.mass, atol=1e-15)
        assert again.space.feature_names == source.space.feature_names

    def test_missing_rows_are_zero_and_duplicates_accumulate(self):
        doc = {
            "features": [{"name": "a", "cardinality": 2}],
            "num_labels": 2,
            "mass": [[0, 0, 0.25], [0, 0, 0.25], [1, 1, 0.5]],
        }
        dist = FiniteJointDistribution.from_json_dict(doc)
        np.testing.assert_allclose(dist.mass, [[0.5, 0.0], [0.0, 0.5]])

    def test_renormalises_within_tolerance_only(self):
        doc = {
            "features": [{"name": "a", "cardinality": 2}],
            "num_labels": 2,
            "mass": [[0, 0, 0.5 + 4e-10], [1, 1, 0.5]],
        }
        dist = FiniteJointDistribution.from_json_dict(doc)
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-15)
        doc["mass"][0][2] = 0.6
        with pytest.raises(InvalidDistribution):
            FiniteJointDistribution.from_json_dict(doc)

    def test_rejects_out_of_range_rows(self):
        base = {
            "features": [{"name": "a", "cardinality": 2}],
            "num_labels": 2,
        }
        for bad_row in ([2, 0, 1.0], [0, 5, 1.0], [0, 0, -0.5], [0, 1.0]):
            with pytest.raises(InvalidDistribution):
                FiniteJointDistribution.from_json_dict({**base, "mass": [bad_row]})

    def test_save_load_file(self, tmp_path, source):
        path = tmp_path / "dist.json"
        source.save(path)
        parsed = json.loads(path.read_text())
        assert parsed["num_labels"] == 2
        again = FiniteJointDistribution.load(path)
        np.testing.assert_allclose(again.mass, source.mass, atol=1e-15)

    def test_domains_round_trip_and_are_written_only_when_set(self, tmp_path, source):
        assert source.domains is None and "domains" not in source.to_json_dict()
        spelled = FiniteJointDistribution(source.space, 2, source.mass,
                                          [["a", "b,c"], ["0", "2"]])
        spelled.save(tmp_path / "dist.json")
        assert json.loads((tmp_path / "dist.json").read_text())["domains"] == \
            [["a", "b,c"], ["0", "2"]]
        again = FiniteJointDistribution.load(tmp_path / "dist.json")
        assert again.domains == (("a", "b,c"), ("0", "2"))
        np.testing.assert_array_equal(again.mass, spelled.mass)

    def test_rejects_domains_that_do_not_fit_the_features(self, source):
        doc = source.to_json_dict()
        for bad in ([["a", "b"]], [["a", "b"], ["0"]], [["a", "a"], ["0", "1"]],
                    [["a", "b"], "01"], "ab"):
            with pytest.raises(InvalidDistribution):
                FiniteJointDistribution.from_json_dict({**doc, "domains": bad})


# -- columnar table JSON against the row loops ---------------------------------

_NAMES = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def joint_tables(draw):
    """Tables over 1-4 features with zero cells, tiny masses, optional
    spellings (names and values may hold quotes, newlines and JSON syntax)
    and possibly a label without mass."""
    d = draw(st.integers(1, 4))
    cards = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    names = draw(st.lists(_NAMES, min_size=d, max_size=d, unique=True))
    ell = draw(st.integers(2, 4))
    space = FeatureSpace(names, cards)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random((space.num_cells, ell)) * 10.0 ** rng.integers(-300, 1, (space.num_cells, ell))
    mass[rng.random(mass.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    if draw(st.booleans()):
        mass[:, draw(st.integers(0, ell - 1))] = 0.0
    if not mass.any():
        mass[rng.integers(space.num_cells), 0] = 1.0
    domains = None
    if draw(st.booleans()):
        domains = [draw(st.lists(_NAMES, min_size=c, max_size=c, unique=True)) for c in cards]
    return FiniteJointDistribution(space, ell, mass / mass.sum(), domains)


@st.composite
def table_documents(draw):
    """The document of a table whose rows are shuffled and partly split in two
    or three (duplicate rows, whose sum depends on their order), with
    integral values sometimes written as floats."""
    doc = json.loads(reference_table_json(draw(joint_tables())))
    rows = []
    for row in doc["mass"]:
        p = row[-1]
        pieces = draw(st.sampled_from([[p], [p / 3, p - p / 3], [p / 3, p / 7, p - p / 3 - p / 7]]))
        rows += [row[:-1] + [q] for q in pieces]
        if draw(st.integers(0, 7)) == 0:
            rows[-1] = [float(v) for v in rows[-1][:-1]] + rows[-1][-1:]
    order = draw(st.permutations(range(len(rows))))
    doc["mass"] = [rows[k] for k in order]
    return doc


def load_outcome(parse, doc):
    try:
        return parse(doc)
    except InvalidDistribution as exc:
        return exc


class TestColumnarTableJson:
    @settings(max_examples=150, deadline=None)
    @given(joint_tables())
    def test_save_writes_the_row_loop_bytes(self, tmp_path_factory, dist):
        path = tmp_path_factory.mktemp("save") / "dist.json"
        dist.save(path)
        want = reference_table_json(dist)
        assert path.read_text() == want
        assert dist.to_json_dict() == json.loads(want)

    @settings(max_examples=150, deadline=None)
    @given(table_documents())
    def test_load_sums_rows_as_the_row_loop_does(self, doc):
        want = load_outcome(reference_from_json_dict, doc)
        got = load_outcome(lambda d: FiniteJointDistribution.from_json_dict(d).mass, doc)
        if isinstance(want, Exception):  # a split row can push the total past the tolerance
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(table_documents(), st.data())
    def test_malformed_rows_raise_as_the_row_loop_does(self, doc, data):
        """Rows the row loop rejects: wrong field counts, labels and coordinates
        whose truncation is out of range, and negative probabilities."""
        d, ell = len(doc["features"]), doc["num_labels"]
        cards = [f["cardinality"] for f in doc["features"]]
        rows = doc["mass"]

        def out_of_range(limit):
            return st.one_of(st.integers(limit, limit + 3), st.integers(-3, -1),
                             st.floats(limit, limit + 3.0), st.floats(-3.0, -1.0))

        for k in data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3,
                                    unique=True)):
            row = list(rows[k])
            faults = data.draw(st.lists(st.sampled_from(["label", "coordinate", "p", "fields"]),
                                        min_size=1, max_size=4, unique=True))
            if "label" in faults:
                row[d] = data.draw(out_of_range(ell))
            if "coordinate" in faults:
                j = data.draw(st.integers(0, d - 1))
                row[j] = data.draw(out_of_range(cards[j]))
            if "p" in faults:
                row[d + 1] = data.draw(st.one_of(st.floats(-2.0, -1e-300), st.just(-np.inf)))
            if "fields" in faults:
                row = data.draw(st.sampled_from([row[:-1], row + [0], []]))
            rows[k] = row
        want = load_outcome(reference_from_json_dict, doc)
        got = load_outcome(FiniteJointDistribution.from_json_dict, doc)
        assert isinstance(want, InvalidDistribution)
        assert type(got) is type(want) and str(got) == str(want)

    @pytest.mark.parametrize("row, message", [
        ([-0.5, 0, 0.5], "mass row 1: value -0.5 for feature 'a' is not an integer"),
        ([1.7, 0, 0.5], "mass row 1: value 1.7 for feature 'a' is not an integer"),
        ([1, 1.9, 0.5], "mass row 1: label 1.9 is not an integer"),
        ([1, float("nan"), 0.5], "mass row 1: label nan is not an integer"),
        ([1, 0, float("nan")], "mass row 1: probability nan is not finite"),
        ([1, 0, float("inf")], "mass row 1: probability inf is not finite"),
        ([1, None, 0.5], "mass row 1: label None is not an integer"),
    ])
    def test_rejects_non_integral_and_non_finite_entries(self, row, message):
        doc = {"features": [{"name": "a", "cardinality": 2}], "num_labels": 2,
               "mass": [[0, 1, 0.5], row, [2, 0, 0.1]]}
        with pytest.raises(InvalidDistribution) as info:
            FiniteJointDistribution.from_json_dict(doc)
        assert str(info.value) == message

    def test_a_nan_row_no_longer_loads_as_a_nan_table(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"features": [{"name": "a", "cardinality": 2}], "num_labels": 2,'
                        ' "mass": [[0, 0, 0.5], [1, 1, 0.5], [1, 0, NaN]]}')
        with pytest.raises(InvalidDistribution, match="mass row 2: probability nan"):
            FiniteJointDistribution.load(path)

    def test_integral_floats_load_as_integers(self):
        ints = {"features": [{"name": "a", "cardinality": 2}], "num_labels": 2,
                "mass": [[0, 1, 0.25], [1, 0, 0.75]]}
        floats = {**ints, "mass": [[0.0, 1.0, 0.25], [1.0, -0.0, 0.75]]}
        want = FiniteJointDistribution.from_json_dict(ints).mass
        assert FiniteJointDistribution.from_json_dict(floats).mass.tobytes() == want.tobytes()

    def test_rejects_rows_that_are_not_numbers(self):
        base = {"features": [{"name": "a", "cardinality": 2}], "num_labels": 2}
        for mass in ([[0, "x", 1.0]], [[0, [0], 1.0]], [[0, 0, 1.0], 5], {"0": [0, 0, 1.0]}):
            with pytest.raises(InvalidDistribution):
                FiniteJointDistribution.from_json_dict({**base, "mass": mass})


# -- the 0/0-as-0 ratio, the continuity check and the cached posterior --------

# Zeros, subnormals, and normal values down to where a quotient overflows.
_ENTRIES = st.one_of(st.just(0.0), st.just(5e-324),
                     st.floats(0.0, 1e-300, allow_subnormal=True), st.floats(1e-300, 1.0))


@st.composite
def ratio_operands(draw):
    """``(num, den)`` of one shape, or broadcast along rows or columns, or a scalar."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    num_shape, den_shape = draw(st.sampled_from([
        ((n,), (n,)), ((n, k), (n, k)), ((n, k), (n, 1)), ((n, k), (k,)), ((n, 1), (1, k)),
        ((n, k), ())]))

    def table(shape):
        size = int(np.prod(shape, dtype=np.int64))
        return np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)

    return table(num_shape), table(den_shape)


@settings(max_examples=150, deadline=None)
@given(ratio_operands())
def test_ratio_equals_the_masked_assignment_bit_for_bit(operands):
    num, den = operands
    with np.errstate(over="ignore"):
        got, want = ratio(num, den), reference_ratio(num, den)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_ratio_sets_zero_over_zero_and_positive_over_zero_to_zero():
    got = ratio(np.array([0.0, 2.0, 0.0, 3.0]), np.array([0.0, 0.0, 4.0, 2.0]))
    assert got.tobytes() == np.array([0.0, 0.0, 0.0, 1.5]).tobytes()


@st.composite
def continuity_operands(draw):
    """``(q, p, label)`` tables over 1-D or 2-D index sets, often with violations."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 8)),),
                                  (draw(st.integers(1, 6)), draw(st.integers(1, 4)))]))
    size = int(np.prod(shape))
    q = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)
    p = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)
    label = draw(st.one_of(st.none(), st.integers(0, 3))) if len(shape) == 1 else None
    return q, p, label


@settings(max_examples=150, deadline=None)
@given(continuity_operands())
def test_density_ratio_raises_where_the_hand_written_checks_did(operands):
    q, p, label = operands
    want = reference_continuity_error(q, p, label)
    if want is None:
        with np.errstate(over="ignore"):
            got = density_ratio(q, p, label)
            assert got.tobytes() == reference_ratio(q, p).tobytes()
        return
    with pytest.raises(AbsoluteContinuityViolated) as info:
        density_ratio(q, p, label)
    got = info.value
    assert (got.cell, got.label, got.mass) == (want.cell, want.label, want.mass)
    assert type(got.cell) is int and (got.label is None or type(got.label) is int)
    assert str(got) == str(want)


def test_density_ratio_messages():
    with pytest.raises(AbsoluteContinuityViolated, match=r"at cell 1$"):
        density_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(AbsoluteContinuityViolated, match=r"at cell 1, label 2$"):
        density_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0]), label=2)
    with pytest.raises(AbsoluteContinuityViolated, match=r"at cell 1, label 0$"):
        density_ratio(np.array([[0.5, 0.0], [0.25, 0.25]]), np.array([[0.5, 0.0], [0.0, 0.5]]))


@settings(max_examples=100, deadline=None)
@given(joint_tables())
def test_full_posterior_is_built_once_and_equals_posterior(dist):
    cached = dist.full_posterior
    assert dist.full_posterior is cached
    want = posterior(dist, FeaturePartition.full(dist.space))
    assert cached.values.tobytes() == want.values.tobytes()
    assert cached.defined.tobytes() == want.defined.tobytes()
    assert cached.partition.cell_of.tobytes() == want.partition.cell_of.tobytes()
    assert not cached.values.flags.writeable and not cached.defined.flags.writeable
    with pytest.raises(ValueError):
        cached.values[0, 0] = 1.0
