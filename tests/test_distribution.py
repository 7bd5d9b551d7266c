import gc
import json
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sjslab import (
    PRESET_KINDS,
    AbsoluteContinuityViolated,
    ConditionalTable,
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    HardClassifier,
    InvalidDistribution,
    RowTable,
    SchemaViolation,
    ZeroLabelMass,
    aggregate,
    binary_variance_criterion,
    check_absolute_continuity,
    check_cdi,
    check_covariate_shift,
    check_prior_shift,
    check_sjs,
    check_triangle,
    class_conditional,
    class_conditional_density,
    empirical_distribution,
    fit_from_cell_mass,
    full_importance_weight,
    kl_divergence,
    make_preset,
    marginal_density,
    plant_sjs,
    posterior,
    posterior_correct,
    posterior_statistics,
    rank_matrix,
    sample_rows,
    schema_for_distribution,
    sees_c_fit,
    sees_d_fit,
    sparsity_search,
)
from sjslab.datasets import load_target_marginal
from sjslab.distribution import _finite_non_negative, density_ratio, ratio
from _support import (
    awkward_draws,
    example_source,
    example_target_literal,
    random_planted,
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


# -- one comparability rule for every source-target pair -------------------------


def _mismatched_pair(mismatch):
    """(source, target, error, message): a 2x3 source and a 3x2 target, or a
    target over the same features that spells X1 as b, c where the source has a, b."""
    space = FeatureSpace(["X1", "X2"], [2, 3])
    p = FiniteJointDistribution(space, 2, np.full((6, 2), 1 / 12), [["a", "b"], ["0", "1", "2"]])
    if mismatch == "features":
        q = FiniteJointDistribution(FeatureSpace(["X1", "X2"], [3, 2]), 2, p.mass)
        return p, q, InvalidDistribution, ("target has features {'X1': 3, 'X2': 2}, "
                                           "source has {'X1': 2, 'X2': 3}")
    q = FiniteJointDistribution(space, 2, p.mass, [["b", "c"], ["0", "1", "2"]])
    return p, q, SchemaViolation, "target spells feature 'X1' as ['b', 'c'], source as ['a', 'b']"


PAIR_ENTRY_POINTS = {
    "check_sjs": lambda p, q, f, path: check_sjs(p, q, f),
    "check_cdi": lambda p, q, f, path: check_cdi(p, q, f),
    "check_covariate_shift": lambda p, q, f, path: check_covariate_shift(p, q, f),
    "check_prior_shift": lambda p, q, f, path: check_prior_shift(p, q),
    "check_triangle": lambda p, q, f, path: check_triangle(p, q, f),
    "full_importance_weight": lambda p, q, f, path: full_importance_weight(q, p),
    "marginal_density": lambda p, q, f, path: marginal_density(q, p, f),
    "class_conditional_density": lambda p, q, f, path: class_conditional_density(q, p, f, 0),
    "load_target_marginal": lambda p, q, f, path: (q.save(path), load_target_marginal(path, p)),
}


@pytest.mark.parametrize("mismatch", ["features", "spellings"])
@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
def test_every_source_target_entry_point_raises_one_message(tmp_path, entry, mismatch):
    # The densities once returned [1.0, 1.0] for the features pair, and
    # full_importance_weight gave weights for the spellings pair.
    p, q, error, message = _mismatched_pair(mismatch)
    f = FeaturePartition.from_features(p.space, ["X1"])
    with pytest.raises(error) as info:
        PAIR_ENTRY_POINTS[entry](p, q, f, tmp_path / "target.json")
    assert type(info.value) is error and str(info.value) == message


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
    def test_roundtrip(self, tmp_path, source):
        source.save(tmp_path / "dist.json")
        doc = json.loads((tmp_path / "dist.json").read_text())
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
        source.save(tmp_path / "plain.json")
        assert source.domains is None
        assert "domains" not in json.loads((tmp_path / "plain.json").read_text())
        spelled = FiniteJointDistribution(source.space, 2, source.mass,
                                          [["a", "b,c"], ["0", "2"]])
        spelled.save(tmp_path / "dist.json")
        assert json.loads((tmp_path / "dist.json").read_text())["domains"] == \
            [["a", "b,c"], ["0", "2"]]
        again = FiniteJointDistribution.load(tmp_path / "dist.json")
        assert again.domains == (("a", "b,c"), ("0", "2"))
        np.testing.assert_array_equal(again.mass, spelled.mass)

    def test_the_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Distribution JSON:\n\n```json\n", 1)[1].split("```", 1)[0]
        dist = FiniteJointDistribution.from_json_dict(json.loads(block))
        assert (dist.space.feature_names, dist.num_labels) == (("X1", "X2"), 2)
        np.testing.assert_allclose(dist.mass, [[0.12, 0.16], [0.08, 0.14], [0.2, 0.05],
                                               [0.1, 0.15]])

    def test_rejects_domains_that_do_not_fit_the_features(self, tmp_path, source):
        source.save(tmp_path / "dist.json")
        doc = json.loads((tmp_path / "dist.json").read_text())
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


@st.composite
def dyadic_tables(draw):
    """Tables whose masses are ``k / 2**m`` and total exactly 1, so a load divides
    by 1.0: masses drawn from a few values (repeated, zeros included) or all distinct."""
    d = draw(st.integers(1, 4))
    space = FeatureSpace([f"X{j + 1}" for j in range(d)],
                         draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    ell = draw(st.integers(2, 3))
    n = space.num_cells * ell - 1
    if draw(st.booleans()):
        counts = draw(st.lists(st.sampled_from([0, 1, 3]), min_size=n, max_size=n))
    else:
        counts = draw(st.lists(st.integers(1, 2**20), min_size=n, max_size=n, unique=True))
    scale = 2 ** (2 * sum(counts) + 1).bit_length()
    counts.append(scale - sum(counts))  # larger than every other count
    order = draw(st.permutations(range(n + 1)))
    mass = np.array([counts[k] for k in order], dtype=np.float64) / scale
    return FiniteJointDistribution(space, ell, mass.reshape(space.num_cells, ell))


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

    @settings(max_examples=100, deadline=None)
    @given(dyadic_tables())
    def test_save_and_load_round_trip_bit_for_bit(self, tmp_path_factory, dist):
        path = tmp_path_factory.mktemp("save") / "dist.json"
        dist.save(path)
        again = FiniteJointDistribution.load(path)
        assert again.mass.tobytes() == dist.mass.tobytes()
        again.save(path.with_name("again.json"))
        assert path.with_name("again.json").read_bytes() == path.read_bytes()

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


_SOURCES_AND_TARGETS = st.one_of(
    joint_tables(),  # and awkward sources and targets, with zero-mass cells
    awkward_draws().flatmap(lambda built: st.sampled_from([built[0], built[2].target])))


@settings(max_examples=150, deadline=None)
@given(_SOURCES_AND_TARGETS)
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


@settings(max_examples=150, deadline=None)
@given(_SOURCES_AND_TARGETS, st.data())
def test_sums_are_built_once_and_equal_the_direct_sums(dist, data):
    space = dist.space
    feature = data.draw(st.sampled_from(space.feature_names))
    sums = [(dist.label_masses, dist.mass.sum(axis=0)),
            (dist.feature_marginal, dist.mass.sum(axis=1))]
    for f in (FeaturePartition.trivial(space), FeaturePartition.from_features(space, [feature]),
              FeaturePartition.full(space)):
        sums.append((lambda f=f: dist.project(f), aggregate(dist.mass, f)))
    for get, want in sums:
        cached = get()
        assert get() is cached
        assert cached.shape == want.shape and cached.tobytes() == want.tobytes()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0


def test_a_projection_goes_with_its_partition():
    dist = uniform_two_by_two()
    f = FeaturePartition.full(dist.space)
    partition, table = weakref.ref(f), weakref.ref(dist.project(f))
    del f
    gc.collect()
    assert partition() is None and table() is None
    other = FeaturePartition.full(dist.space)  # an equal partition is another key
    assert dist.project(other) is not dist.project(FeaturePartition.full(dist.space))


def test_a_table_pickles_after_its_sums_are_cached():
    dist = uniform_two_by_two()
    f = FeaturePartition.full(dist.space)
    dist.project(f), dist.label_masses(), dist.feature_marginal(), dist.full_posterior  # fill them
    back = pickle.loads(pickle.dumps(dist))
    assert back.mass.tobytes() == dist.mass.tobytes() and back.space == dist.space
    assert back.project(f).tobytes() == dist.project(f).tobytes()


def test_one_fit_check_and_rank_report_sum_the_source_onto_f_once(monkeypatch):
    from sjslab import distribution, estimators, shifts
    from sjslab.estimators import posterior_correct, sees_d_fit
    from sjslab.shifts import check_sjs, posterior_statistics, rank_matrix

    inst, f = random_planted(7)
    p = FiniteJointDistribution(inst.source.space, inst.source.num_labels, inst.source.mass)
    calls = []

    def counted(values, partition):
        calls.append(values is p.mass and partition is f)
        return aggregate(values, partition)

    for module in (distribution, estimators, shifts):
        monkeypatch.setattr(module, "aggregate", counted)
    fit = sees_d_fit(p, inst.target.feature_marginal(), f)
    posterior_correct(p, fit)
    rank_matrix(p, f, posterior_statistics(p))
    check_sjs(p, inst.target, f)
    assert calls.count(True) == 1


# -- one finite, non-negative check for every table and setting ----------------


def _table_sites():
    """name -> (valid table, call with a table, (what, position) of an index).

    Every table an sjslab function is handed and checks for finite,
    non-negative entries, each on a small valid input.
    """
    p = example_source()
    x1 = FeaturePartition.from_features(p.space, ["X1"])
    q = example_target_literal().feature_marginal()
    post = posterior(p, x1)

    def cell(what):
        return lambda at: (what, f"cell {at[0]}")

    def cell_label(what, cell="cell"):
        return lambda at: (what, f"{cell} {at[0]}, label {at[1]}")

    def entry(what):
        return lambda at: (what, f"entry {np.ravel_multi_index(at, p.mass.shape)}")

    return {
        "mass": (p.mass, lambda a: FiniteJointDistribution(p.space, 2, a), cell_label("mass")),
        "sees_d q_marginal": (q, lambda a: sees_d_fit(p, a, x1), cell("q_marginal")),
        "sees_c q_marginal": (q, lambda a: sees_c_fit(p, a, x1), cell("q_marginal")),
        "search q_marginal": (q, lambda a: sparsity_search(p, a, ["X1", "X2"], 0.0),
                              cell("q_marginal")),
        "cell mass": (sees_d_fit(p, q, x1).cell_label_mass,
                      lambda a: fit_from_cell_mass(p, x1, a), cell_label("cell mass", "f-cell")),
        "statistics": (posterior_statistics(p), lambda a: rank_matrix(p, x1, a),
                       lambda at: ("statistics", f"statistic {at[0]}, cell {at[1]}")),
        "kl p_table": (p.mass, lambda a: kl_divergence(a, p.mass), entry("p_table")),
        "kl q_table": (p.mass, lambda a: kl_divergence(p.mass, a), entry("q_table")),
        "target prior": (np.array([0.3, 0.7]), lambda a: plant_sjs(p, x1, a, seed=0),
                         lambda at: ("target prior", f"label {at[0]}")),
        "cell ratio": (np.ones((x1.num_cells, 2)), lambda a: plant_sjs(p, x1, [0.3, 0.7], a),
                       cell_label("cell ratio", "f-cell")),
        "target table": (post.values, lambda a: posterior_correct(
            p, (ConditionalTable(x1, a, post.defined), post)), cell_label("target table")),
        "source table": (post.values, lambda a: posterior_correct(
            p, (post, ConditionalTable(x1, a, post.defined))), cell_label("source table")),
    }


def _setting_sites():
    """name -> (call with a scalar setting, the setting's name)."""
    p, q = example_source(), example_target_literal()
    x1 = FeaturePartition.from_features(p.space, ["X1"])
    rows = RowTable(schema_for_distribution(p), *sample_rows(p, 20, seed=0))
    return {
        "smoothing_alpha": (lambda v: empirical_distribution(rows, v), "smoothing_alpha"),
        "check tol": (lambda v: check_sjs(p, q, x1, v), "tol"),
        "variance tol": (lambda v: binary_variance_criterion(p, x1, v), "tol"),
        "sees_c tol": (lambda v: sees_c_fit(p, q.feature_marginal(), x1, v), "tol"),
        "sees_c max_iter": (lambda v: sees_c_fit(p, q.feature_marginal(), x1, max_iter=v),
                            "max_iter"),
        "penalty": (lambda v: sparsity_search(p, q.feature_marginal(), ["X1"], v), "penalty"),
    }


TABLE_SITES, SETTING_SITES = _table_sites(), _setting_sites()
BAD_VALUES = st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(-1e300, -1e-300)


def named(what, value, position=None) -> str:
    """The message naming a bad ``value``, as the tables and settings are checked."""
    kind = "negative" if np.isfinite(value) else "not finite"
    return f"{what} {value:.3g}{'' if position is None else ' at ' + position} is {kind}"


class TestFiniteNonNegative:
    @pytest.mark.parametrize("site", sorted(TABLE_SITES))
    def test_a_valid_table_passes_every_site(self, site):
        valid, call, _ = TABLE_SITES[site]
        call(np.array(valid))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(TABLE_SITES)), BAD_VALUES, st.data())
    def test_every_site_names_the_first_bad_entry(self, site, bad, data):
        valid, call, where = TABLE_SITES[site]
        table = np.array(valid)
        k = data.draw(st.integers(0, table.size - 1), label="first bad entry")
        table.flat[k] = bad
        if k + 1 < table.size and data.draw(st.booleans(), label="a later bad entry"):
            table.flat[data.draw(st.integers(k + 1, table.size - 1))] = data.draw(BAD_VALUES)
        with pytest.raises(InvalidDistribution) as info:
            call(table)
        what, position = where(np.unravel_index(k, table.shape))
        assert str(info.value) == named(what, bad, position)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SETTING_SITES)), BAD_VALUES)
    def test_every_setting_is_named_without_a_position(self, site, bad):
        call, what = SETTING_SITES[site]
        with pytest.raises(InvalidDistribution) as info:
            call(bad)
        assert str(info.value) == named(what, bad)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                      elements=st.floats(0.0, 1e300) | st.just(-0.0)))
    def test_a_valid_table_comes_back_bit_for_bit(self, table):
        out = _finite_non_negative(table, "values", ("cell", "label"))
        assert out.shape == table.shape and out.tobytes() == table.tobytes()

    def test_a_table_keeps_its_valid_masses_bit_for_bit(self):
        mass = np.array([[0.1, 0.2], [0.3, 0.4]])
        dist = FiniteJointDistribution(FeatureSpace(["a"], [2]), 2, mass)
        assert dist.mass.tobytes() == mass.tobytes()

    def test_the_first_bad_entry_is_named_not_the_most_negative(self):
        space = FeatureSpace(["a"], [2])
        with pytest.raises(InvalidDistribution,
                           match=r"^mass -0\.1 at cell 0, label 1 is negative$"):
            FiniteJointDistribution(space, 2, [[0.5, -0.1], [-0.4, 1.0]])
        with pytest.raises(InvalidDistribution,
                           match="^mass -inf at cell 1, label 0 is not finite$"):
            FiniteJointDistribution(space, 2, [[0.5, 0.5], [-np.inf, np.nan]])

    def test_kl_divergence_rejects_nan_and_inf(self):
        with pytest.raises(InvalidDistribution, match="^p_table nan at entry 0 is not finite$"):
            kl_divergence([np.nan, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidDistribution, match="^q_table inf at entry 1 is not finite$"):
            kl_divergence([0.5, 0.5], [0.5, np.inf])


# -- every rejecting branch ------------------------------------------------------

def _rejecting_cases():
    space = FeatureSpace(["X1", "X2"], [2, 2])
    p = FiniteJointDistribution(space, 2, np.full((4, 2), 0.125))
    f = FeaturePartition.from_features(space, ["X1"])
    other = FeaturePartition.trivial(FeatureSpace(["X1"], [3]))
    wider = FiniteJointDistribution(FeatureSpace(["X1"], [3]), 2, np.full((3, 2), 1 / 6))
    three_labels = FiniteJointDistribution(space, 3, np.full((4, 3), 1 / 12))
    trivial, full = FeaturePartition.trivial(space), FeaturePartition.full(space)

    def load(doc):
        return lambda: FiniteJointDistribution.from_json_dict(doc)

    table = {"features": [{"name": "a", "cardinality": 2}], "num_labels": 2,
             "mass": [[0, 0, 0.5], [1, 1, 0.5]]}

    def feature(**header):
        """``table`` with ``header`` as its one feature."""
        return {**table, "features": [header]}

    huge = [{"name": "a", "cardinality": 2**62 + 1}, {"name": "b", "cardinality": 4}]
    return {
        "q_marginal shape": (lambda: sees_d_fit(p, np.full(3, 1 / 3), f), InvalidDistribution,
                             "q_marginal must be a table over the 4 feature cells"),
        "q_marginal total": (lambda: sees_c_fit(p, np.full(4, 0.125), f), InvalidDistribution,
                             "q_marginal totals 0.5, expected 1"),
        "zero fitted mass": (lambda: fit_from_cell_mass(p, f, np.zeros((2, 2))),
                             InvalidDistribution, "fit produced zero total mass"),
        "posterior tables": (lambda: posterior_correct(p, (posterior(p, trivial),
                                                           posterior(p, full))),
                             InvalidDistribution, "conditional tables must share their partition"),
        "classifier shape": (lambda: HardClassifier(space, 2, [0, 1]), InvalidDistribution,
                             "assignment must cover all 4 feature cells"),
        "classifier labels": (lambda: HardClassifier(space, 2, [0, 1, 2, 0]),
                              InvalidDistribution, "assignment labels out of range"),
        "zero features": (lambda: FeatureSpace([], []), InvalidDistribution,
                          "need at least one feature"),
        "partition shape": (lambda: FeaturePartition(space, [0]), InvalidDistribution,
                            "cell_of must have shape (4,), got (1,)"),
        "partition negative": (lambda: FeaturePartition(space, [0, -1, 0, 0]),
                               InvalidDistribution, "partition cell indices must be non-negative"),
        "join spaces": (lambda: f.join(other), InvalidDistribution,
                        "cannot join partitions over different spaces"),
        "aggregate rows": (lambda: aggregate(np.zeros(3), f), InvalidDistribution,
                           "table has 3 rows, space has 4 cells"),
        "mass shape": (lambda: FiniteJointDistribution(space, 2, np.full((2, 2), 0.25)),
                       InvalidDistribution, "mass must have shape (4, 2), got (2, 2)"),
        "conditional rows": (lambda: ConditionalTable(f, np.zeros((3, 2)), [True] * 2),
                             InvalidDistribution, "values must have 2 rows, got shape (3, 2)"),
        "conditional mask": (lambda: ConditionalTable(f, np.zeros((2, 2)), [True] * 3),
                             InvalidDistribution,
                             "defined mask must have one entry per partition cell"),
        "class label": (lambda: class_conditional(p, 2), InvalidDistribution,
                        "label 2 out of range 0..1"),
        "importance spaces": (lambda: full_importance_weight(wider, p), InvalidDistribution,
                              "target has features {'X1': 3}, source has {'X1': 2, 'X2': 2}"),
        "kl index sets": (lambda: kl_divergence([0.5, 0.5], [1.0]), InvalidDistribution,
                          "tables must share their index set"),
        "continuity spaces": (lambda: check_absolute_continuity(wider, p), InvalidDistribution,
                              "target has features {'X1': 3}, source has {'X1': 2, 'X2': 2}"),
        "continuity labels": (lambda: check_absolute_continuity(three_labels, p),
                              InvalidDistribution, "target has 3 labels, source has 2"),
        "statistic shape": (lambda: rank_matrix(p, f, [np.zeros(3)] * 2), InvalidDistribution,
                            "statistics must be a (statistic, cell) table over 4 cells, "
                            "got shape (2, 3)"),
        "preset kind": (lambda: make_preset("nope"), InvalidDistribution,
                        f"unknown preset kind 'nope'; have {PRESET_KINDS}"),
        "preset cardinalities": (lambda: make_preset("sjs", {"num_features": 2,
                                                             "cardinalities": [2]}),
                                 InvalidDistribution, "cardinalities must match num_features"),
        "planted prior count": (lambda: plant_sjs(p, f, [1.0]), InvalidDistribution,
                                "need 2 target priors"),
        "planted prior total": (lambda: plant_sjs(p, f, [0.5, 0.6]), InvalidDistribution,
                                "target priors must be positive and sum to 1"),
        "planted ratio shape": (lambda: plant_sjs(p, f, [0.5, 0.5], np.ones((3, 2))),
                                InvalidDistribution, "cell_ratios must have shape (2, 2)"),
        "planted seed": (lambda: plant_sjs(p, f, [0.5, 0.5], seed=-1), InvalidDistribution,
                         "seed -1 is negative"),
        "preset seed": (lambda: make_preset("paper_example", seed=-1), InvalidDistribution,
                        "seed -1 is negative"),
        # An int64 product of these cardinalities wraps to 4, under the cap.
        "space past the cap": (lambda: FeatureSpace(["a", "b"], [2**62 + 1, 4]),
                               InvalidDistribution, "feature space has 18446744073709551620 "
                               "cells, exceeding the cap of 10000000"),
        "table past the cap": (load({**table, "features": huge}), InvalidDistribution,
                               "feature space has 18446744073709551620 cells, exceeding the cap "
                               "of 10000000"),
        # int() would read 2.5 and "2" as 2 and true as 1, so header integers are not coerced.
        "table cardinality 2.5": (load(feature(name="a", cardinality=2.5)), InvalidDistribution,
                                  "feature 0 'cardinality' must be an integer, got 2.5"),
        "table cardinality '2'": (load(feature(name="a", cardinality="2")), InvalidDistribution,
                                  "feature 0 'cardinality' must be an integer, got '2'"),
        "table cardinality true": (load(feature(name="a", cardinality=True)), InvalidDistribution,
                                   "feature 0 'cardinality' must be an integer, got True"),
        "table cardinality 2.0": (load(feature(name="a", cardinality=2.0)), InvalidDistribution,
                                  "feature 0 'cardinality' must be an integer, got 2.0"),
        "table cardinality missing": (load(feature(name="a")), InvalidDistribution,
                                      "feature 0 has no 'cardinality'"),
        "table name list": (load(feature(name=["a"], cardinality=2)), InvalidDistribution,
                            "feature 0 'name' must be a string, got ['a']"),
        "table num_labels 2.9": (load({**table, "num_labels": 2.9}), InvalidDistribution,
                                 "table 'num_labels' must be an integer, got 2.9"),
        "table features object": (load({**table, "features": {"name": "a"}}),
                                  InvalidDistribution,
                                  "table 'features' must be a list, got {'name': 'a'}"),
        "table not an object": (load([table]), InvalidDistribution,
                                "table has no 'features'"),
        # The constructors hold Python callers to the header rule.
        "space cardinality 2.5": (lambda: FeatureSpace(["a"], [2.5]), InvalidDistribution,
                                  "feature 0 'cardinality' must be an integer, got 2.5"),
        "space cardinality true": (lambda: FeatureSpace(["a"], [True]), InvalidDistribution,
                                   "feature 0 'cardinality' must be an integer, got True"),
        "space name 1.5": (lambda: FeatureSpace([1.5], [2]), InvalidDistribution,
                           "feature 0 'name' must be a string, got 1.5"),
        "num_labels 2.9": (lambda: FiniteJointDistribution(space, 2.9, np.full((4, 2), 0.125)),
                           InvalidDistribution, "table 'num_labels' must be an integer, got 2.9"),
    }


def test_constructors_take_numpy_integers_and_strings():
    space = FeatureSpace([np.str_("a"), "b"], [np.int64(2), np.uint8(3)])
    assert space == FeatureSpace(["a", "b"], [2, 3])
    assert all(type(v) is int for v in space.cardinalities)
    assert all(type(n) is str for n in space.feature_names)
    dist = FiniteJointDistribution(space, np.int32(2), np.full((6, 2), 1 / 12))
    assert type(dist.num_labels) is int and dist.num_labels == 2


@pytest.mark.parametrize("case", sorted(_rejecting_cases()))
def test_each_rejecting_branch_raises_naming_its_input(case):
    call, error, message = _rejecting_cases()[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
