import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sjslab import (FeaturePartition, FeatureSpace, FiniteJointDistribution, InvalidDistribution,
                    aggregate)
from sjslab.estimators import SeesCProblem, sees_d_fit
from sjslab.shifts import (
    _conditional_class_matrix,
    posterior_statistics,
    verify_total_expectation,
)
from sjslab.space import group, stacks
from _support import (
    reference_aggregate,
    reference_conditional_class_matrix,
    reference_gradient,
    reference_sees_d_cells,
    reference_verify_total_expectation,
    sparse_instance,
)


class TestFeatureSpace:
    def test_cell_indexing_roundtrip(self):
        space = FeatureSpace(["a", "b", "c"], [2, 3, 4])
        assert space.num_cells == 24
        for x in range(space.num_cells):
            coords = space.coords_of(x)
            assert space.index_of(coords) == x

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(InvalidDistribution):
            FeatureSpace(["a"], [0])
        with pytest.raises(InvalidDistribution):
            FeatureSpace(["a", "a"], [2, 2])
        with pytest.raises(InvalidDistribution):
            FeatureSpace(["a", "b"], [2])

    def test_cell_cap_enforced(self):
        with pytest.raises(InvalidDistribution, match="exceeding the cap of 10000000"):
            FeatureSpace(["a", "b"], [5000, 5000])
        assert FeatureSpace(["a", "b"], [1000, 10_000]).num_cells == 10_000_000

    def test_unknown_feature_name(self):
        space = FeatureSpace(["a"], [2])
        with pytest.raises(InvalidDistribution, match=r"unknown feature 'z'; have \['a'\]"):
            space.feature_index("z")


class TestFeaturePartition:
    def test_subset_agreement_rule(self):
        # Two cells share a partition cell iff they agree on the subset.
        space = FeatureSpace(["a", "b", "c"], [2, 3, 2])
        part = FeaturePartition.from_features(space, ["a", "c"])
        coords = space.all_coords()
        for x in range(space.num_cells):
            for y in range(space.num_cells):
                same = part.cell_of[x] == part.cell_of[y]
                agree = coords[x, 0] == coords[y, 0] and coords[x, 2] == coords[y, 2]
                assert same == agree

    def test_trivial_and_full(self):
        space = FeatureSpace(["a", "b"], [2, 3])
        assert FeaturePartition.trivial(space).num_cells == 1
        full = FeaturePartition.full(space)
        assert full.num_cells == space.num_cells
        assert full.refines(FeaturePartition.trivial(space))

    def test_surjectivity_required(self):
        space = FeatureSpace(["a"], [3])
        with pytest.raises(InvalidDistribution):
            FeaturePartition(space, np.array([0, 2, 2]))  # 1 missing

    def test_join_is_common_refinement(self):
        space = FeatureSpace(["a", "b", "c"], [2, 2, 2])
        pa = FeaturePartition.from_features(space, ["a"])
        pb = FeaturePartition.from_features(space, ["b"])
        joined = pa.join(pb)
        both = FeaturePartition.from_features(space, ["a", "b"])
        assert joined.num_cells == both.num_cells
        assert joined.refines(pa) and joined.refines(pb)
        assert both.refines(joined) and joined.refines(both)

    def test_refines_and_parent_cells(self):
        space = FeatureSpace(["a", "b"], [2, 3])
        fine = FeaturePartition.from_features(space, ["a", "b"])
        coarse = FeaturePartition.from_features(space, ["a"])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        parent = fine.parent_cells(coarse)
        assert np.array_equal(parent[fine.cell_of], coarse.cell_of)

    def test_aggregate_sums_within_cells(self):
        space = FeatureSpace(["a", "b"], [2, 2])
        part = FeaturePartition.from_features(space, ["a"])
        values = np.arange(4.0)
        out = aggregate(values, part)
        coords = space.all_coords()
        for cell in range(part.num_cells):
            assert out[cell] == values[part.cell_of == cell].sum()
        table = np.arange(8.0).reshape(4, 2)
        out2 = aggregate(table, part)
        assert out2.shape == (2, 2)
        assert np.allclose(out2.sum(axis=0), table.sum(axis=0))


# -- partition descriptions ------------------------------------------------------


@st.composite
def described_partitions(draw):
    """Partitions by a feature subset (the empty one included), ``full``, a join
    of two subsets, and custom ones with no feature subset."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    space = FeatureSpace([f"x{j}" for j in range(len(cards))], cards)
    names = list(space.feature_names)
    subset = st.lists(st.sampled_from(names), unique=True, max_size=len(names))
    kind = draw(st.sampled_from(["features", "full", "join", "custom"]))
    if kind == "features":
        part = FeaturePartition.from_features(space, draw(subset))
    elif kind == "full":
        part = FeaturePartition.full(space)
    elif kind == "join":
        part = FeaturePartition.from_features(space, draw(subset)).join(
            FeaturePartition.from_features(space, draw(subset)))
    else:
        k = draw(st.integers(1, space.num_cells))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        part = FeaturePartition(space, rng.permutation(np.concatenate(
            [np.arange(k), rng.integers(0, k, space.num_cells - k)])))
    return space, part


@settings(max_examples=100, deadline=None)
@given(described_partitions())
def test_from_description_inverts_describe(case):
    space, part = case
    doc = json.loads(json.dumps(part.describe()))
    back = FeaturePartition.from_description(space, doc)
    assert back.describe() == part.describe()
    assert back.num_cells == part.num_cells
    assert back.cell_of.tobytes() == part.cell_of.tobytes()
    assert back.feature_subset == part.feature_subset


@pytest.mark.parametrize("doc,key", [({"type": "features"}, "features"),
                                     ({"type": "custom"}, "cell_of"), ([0, 0], "cell_of")])
def test_from_description_names_the_missing_key(doc, key):
    space = FeatureSpace(["a"], [2])
    with pytest.raises(InvalidDistribution, match=f"^partition has no {key!r}$"):
        FeaturePartition.from_description(space, doc)


@pytest.mark.parametrize("doc,key,kind", [
    ({"type": "features", "features": "a"}, "features", "feature names"),
    ({"type": "features", "features": [0]}, "features", "feature names"),
    ({"type": "custom", "cell_of": "ab"}, "cell_of", "integers"),
    ({"type": "custom", "cell_of": [0, 1.0]}, "cell_of", "integers"),
    ({"type": "custom", "cell_of": [True, 0]}, "cell_of", "integers"),
    ({"cell_of": {"0": 0, "1": 1}}, "cell_of", "integers")])
def test_from_description_names_a_mistyped_key(doc, key, kind):
    space = FeatureSpace(["a"], [2])
    with pytest.raises(InvalidDistribution, match=f"^partition {key!r} must be a list of {kind}"):
        FeaturePartition.from_description(space, doc)


# -- the refinement test and subset codes --------------------------------------


@st.composite
def partition_pairs(draw):
    """``(fine, coarse)`` cell maps over a space of up to 64 cells: ``coarse``
    merges cells of ``fine`` (so ``fine`` refines it) or is drawn on its own."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    space = FeatureSpace([f"x{j}" for j in range(len(cards))], cards)

    def cell_map(size, then=None):
        labels = np.array(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        codes = np.unique(labels if then is None else labels[then], return_inverse=True)[1]
        return FeaturePartition(space, codes)

    fine = cell_map(space.num_cells)
    if draw(st.booleans()):
        return fine, cell_map(fine.num_cells, then=fine.cell_of)
    return fine, cell_map(space.num_cells)


@settings(max_examples=200, deadline=None)
@given(partition_pairs())
def test_refines_and_parent_cells_follow_the_definition(pair):
    # a refines b iff feature cells that share an a-cell share a b-cell.
    fine, coarse = pair
    for a, b in ((fine, coarse), (coarse, fine)):
        want = not np.any((a.cell_of[:, None] == a.cell_of) & (b.cell_of[:, None] != b.cell_of))
        assert a.refines(b) is want
        if want:
            parent = a.parent_cells(b)
            assert parent.shape == (a.num_cells,)
            assert np.array_equal(parent[a.cell_of], b.cell_of)
        else:
            with pytest.raises(InvalidDistribution, match="does not refine"):
                a.parent_cells(b)
    space = fine.space
    twin = FeaturePartition(FeatureSpace(space.feature_names, space.cardinalities),
                            coarse.cell_of)
    assert fine.refines(twin) is fine.refines(coarse)
    renamed = FeatureSpace([n + "'" for n in space.feature_names], space.cardinalities)
    longer = FeatureSpace(space.feature_names + ("extra",), space.cardinalities + (2,))
    for other in (renamed, longer):
        for elsewhere in (FeaturePartition.trivial(other), FeaturePartition.full(other)):
            assert not fine.refines(elsewhere) and not elsewhere.refines(fine)
            with pytest.raises(InvalidDistribution, match="does not refine"):
                fine.parent_cells(elsewhere)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_features_codes_follow_all_coords(data):
    # Any subset in any order: the empty one (trivial), all features (full), and between.
    cards = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    space = FeatureSpace([f"x{j}" for j in range(len(cards))], cards)
    names = data.draw(st.permutations(space.feature_names))[:data.draw(st.integers(0, len(cards)))]
    idx = [space.feature_index(n) for n in names]
    want = np.zeros(space.num_cells)  # the trivial partition
    if names:
        coords = np.unravel_index(np.arange(space.num_cells), cards)
        want = np.ravel_multi_index(tuple(coords[i] for i in idx), [cards[i] for i in idx])
    part = FeaturePartition.from_features(space, names)
    assert part.cell_of.tobytes() == want.astype(np.int64).tobytes()
    assert part.feature_subset == tuple(names)


# -- the grouping core against the per-cell loops it replaced ------------------


@st.composite
def tables_on_partitions(draw):
    """A 1-D or 2-D table, with +0.0 rows and -0.0 entries, on a partition with one
    group (trivial, or a feature of one value), one per cell (full), groups of unequal
    sizes (a join, a random cell map), or equal ones (a feature subset)."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    space = FeatureSpace([f"x{j}" for j in range(len(cards))], cards)
    subset = st.lists(st.sampled_from(space.feature_names), unique=True)
    kind = draw(st.sampled_from(["trivial", "full", "features", "join", "random"]))
    if kind == "trivial":
        part = FeaturePartition.trivial(space)
    elif kind == "full":
        part = FeaturePartition.full(space)
    elif kind == "features":
        part = FeaturePartition.from_features(space, draw(subset))
    elif kind == "join":
        labels = draw(st.lists(st.integers(0, 2), min_size=space.num_cells,
                               max_size=space.num_cells))
        part = FeaturePartition.from_features(space, draw(subset)).join(
            FeaturePartition(space, np.unique(labels, return_inverse=True)[1]))
    else:
        k = draw(st.integers(1, space.num_cells))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        part = FeaturePartition(space, rng.permutation(np.concatenate(
            [np.arange(k), rng.integers(0, k, space.num_cells - k)])))
    width = draw(st.sampled_from([None, 0, 1, 2, 3]))  # None: a 1-D table
    shape = (space.num_cells,) if width is None else (space.num_cells, width)
    values = draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    for zero in (0.0, -0.0):
        rows = draw(st.lists(st.booleans(), min_size=space.num_cells, max_size=space.num_cells))
        values[np.array(rows, dtype=bool)] = zero
    return values, part


@settings(max_examples=200, deadline=None)
@given(tables_on_partitions())
def test_aggregate_matches_add_at_bit_for_bit(case):
    values, part = case
    got, want = aggregate(values, part), reference_aggregate(values, part)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_group_lists_each_cell_in_ascending_order():
    rng = np.random.default_rng(0)
    for k in (1, 2, 7, 50):
        labels = rng.integers(0, k, 300)
        order, bounds = group(labels, k + 2)  # the last two groups are empty
        assert bounds[0] == 0 and bounds[-1] == labels.size
        for n in range(k + 2):
            np.testing.assert_array_equal(order[bounds[n]:bounds[n + 1]],
                                          np.nonzero(labels == n)[0])
        stacked = {}
        for groups, members in stacks(labels, k + 2):
            assert members.shape[0] == groups.size and members.shape[1] > 0
            stacked.update(zip(groups.tolist(), members))
        assert sorted(stacked) == sorted(set(labels.tolist()))
        for n, members in stacked.items():
            np.testing.assert_array_equal(members, np.nonzero(labels == n)[0])


def sparse_instances(count):
    """Random partitions over sources with zero-mass feature cells, zero
    (cell, label) pairs and one partition cell without positive mass."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        cards = rng.integers(2, 5, size=int(rng.integers(2, 4))).tolist()
        num_cells = int(rng.integers(2, min(int(np.prod(cards)), 9) + 1))
        yield rng, sparse_instance(rng, cards, int(rng.integers(2, 4)), num_cells)


def dense_instances(count):
    """Sources with mass on every (cell, label) pair, on random cell maps and feature
    subsets, so that SEES-d's equations are every feature cell of every f-cell."""
    rng = np.random.default_rng(2025)
    for k in range(count):
        cards = rng.integers(2, 5, size=int(rng.integers(2, 4))).tolist()
        space = FeatureSpace([f"X{j + 1}" for j in range(len(cards))], cards)
        if k % 2:
            names = rng.permutation(space.feature_names)[:int(rng.integers(0, len(cards) + 1))]
            f = FeaturePartition.from_features(space, names.tolist())
        else:
            num_cells = int(rng.integers(1, min(space.num_cells, 9) + 1))
            f = FeaturePartition(space, np.concatenate(
                [rng.permutation(num_cells),
                 rng.integers(0, num_cells, space.num_cells - num_cells)]))
        num_labels = int(rng.integers(2, 4))
        mass = rng.uniform(0.05, 1.0, size=(space.num_cells, num_labels))
        source = FiniteJointDistribution(space, num_labels, mass / mass.sum())
        q = source.feature_marginal() * rng.uniform(0.5, 2.0, space.num_cells)
        yield rng, (source, f, q / q.sum())


class TestPerCellLoopsReplaced:
    def test_conditional_class_matrix_and_total_expectation(self):
        for rng, (p, f, _) in sparse_instances(40):
            for stats in (posterior_statistics(p),
                          list(rng.uniform(0.0, 2.0, (p.num_labels, p.space.num_cells)))):
                matrices, class_cell, _ = _conditional_class_matrix(p, f, stats)
                ref_matrices, ref_class_cell = reference_conditional_class_matrix(p, f, stats)
                assert class_cell.tobytes() == ref_class_cell.tobytes()
                assert len(matrices) == len(ref_matrices) == f.num_cells
                for got, want in zip(matrices, ref_matrices):
                    assert got.tobytes() == want.tobytes()
                # The identity is summed in another order, so it agrees to rounding.
                got = verify_total_expectation(p, f, stats)
                assert abs(got - reference_verify_total_expectation(p, f, stats)) <= 1e-14

    def test_sees_c_gradient(self):
        for rng, (p, f, q) in sparse_instances(40):
            problem = SeesCProblem(p, q, f)
            phi = problem.initial_phi() * rng.uniform(0.5, 2.0, (f.num_cells, p.num_labels))
            assert problem.gradient(phi).tobytes() == reference_gradient(problem, phi).tobytes()

    def test_sees_d_fit(self):
        # Dense sources: every feature cell of every f-cell is an equation.
        for rng, (p, f, q) in chain(sparse_instances(40), dense_instances(20)):
            full = FeaturePartition.full(p.space)  # the equations h_prime=None means
            finer = f.join(FeaturePartition(p.space, rng.integers(0, 2, p.space.num_cells)))
            for h_prime in (None, full, finer):
                fit = sees_d_fit(p, q, f, h_prime)
                mass, per_cell, deficient = reference_sees_d_cells(
                    p, q, f, full if h_prime is None else h_prime)
                # Triangle solves and scipy's nnls round differently (worst seen 3.2e-14).
                assert fit.diagnostics["underdetermined_cells"] == deficient
                np.testing.assert_allclose(fit.cell_label_mass, mass, rtol=0, atol=1e-12)
                np.testing.assert_allclose(fit.diagnostics["per_cell_residual"], per_cell,
                                           rtol=0, atol=1e-12)
