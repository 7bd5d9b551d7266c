"""Shared builders for the test suite.

The fixed two-binary-feature example used throughout: labels are the
values of Y, features X1 (informative, 0.6/0.4) and X2 (informative the
other way, 0.2/0.6), independent given the label.  Two companion
targets exist:

* the "literal" target keeps the X2 conditionals, sets both X1
  conditionals to 1/2 and moves the priors to (0.4, 0.6): a clean
  sparse-joint-shift-on-X1 instance that is not a prior shift;
* the "marginal shift" target reweights the source by an X1-measurable
  factor, which additionally preserves every label posterior, so
  covariate shift holds alongside the sparse shift.
"""

from __future__ import annotations

import numpy as np

from sjslab import FeaturePartition, FeatureSpace, FiniteJointDistribution
from sjslab.synthetic import paper_example_tables, product_distribution


def example_source() -> FiniteJointDistribution:
    source, _ = paper_example_tables()
    return source


def example_target_literal() -> FiniteJointDistribution:
    return product_distribution(
        [0.4, 0.6],
        [
            [[0.5, 0.5], [0.5, 0.5]],  # X1 given label 0 / label 1
            [[0.4, 0.6], [0.8, 0.2]],  # X2 given label 0 / label 1
        ],
    )


def example_target_marginal_shift() -> FiniteJointDistribution:
    _, target = paper_example_tables()
    return target


def random_source(rng, cardinalities, num_labels, floor=0.05) -> FiniteJointDistribution:
    space = FeatureSpace([f"X{k + 1}" for k in range(len(cardinalities))], cardinalities)
    mass = rng.uniform(floor, 1.0, size=(space.num_cells, num_labels))
    return FiniteJointDistribution(space, num_labels, mass / mass.sum())


def random_planted(seed, max_features=4, max_card=4, labels=(2, 3)):
    """Seeded random source plus a target with shift planted on a feature subset."""
    from sjslab import plant_sjs

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, max_features + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(d)]
    ell = int(rng.choice(labels))
    source = random_source(rng, cards, ell)
    names = list(source.space.feature_names)
    k = int(rng.integers(1, d))
    subset = sorted(rng.choice(names, size=k, replace=False).tolist())
    f = FeaturePartition.from_features(source.space, subset)
    priors = rng.dirichlet(np.ones(ell) * 5)
    inst = plant_sjs(source, f, priors, "random", seed=seed)
    return inst, f


def sufficient_source(rng, card_f=3, card_rest=3, num_labels=2) -> tuple:
    """Source where the first feature is sufficient for the labels.

    Built as p(x1) * p(y | x1) * p(x2 | x1): the label and the second
    feature are independent given the first, so the posterior given both
    features is a function of X1 alone.
    """
    space = FeatureSpace(["X1", "X2"], [card_f, card_rest])
    px1 = rng.dirichlet(np.ones(card_f) * 3)
    y_given_x1 = rng.dirichlet(np.ones(num_labels) * 2, size=card_f)
    x2_given_x1 = rng.dirichlet(np.ones(card_rest) * 2, size=card_f)
    mass = np.zeros((space.num_cells, num_labels))
    coords = space.all_coords()
    for x in range(space.num_cells):
        x1, x2 = coords[x]
        mass[x] = px1[x1] * x2_given_x1[x1, x2] * y_given_x1[x1]
    dist = FiniteJointDistribution(space, num_labels, mass / mass.sum())
    return dist, FeaturePartition.from_features(space, ["X1"])


def reference_load_dataset(path, schema):
    """Row-at-a-time ``csv.DictReader`` decoder: the reference for ``load_dataset``.

    Returns ``(feature_codes, label_codes)`` as lists, or raises
    :class:`SchemaViolation` exactly as ``load_dataset`` must.
    """
    import csv

    from sjslab import SchemaViolation

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in schema.feature_columns:
            if col not in header:
                raise SchemaViolation(f"missing feature column {col!r} in header")
        labelled = schema.label_domain is not None
        if labelled and "label" not in header:
            raise SchemaViolation("missing label column 'label' in header")
        codes = {col: {v: k for k, v in enumerate(schema.feature_domains[col])}
                 for col in schema.feature_columns}
        label_codes = {v: k for k, v in enumerate(schema.label_domain)} if labelled else None
        feat_rows, lab_rows = [], []
        for rownum, row in enumerate(reader):
            values = [row.get(col, "") for col in schema.feature_columns]
            label_value = row.get("label", "") if labelled else None
            cells = values + ([label_value] if labelled else [])
            if any(v is None or v == "" for v in cells):
                missing = [v in (None, "") for v in values]
                col = schema.feature_columns[missing.index(True)] if any(missing) \
                    else "label"
                raise SchemaViolation("missing value", row=rownum, column=col)
            encoded = []
            for col, v in zip(schema.feature_columns, values):
                code = codes[col].get(str(v))
                if code is None:
                    raise SchemaViolation(f"value {v!r} not in declared domain",
                                          row=rownum, column=col)
                encoded.append(code)
            feat_rows.append(encoded)
            if labelled:
                code = label_codes.get(str(label_value))
                if code is None:
                    raise SchemaViolation(f"label {label_value!r} not in declared domain",
                                          row=rownum, column="label")
                lab_rows.append(code)
    return feat_rows, (lab_rows if labelled else None)


# -- table JSON reference loops -------------------------------------------------
#
# The row-at-a-time writer and reader that the columnar ``save`` and
# ``from_json_dict`` replaced.  ``save`` must write the bytes
# ``reference_table_json`` gives, and ``from_json_dict`` must return the mass
# ``reference_from_json_dict`` gives, or raise as it does.


def reference_table_json(dist) -> str:
    """Bytes of a saved table: the row loop and the pure-Python indenting encoder."""
    import json

    coords = dist.space.all_coords()
    rows = []
    for x in range(dist.space.num_cells):
        for i in range(dist.num_labels):
            p = float(dist.mass[x, i])
            if p != 0.0:
                rows.append([int(v) for v in coords[x]] + [i, p])
    out = {
        "features": [{"name": n, "cardinality": c}
                     for n, c in zip(dist.space.feature_names, dist.space.cardinalities)],
        "num_labels": dist.num_labels,
        "mass": rows,
    }
    if dist.domains is not None:
        out["domains"] = [list(values) for values in dist.domains]
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def reference_from_json_dict(data: dict) -> np.ndarray:
    """Row-loop parse of a table document: the renormalised mass, or the error it raises."""
    from sjslab import InvalidDistribution

    names = [f["name"] for f in data["features"]]
    cards = [int(f["cardinality"]) for f in data["features"]]
    num_labels = int(data["num_labels"])
    space = FeatureSpace(names, cards)
    mass = np.zeros((space.num_cells, num_labels))
    d = space.num_features
    for k, row in enumerate(data["mass"]):
        if len(row) != d + 2:
            raise InvalidDistribution(f"mass row {k} has {len(row)} fields, expected {d + 2}")
        coords, label, p = row[:d], int(row[d]), float(row[d + 1])
        if not 0 <= label < num_labels:
            raise InvalidDistribution(f"mass row {k}: label {label} out of range")
        for j, (v, c) in enumerate(zip(coords, cards)):
            if not 0 <= int(v) < c:
                raise InvalidDistribution(
                    f"mass row {k}: value {v} out of range for feature {names[j]!r}")
        if p < 0:
            raise InvalidDistribution(f"mass row {k}: negative probability {p}")
        mass[space.index_of(coords), label] += p
    total = float(mass.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(
            f"mass totals {total!r}; only totals within 1e-09 of 1 are renormalised")
    return mass / total


# -- the 0/0-as-0 ratio and the continuity check --------------------------------
#
# The idioms ``distribution.ratio`` and ``distribution.density_ratio``
# replaced: a masked assignment into zeros, and a raise at the first
# violating entry.  The library must match them bit for bit and word for word.


def reference_ratio(num, den) -> np.ndarray:
    """``num / den`` assigned where ``den > 0`` into a table of zeros."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=np.float64),
                                   np.asarray(den, dtype=np.float64))
    out = np.zeros(num.shape)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def reference_continuity_error(q, p, label=None):
    """The error the hand-written checks raised for ``q`` over ``p``, or None."""
    from sjslab import AbsoluteContinuityViolated

    bad = (p == 0.0) & (q > 0.0)
    if not bad.any():
        return None
    if bad.ndim == 2:
        x, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return AbsoluteContinuityViolated(int(x), label=int(i), mass=float(q[x, i]))
    n = int(np.argmax(bad))
    return AbsoluteContinuityViolated(n, label=label, mass=float(q[n]))


# -- per-cell reference loops ---------------------------------------------------
#
# The loops below are the per-cell code the grouping core in ``space``
# replaced: one ``cell_of == n`` mask per cell and ``np.add.at`` sums.  The
# differential tests require the library to match them.


def reference_aggregate(values, partition) -> np.ndarray:
    """``np.add.at`` sum of a feature-cell table within each partition cell."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((partition.num_cells,) + values.shape[1:])
    np.add.at(out, partition.cell_of, values)
    return out


def reference_conditional_class_matrix(p, g, statistics) -> tuple:
    """One loop step per cell: (list of matrices E[stat_i | cell, label j], class masses)."""
    class_cell = reference_aggregate(p.mass, g)
    num = np.stack([reference_aggregate(p.mass * np.asarray(s)[:, None], g)
                    for s in statistics])
    matrices = []
    for n in range(g.num_cells):
        denom = class_cell[n]
        m = np.zeros((len(statistics), p.num_labels))
        pos = denom > 0.0
        m[:, pos] = num[:, n, pos] / denom[pos]
        matrices.append(m)
    return matrices, class_cell


def reference_verify_total_expectation(p, g, statistics) -> float:
    stats = [np.asarray(s, dtype=np.float64) for s in statistics]
    matrices, class_cell = reference_conditional_class_matrix(p, g, stats)
    cell_mass = class_cell.sum(axis=1)
    p_h = p.feature_marginal()
    worst = 0.0
    for n in range(g.num_cells):
        if cell_mass[n] <= 0.0:
            continue
        members = g.cell_of == n
        lhs = np.array([float(np.dot(p_h[members], s[members])) for s in stats]) / cell_mass[n]
        rhs = matrices[n] @ (class_cell[n] / cell_mass[n])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def reference_gradient(problem, phi) -> np.ndarray:
    s = problem.density(phi)
    grad = np.zeros_like(phi)
    np.add.at(grad, problem._idx, problem._bq * (problem._qx / s)[:, None])
    grad[~problem.free] = 0.0
    return grad


def reference_sees_d_cells(p, q_marginal, f, h_prime) -> tuple:
    """SEES-d's per-cell systems found with ``parent == n`` masks.

    Returns ``(normalised cell masses, per-cell residuals, underdetermined
    cells)``; rank-deficient cells are anchored as the library does.
    """
    from scipy.optimize import nnls

    from sjslab.estimators import _anchored_solution

    q_marginal = q_marginal / q_marginal.sum()
    parent = h_prime.parent_cells(f)
    p_hp_label = reference_aggregate(p.mass, h_prime)
    p_hp = p_hp_label.sum(axis=1)
    q_hp = reference_aggregate(q_marginal, h_prime)
    p_f_label = reference_aggregate(p.mass, f)
    u = np.zeros((f.num_cells, p.num_labels))
    per_cell = np.zeros(f.num_cells)
    deficient, systems = [], {}
    for n in range(f.num_cells):
        rows = np.nonzero((parent == n) & (p_hp > 0.0))[0]
        cols = np.nonzero(p_f_label[n] > 0.0)[0]
        if rows.size == 0 or cols.size == 0:
            continue
        A = (p_hp_label[np.ix_(rows, cols)] / p_hp[rows, None]) / p_f_label[n, cols][None, :]
        sol, rnorm = nnls(A, q_hp[rows] / p_hp[rows])
        per_cell[n] = float(rnorm) ** 2
        s = np.linalg.svd(A, compute_uv=False)
        thresh = (s[0] * max(A.shape) * 1e-10) if s.size and s[0] > 0 else 0.0
        if int(np.sum(s > thresh)) < cols.size:
            deficient.append(n)
            systems[n] = (A, cols, sol)
        u[n, cols] = sol
    if deficient:
        det = np.ones(f.num_cells, dtype=bool)
        det[deficient] = False
        det_mass = u[det].sum(axis=0)
        det_source = p_f_label[det].sum(axis=0)
        for n in deficient:
            A, cols, sol = systems[n]
            rho = np.where(det_source[cols] > 0.0,
                           np.divide(det_mass[cols], det_source[cols],
                                     out=np.ones(cols.size), where=det_source[cols] > 0.0),
                           1.0)
            u[n, cols] = _anchored_solution(A, sol, p_f_label[n, cols] * rho)
    return u / u.sum(), per_cell, deficient


def sparse_instance(rng, cardinalities, num_labels, num_cells) -> tuple:
    """Source with zero-mass feature cells and (cell, label) pairs, a random
    partition with one all-zero cell, and a target feature marginal.

    Returns ``(source, partition, q_marginal)``.
    """
    space = FeatureSpace([f"X{k + 1}" for k in range(len(cardinalities))], cardinalities)
    cell_of = np.concatenate([rng.permutation(num_cells),
                              rng.integers(0, num_cells, space.num_cells - num_cells)])
    f = FeaturePartition(space, cell_of)
    mass = rng.uniform(0.05, 1.0, size=(space.num_cells, num_labels))
    mass[rng.random(mass.shape) < 0.2] = 0.0
    mass[rng.random(space.num_cells) < 0.2] = 0.0
    mass[f.cell_of == 0] = 0.0
    elsewhere = np.nonzero(f.cell_of != 0)[0]
    mass[rng.choice(elsewhere, num_labels), np.arange(num_labels)] = 1.0  # every label has mass
    source = FiniteJointDistribution(space, num_labels, mass / mass.sum())
    q = source.feature_marginal() * rng.uniform(0.5, 2.0, space.num_cells)
    return source, f, q / q.sum()


def awkward_source(rng, cardinalities, num_labels, shift_features, zero_cells=0.0,
                   zero_pairs=0.0, absent=0.0, margin=None) -> tuple:
    """Source whose f-cells are hard for the SEES-c solver, and its shift partition.

    Feature cells lose all their mass with probability ``zero_cells``,
    (cell, label) pairs with probability ``zero_pairs``, and each f-cell
    loses one label with probability ``absent``.  With ``margin``, one
    f-cell's class-conditional columns for two labels differ only by a
    relative perturbation of that size.  Returns ``(source, f)``, or
    ``None`` if some label is left without mass.
    """
    space = FeatureSpace([f"X{k + 1}" for k in range(len(cardinalities))], cardinalities)
    f = FeaturePartition.from_features(space, list(space.feature_names[:shift_features]))
    mass = rng.uniform(0.05, 1.0, size=(space.num_cells, num_labels))
    mass[rng.random(mass.shape) < zero_pairs] = 0.0
    mass[rng.random(space.num_cells) < zero_cells] = 0.0
    for n in np.nonzero(rng.random(f.num_cells) < absent)[0]:
        mass[f.cell_of == n, rng.integers(num_labels)] = 0.0
    if margin is not None:
        rows = f.cell_of == rng.integers(f.num_cells)
        i, j = rng.choice(num_labels, size=2, replace=False)
        wobble = 1.0 + margin * rng.uniform(-1.0, 1.0, int(rows.sum()))
        mass[rows, j] = mass[rows, i] * wobble * rng.uniform(0.5, 2.0)
    if np.any(mass.sum(axis=0) <= 0.0):
        return None
    return FiniteJointDistribution(space, num_labels, mass / mass.sum()), f


def awkward_planted(rng, margins=True):
    """Planted shift on an :func:`awkward_source` of drawn shape.

    2 or 3 features of 2 to 4 values, 2 or 3 labels, each kind of zero at
    rate 0 or 0.2 and, with ``margins``, a collinear f-cell at a margin of
    1e-2 to 1e-8 in three draws of five; without, the shift is on a
    proper feature subset.  Returns ``(source, f, planted instance)``, or
    ``None`` where :func:`awkward_source` gives none.
    """
    from sjslab import plant_sjs

    cards = rng.integers(2, 5, int(rng.integers(2, 4))).tolist()
    ell = int(rng.integers(2, 4))
    shifted = int(rng.integers(1, len(cards) + 1 if margins else len(cards)))
    zero_cells, zero_pairs, absent = rng.choice([0.0, 0.2], 3)
    margin = 10.0 ** -int(rng.integers(2, 9)) if margins and rng.random() < 0.6 else None
    built = awkward_source(rng, cards, ell, shifted, zero_cells, zero_pairs, absent, margin)
    if built is None:
        return None
    p, f = built
    return p, f, plant_sjs(p, f, rng.dirichlet(np.full(ell, 5.0)), "random",
                           seed=int(rng.integers(2 ** 31)))


def awkward_draws():
    """A ``hypothesis`` strategy of :func:`awkward_planted` instances, with and
    without collinear margins."""
    from hypothesis import strategies as st

    return (st.tuples(st.integers(0, 2 ** 32 - 1), st.booleans())
            .map(lambda draw: awkward_planted(np.random.default_rng(draw[0]), margins=draw[1]))
            .filter(lambda built: built is not None))


def awkward_instance(rng, margins=True):
    """:func:`awkward_planted` as ``(source, f, target feature marginal)``, or ``None``."""
    built = awkward_planted(rng, margins)
    return None if built is None else (*built[:2], built[2].target.feature_marginal())


def near_singular_cells(p, f, lo=1e-12, hi=1e-3) -> bool:
    """Has a positive-mass f-cell a smallest singular value between ``lo`` and ``hi`` of its largest?

    The singular values are those of the cell's conditional class matrix,
    with posterior statistics, over the labels with source mass in it.
    There ``rank_matrix`` and SEES-d rank different matrices (the first's
    singular values are about the squares of the second's), so near the
    threshold their verdicts may split.
    """
    from sjslab import posterior_statistics, rank_matrix

    matrices = rank_matrix(p, f, posterior_statistics(p)).per_cell_matrices
    for matrix, present in zip(matrices, p.project(f) > 0.0):
        if present.any():
            s = np.linalg.svd(matrix[:, present], compute_uv=False)
            if lo * s[0] < s[-1] < hi * s[0]:
                return True
    return False
