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
        if schema.label_column is not None and schema.label_column not in header:
            raise SchemaViolation(f"missing label column {schema.label_column!r} in header")
        codes = {col: {v: k for k, v in enumerate(schema.feature_domains[col])}
                 for col in schema.feature_columns}
        label_codes = ({v: k for k, v in enumerate(schema.label_domain)}
                       if schema.label_domain else None)
        feat_rows, lab_rows = [], []
        for rownum, row in enumerate(reader):
            values = [row.get(col, "") for col in schema.feature_columns]
            label_value = row.get(schema.label_column, "") if schema.label_column else None
            cells = values + ([label_value] if schema.label_column else [])
            if any(v is None or v == "" for v in cells):
                if schema.missing_policy == "drop_row":
                    continue
                missing = [v in (None, "") for v in values]
                col = schema.feature_columns[missing.index(True)] if any(missing) \
                    else schema.label_column
                raise SchemaViolation("missing value", row=rownum, column=col)
            encoded = []
            for col, v in zip(schema.feature_columns, values):
                code = codes[col].get(str(v))
                if code is None:
                    raise SchemaViolation(f"value {v!r} not in declared domain",
                                          row=rownum, column=col)
                encoded.append(code)
            feat_rows.append(encoded)
            if schema.label_column:
                code = label_codes.get(str(label_value))
                if code is None:
                    raise SchemaViolation(f"label {label_value!r} not in declared domain",
                                          row=rownum, column=schema.label_column)
                lab_rows.append(code)
    return feat_rows, (lab_rows if schema.label_column else None)
