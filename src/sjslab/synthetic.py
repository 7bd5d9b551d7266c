"""Built-in synthetic shift instances and dataset generation.

Five preset kinds cover the interesting corners of the shift landscape:

* ``paper_example``: a fixed two-binary-feature instance in which sparse
  joint shift on X1, covariate shift on X1 and full covariate shift all
  hold at once while plain prior shift fails.
* ``cdi_not_sjs``: conditional distribution invariance on X1 holds but
  neither full covariate shift nor sparse joint shift on X1 does (the
  target posterior is the squared source posterior).
* ``sjs``: a seeded random instance with shift planted on a feature subset.
* ``prior_shift``: only the label priors move.
* ``covariate_shift``: only the feature marginal moves; posteriors are kept.

Each preset can be written to disk as exact distribution JSON plus
sampled CSVs; outputs are byte-identical for a fixed seed.
"""

from __future__ import annotations

import numbers
from pathlib import Path

import numpy as np

from .datasets import sample_rows, schema_for_distribution, write_rows_csv
from .distribution import FiniteJointDistribution, _finite_non_negative
from .errors import InvalidDistribution, _checked
from .experiment import write_json
from .oracle import plant_sjs
from .space import FeaturePartition, FeatureSpace

# The params each preset kind reads; any other key is an error.
_PRESET_PARAMS = {
    "sjs": ("num_features", "cardinalities", "num_labels", "priors", "shift_features"),
    "prior_shift": ("num_features", "cardinalities", "num_labels", "priors"),
    "covariate_shift": ("num_features", "cardinalities", "num_labels"),
    "cdi_not_sjs": (),
    "paper_example": (),
}
PRESET_KINDS = tuple(_PRESET_PARAMS)


# What each param must be, and its kind as ``errors._checked`` reads it.
_PARAM_TYPES = {
    "num_features": ("an integer", numbers.Integral),
    "cardinalities": ("a list of integers", [numbers.Integral]),
    "num_labels": ("an integer", numbers.Integral),
    "priors": ("a list of real numbers", [numbers.Real]),
    "shift_features": ("a list of feature names", [str]),
}


def product_distribution(priors, conditionals, feature_names=None) -> FiniteJointDistribution:
    """Joint table with features independent given the label.

    ``conditionals`` is a list (one entry per feature) of per-label value
    distributions: ``conditionals[j][y]`` is the distribution of feature
    ``j`` given label ``y``.
    """
    priors = np.asarray(priors, dtype=np.float64)
    ell = priors.size
    cards = [len(c[0]) for c in conditionals]
    names = feature_names or [f"X{j + 1}" for j in range(len(conditionals))]
    space = FeatureSpace(names, cards)
    coords = space.all_coords()
    mass = np.tile(priors, (space.num_cells, 1))
    for j, cond in enumerate(conditionals):
        table = np.asarray(cond, dtype=np.float64)  # (ell, card_j)
        mass *= table[:, coords[:, j]].T
    return FiniteJointDistribution(space, ell, mass)


def paper_example_tables() -> tuple:
    """The fixed coexisting-shift instance (source, target).

    Source: uniform labels; X1 is informative (0.6/0.4 split), X2 is
    informative the other way (0.2/0.6).  Target: the source reweighted
    by an X1-measurable factor chosen so the target's X1 law moves to
    0.4/0.6 while every label posterior is preserved.  Consequences,
    exact by construction: shift on X1 holds, prior shift fails,
    covariate shift holds on X1 (posteriors 0.6 and 0.4) and on the full
    features, and the corrected posterior equals the source posterior.
    """
    source = product_distribution(
        [0.5, 0.5],
        [
            [[0.6, 0.4], [0.4, 0.6]],  # X1 given label 0 / label 1
            [[0.4, 0.6], [0.8, 0.2]],  # X2 given label 0 / label 1
        ],
    )
    x1 = source.space.all_coords()[:, 0]
    weight = np.where(x1 == 1, 0.8, 1.2)
    target = FiniteJointDistribution(source.space, 2, source.mass * weight[:, None])
    return source, target


def cdi_not_sjs_tables() -> tuple:
    """Instance with an X1-measurable feature-marginal density but a
    squared target posterior, so conditional invariance holds while
    covariate shift and sparse joint shift on X1 both fail."""
    source, _ = paper_example_tables()
    x1 = source.space.all_coords()[:, 0]
    weight = np.where(x1 == 1, 0.8, 1.2)
    q_features = source.feature_marginal() * weight
    post1 = source.full_posterior.values[:, 1]
    mass = np.stack([q_features * (1.0 - post1 ** 2), q_features * post1 ** 2], axis=1)
    return source, FiniteJointDistribution(source.space, 2, mass)


def _random_source(rng, num_features: int, cardinalities, num_labels: int):
    space = FeatureSpace([f"X{j + 1}" for j in range(num_features)], cardinalities)
    mass = rng.uniform(0.05, 1.0, size=(space.num_cells, num_labels))
    return FiniteJointDistribution(space, num_labels, mass / mass.sum())


def make_preset(kind: str, params: dict | None = None, seed: int = 0) -> tuple:
    """Build (source, target, shift_feature_names) for a preset kind; ``seed`` must be >= 0."""
    _finite_non_negative(seed, "seed")
    params = dict(params or {})
    if kind not in PRESET_KINDS:
        raise InvalidDistribution(f"unknown preset kind {kind!r}; have {PRESET_KINDS}")
    unknown = [str(key) for key in params if key not in _PRESET_PARAMS[kind]]
    if unknown:
        raise InvalidDistribution(f"unknown params for kind {kind!r}: {', '.join(unknown)}")
    for key, value in params.items():
        what, expected = _PARAM_TYPES[key]
        _checked("params", key, value, expected, what)
    if kind == "paper_example":
        source, target = paper_example_tables()
        return source, target, ("X1",)
    if kind == "cdi_not_sjs":
        source, target = cdi_not_sjs_tables()
        return source, target, ("X1",)

    rng = np.random.default_rng(seed)
    num_features = int(params.get("num_features", 3))
    cards = params.get("cardinalities", [2] * num_features)
    if len(cards) != num_features:
        raise InvalidDistribution("cardinalities must match num_features")
    num_labels = int(params.get("num_labels", 2))
    source = _random_source(rng, num_features, cards, num_labels)

    if kind == "prior_shift":
        priors = np.asarray(params.get("priors", rng.dirichlet(np.ones(num_labels) * 4)))
        inst = plant_sjs(source, FeaturePartition.trivial(source.space), priors,
                         np.ones((1, num_labels)), seed=seed)
        return source, inst.target, ()
    if kind == "covariate_shift":
        reweight = rng.uniform(0.3, 3.0, size=source.space.num_cells)
        q_features = source.feature_marginal() * reweight
        q_features /= q_features.sum()
        post = source.full_posterior.values
        target = FiniteJointDistribution(source.space, num_labels,
                                         post * q_features[:, None])
        return source, target, tuple(source.space.feature_names)
    # kind == "sjs"
    shift_features = tuple(params.get("shift_features", source.space.feature_names[:1]))
    f = FeaturePartition.from_features(source.space, shift_features)
    priors = np.asarray(params.get("priors", rng.dirichlet(np.ones(num_labels) * 4)))
    inst = plant_sjs(source, f, priors, "random", seed=seed)
    return source, inst.target, shift_features


def generate_synthetic(kind: str, params: dict | None = None, seed: int = 0,
                       out_dir=None, num_samples: int = 1000) -> dict:
    """Write a preset's exact tables and sampled CSVs to a directory.

    Emits ``source.json`` and ``target.json`` (exact tables),
    ``source_sample.csv`` (labelled rows), ``target_features.csv``
    (feature-only rows) and ``meta.json``.  Returns the path map.
    """
    if num_samples < 1:
        raise InvalidDistribution(f"num_samples must be at least 1, got {num_samples}")
    source, target, shift_features = make_preset(kind, params, seed)
    out_dir = Path(out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("source.json", "target.json", "source_sample.csv",
              "target_features.csv", "meta.json")}
    source.save(paths["source.json"])
    target.save(paths["target.json"])

    schema = schema_for_distribution(source)
    feats, labels = sample_rows(source, num_samples, np.random.default_rng((seed, 1)))
    write_rows_csv(paths["source_sample.csv"], schema, feats, labels)
    feats_t, _ = sample_rows(target, num_samples, np.random.default_rng((seed, 2)),
                             labelled=False)
    write_rows_csv(paths["target_features.csv"], schema_for_distribution(target, labelled=False),
                   feats_t)

    meta = {
        "kind": kind,
        "seed": seed,
        "num_samples": num_samples,
        "params": {k: (list(v) if isinstance(v, (tuple, list, np.ndarray)) else v)
                   for k, v in (params or {}).items()},
        "shift_features": list(shift_features),
        "files": sorted(p.name for p in paths.values()),
    }
    write_json(paths["meta.json"], meta)
    return {k: str(v) for k, v in paths.items()}
