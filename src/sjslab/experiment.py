"""End-to-end experiment orchestration and reporting.

A run loads the source and target data, estimates the target under the
configured shift hypothesis, and writes four artefacts into the output
directory: the fit, the corrected posterior, the identifiability report
and a manifest (config, hashed inputs, versions) that pins the run down
for bit-exact reproduction.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    MISSING_ID,
    DatasetSchema,
    column_positions,
    empirical_distribution,
    load_dataset,
    read_csv_tokens,
    schema_for_distribution,
)
from .distribution import FiniteJointDistribution
from .errors import InvalidDistribution, SchemaViolation, SjslabError
from .estimators import (
    OptimizerOptions,
    sees_c_fit,
    sees_d_fit,
    sees_d_fit_with_classifier,
    train_argmax_classifier,
)
from .shifts import posterior_statistics, rank_matrix
from .space import FeaturePartition

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3
EXIT_UNDERDETERMINED = 4

METHODS = ("sees-c", "sees-d", "confusion")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs and knobs of one estimation run."""

    source_path: str
    target_path: str
    shift_features: tuple
    method: str = "sees-d"
    smoothing_alpha: float = 0.0
    output_dir: str = "run"
    optimizer_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidDistribution(f"method must be one of {METHODS}")
        for path in (self.source_path, self.target_path):
            if not Path(path).exists():
                raise InvalidDistribution(f"input file does not exist: {path}")
        object.__setattr__(self, "shift_features", tuple(self.shift_features))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise SjslabError(f"config {path} must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise SjslabError(f"unknown config keys in {path}: {', '.join(unknown)}")
        missing = [name for name, f in known.items()
                   if f.default is MISSING and name not in data]
        if missing:
            raise SjslabError(f"missing config keys in {path}: {', '.join(missing)}")
        return cls(**data)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    fit: object
    rank_report: object
    exit_code: int
    status: str
    outputs: dict = field(default_factory=dict)


def infer_schema(path, labelled: bool) -> DatasetSchema:
    """Schema from a CSV's observed values, ordered shortest first, then lexicographically."""
    path = Path(path)
    header, spellings, ids = read_csv_tokens(path)
    if not header:
        raise SchemaViolation(f"{path} has no header")
    label_col = "label" if labelled and "label" in header else None
    if labelled and label_col is None:
        raise SchemaViolation("labelled CSV must have a 'label' column")
    position = column_positions(header)

    def observed(col):
        used = np.unique(ids[:, position[col]])
        return sorted((spellings[k] for k in used if k != MISSING_ID),
                      key=lambda s: (len(s), s))

    domains = {c: observed(c) for c in header if c != label_col}
    if label_col:
        return DatasetSchema(domains, label_column=label_col, label_domain=observed(label_col))
    return DatasetSchema(domains)


def load_source(path, smoothing_alpha: float = 0.0) -> FiniteJointDistribution:
    """Source joint from exact JSON or a labelled CSV sample.

    A table read from CSV keeps the feature values it saw as its
    ``domains``, so that a target sample is decoded with the same
    spellings.
    """
    path = Path(path)
    if path.suffix == ".json":
        return FiniteJointDistribution.load(path)
    schema = infer_schema(path, labelled=True)
    dist = empirical_distribution(load_dataset(path, schema), smoothing_alpha)
    return FiniteJointDistribution(dist.space, dist.num_labels, dist.mass,
                                   [schema.feature_domains[c] for c in schema.feature_columns])


def load_target_marginal(path, source: FiniteJointDistribution,
                         smoothing_alpha: float = 0.0) -> np.ndarray:
    """Target feature marginal from exact JSON or a feature-only CSV sample.

    CSV columns are decoded with the source's value spellings (its
    ``domains``, or the codes ``0..card-1`` when it has none); values
    outside them are schema violations.
    """
    path = Path(path)
    if path.suffix == ".json":
        target = FiniteJointDistribution.load(path)
        want, got = source.space, target.space
        if (got.feature_names, got.cardinalities) != (want.feature_names, want.cardinalities):
            raise SchemaViolation(
                f"target {path} has features {dict(zip(got.feature_names, got.cardinalities))}, "
                f"source has {dict(zip(want.feature_names, want.cardinalities))}")
        for name, ours, theirs in zip(want.feature_names, source.domains or (),
                                      target.domains or ()):
            if ours != theirs:
                raise SchemaViolation(f"target {path} spells feature {name!r} as "
                                      f"{list(theirs)}, source as {list(ours)}")
        return target.feature_marginal()
    rows = load_dataset(path, schema_for_distribution(source, labelled=False))
    return empirical_distribution(rows, smoothing_alpha)


def fit_method(method: str, source: FiniteJointDistribution, q_marginal: np.ndarray,
               f: FeaturePartition, opts: OptimizerOptions):
    """Fit with one of :data:`METHODS`; ``opts`` is used by SEES-c only."""
    if method == "sees-c":
        return sees_c_fit(source, q_marginal, f, opts)
    if method == "sees-d":
        return sees_d_fit(source, q_marginal, f)
    return sees_d_fit_with_classifier(source, q_marginal, f, f, train_argmax_classifier(source))


def fit_status(fit) -> tuple:
    """``(status, exit code)`` of a fit: not converged (3) before underdetermined (4)."""
    if not fit.diagnostics.get("converged", True):
        return "not_converged", EXIT_NOT_CONVERGED
    if fit.underdetermined:
        return "underdetermined", EXIT_UNDERDETERMINED
    return "ok", EXIT_OK


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_posterior_csv(path, source: FiniteJointDistribution, table) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(source.space.feature_names)
                        + [f"posterior_{i}" for i in range(table.num_labels)]
                        + ["defined"])
        writer.writerows(coords + [repr(v) for v in values] + [int(defined)]
                         for coords, values, defined in zip(source.space.all_coords().tolist(),
                                                            table.values.tolist(),
                                                            table.defined.tolist()))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and write its report files.

    Exit code 0 on success, 3 when the iterative fit stopped before its
    tolerance, 4 when some cell system was underdetermined.  Errors from
    the inner modules (absolute continuity, schema, degenerate labels)
    propagate to the caller with their context intact.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = load_source(config.source_path, config.smoothing_alpha)
    q_marginal = load_target_marginal(config.target_path, source, config.smoothing_alpha)
    f = FeaturePartition.from_features(source.space, config.shift_features)

    fit = fit_method(config.method, source, q_marginal, f,
                     OptimizerOptions(tol=config.optimizer_tol, max_iter=config.max_iter))

    report = rank_matrix(source, f, posterior_statistics(source))

    outputs = {
        "fit": out / "fit.json",
        "posterior": out / "corrected_posterior.csv",
        "rank_report": out / "rank_report.json",
        "manifest": out / "manifest.json",
    }
    outputs["fit"].write_text(json.dumps(fit.to_json_dict(), sort_keys=True, indent=2) + "\n")
    write_posterior_csv(outputs["posterior"], source, fit.corrected_posterior)
    outputs["rank_report"].write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")

    status, exit_code = fit_status(fit)
    manifest = {
        "config": config.to_json_dict(),
        "inputs": {
            "source": {"path": config.source_path, "sha256": _sha256(config.source_path)},
            "target": {"path": config.target_path, "sha256": _sha256(config.target_path)},
        },
        "status": status,
        "exit_code": exit_code,
        "outputs": sorted(p.name for p in outputs.values()),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sjslab": __version__,
        },
    }
    outputs["manifest"].write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return ExperimentResult(fit, report, exit_code, status,
                            {k: str(v) for k, v in outputs.items()})
