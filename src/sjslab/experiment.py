"""End-to-end experiment orchestration and reporting.

A run loads the source and target data, estimates the target under the
configured shift hypothesis, and writes four artefacts into the output
directory: the fit, the corrected posterior, the identifiability report
and a manifest (config, hashed inputs, versions) that pins the run down
for bit-exact reproduction.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import platform
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
# infer_schema is not called here: benchmarks/tracing.py looks it up in this module by name.
from .datasets import (infer_schema, load_source, load_target_marginal,  # noqa: F401
                       write_posterior_csv)
from .distribution import FiniteJointDistribution, _finite_non_negative
from .errors import InvalidDistribution, SjslabError, _checked, naming_file
from .estimators import (SEES_C_MAX_ITER, SEES_C_TOL, sees_c_fit, sees_d_fit,
                         sees_d_fit_with_classifier, train_argmax_classifier)
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
    optimizer_tol: float = SEES_C_TOL
    max_iter: int = SEES_C_MAX_ITER

    def __post_init__(self):
        for key, what, kind in (("source_path", "a string", str),
                                ("target_path", "a string", str),
                                ("output_dir", "a string", str),
                                ("shift_features", "a list of strings", [str]),
                                ("smoothing_alpha", "a real number", numbers.Real),
                                ("optimizer_tol", "a real number", numbers.Real),
                                ("max_iter", "an integer", numbers.Integral)):
            _checked("config", key, getattr(self, key), kind, what)
        for key in ("smoothing_alpha", "optimizer_tol", "max_iter"):
            _finite_non_negative(getattr(self, key), key)
        if self.method not in METHODS:
            raise InvalidDistribution(f"method must be one of {METHODS}")
        object.__setattr__(self, "shift_features", tuple(self.shift_features))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """The config a JSON file holds; an error names the file."""
        with naming_file(path):
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise SjslabError("config must be a JSON object")
            known = {f.name: f for f in fields(cls)}
            unknown = sorted(set(data) - set(known))
            if unknown:
                raise SjslabError(f"unknown config keys: {', '.join(unknown)}")
            missing = [name for name, f in known.items()
                       if f.default is MISSING and name not in data]
            if missing:
                raise SjslabError(f"missing config keys: {', '.join(missing)}")
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


def fit_method(method: str, source: FiniteJointDistribution, q_marginal: np.ndarray,
               f: FeaturePartition, tol: float, max_iter: int):
    """Fit with one of :data:`METHODS`; ``tol`` and ``max_iter`` are used by SEES-c only."""
    if method == "sees-c":
        return sees_c_fit(source, q_marginal, f, tol, max_iter)
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


def write_json(path, doc: dict) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline to ``path`` or stdout."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and write its report files.

    Exit code 0 on success, 3 when the iterative fit stopped before its
    tolerance, 4 when some cell system was underdetermined.  Errors from
    the inner modules (absolute continuity, schema, degenerate labels)
    propagate to the caller with their context intact.
    """
    source = load_source(config.source_path, config.smoothing_alpha)
    q_marginal = load_target_marginal(config.target_path, source, config.smoothing_alpha)
    f = FeaturePartition.from_features(source.space, config.shift_features)

    fit = fit_method(config.method, source, q_marginal, f, config.optimizer_tol, config.max_iter)

    report = rank_matrix(source, f, posterior_statistics(source))

    out = Path(config.output_dir)  # only now: a run whose inputs or fit fail leaves none
    out.mkdir(parents=True, exist_ok=True)
    outputs = {
        "fit": out / "fit.json",
        "posterior": out / "corrected_posterior.csv",
        "rank_report": out / "rank_report.json",
        "manifest": out / "manifest.json",
    }
    write_json(outputs["fit"], fit.to_json_dict())
    write_posterior_csv(outputs["posterior"], source, fit.corrected_posterior)
    write_json(outputs["rank_report"], report.to_json_dict())

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
    write_json(outputs["manifest"], manifest)
    return ExperimentResult(fit, report, exit_code, status,
                            {k: str(v) for k, v in outputs.items()})
