"""The three workloads: their operations and the checks on every output.

One *pass* of a workload is a fixed list of operations; a run repeats
whole passes.  Each operation is timed alone; its check runs after the
clock stops and compares the output with truth computed by
``inputs.py`` (never by sjslab) or with a property the method must
have.  An operation *fails* when the program reports failure (a CLI
exit code other than 0, or an sjslab error from a library call); a
check that rejects the output of an operation that did not fail makes
the run incorrect.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import sjslab.cli
from sjslab import FeaturePartition, FeatureSpace, FiniteJointDistribution, SjslabError
from sjslab import estimators, shifts

EXACT_TOL = 1e-8       # SEES-d priors and posteriors on exact inputs
SEES_C_TOL = 1e-3      # SEES-c priors (acceptance criterion 3)
RESIDUAL_TOL = 1e-12   # search residual of every superset of the planted features
IDENTITY_TOL = 1e-10   # total-expectation identity


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own truth."""


def require_close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:  # also catches NaN
        raise CheckFailed(f"{what}: max error {err:.3g} above {tol:g}")


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list) -> CliResult:
    """``sjslab.cli.main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sjslab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One timed operation and the check of its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: list = field(default_factory=list)  # files the operation writes

    def failure(self, result) -> str | None:
        if isinstance(result, CliResult) and result.code != 0:
            return f"exit {result.code}: {result.stderr.strip()[:200]}"
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        return None


def cli_op(name: str, argv: list, check, outputs=()) -> Op:
    return Op(name, lambda: run_cli(argv), check, [Path(p) for p in outputs])


def _fit_priors(path) -> np.ndarray:
    return np.asarray(json.loads(Path(path).read_text())["target_priors"])


# -- csv_report -------------------------------------------------------------------


def csv_report(seed: int, run_dir: Path) -> list:
    """``sjslab report`` on the CSVs that ``inputs.write_csv_inputs`` wrote."""
    inst = inputs.csv_instance(seed)
    report = run_dir / "report"
    num_cells = inst.posterior.shape[0]

    def check(result):
        require_close(_fit_priors(report / "fit.json"), inst.priors, EXACT_TOL,
                      "report target priors")
        got = inputs.read_posterior_csv(report / "corrected_posterior.csv", num_cells,
                                        inputs.CSV_LABELS)
        require_close(got, inst.posterior, EXACT_TOL, "report corrected posterior")

    outputs = [report / n for n in ("fit.json", "corrected_posterior.csv",
                                    "rank_report.json", "manifest.json")]
    return [cli_op("report", ["report", "--config", str(run_dir / "config.json")],
                   check, outputs)]


# -- table_study --------------------------------------------------------------------


class _Planted:
    """Truth of one planted instance, read from the target the plant wrote."""

    def __init__(self, inst: inputs.TableInstance, d: Path):
        self.inst = inst
        self.dir = d
        self.cell_of, self.num_f = inputs.partition(inst.cards, inst.shifted)
        self.posterior = None

    def check_plant(self, result) -> None:
        inst = self.inst
        source = inputs.read_table(self.dir / "planted" / "source.json")
        require_close(source, inst.source, 1e-12, f"{inst.name} planted source")
        target = inputs.read_table(self.dir / "planted" / "target.json")
        require_close(target.sum(axis=0), inst.priors, 1e-10, f"{inst.name} planted priors")
        require(inputs.is_sjs(source, target, self.cell_of, self.num_f),
                f"{inst.name}: planted target is not shifted on {inst.shift_names} only")
        self.posterior = inputs.posterior(target)

    def check_verdict(self, result) -> None:
        doc = json.loads((self.dir / "check.json").read_text())
        require(doc["hypothesis"] == "sjs" and doc["holds"] is True,
                f"{self.inst.name}: check says shift on {self.inst.shift_names} fails")

    def check_identifiable(self, result) -> None:
        doc = json.loads((self.dir / "identifiability.json").read_text())
        require(doc["identifiable"] is True, f"{self.inst.name}: reported not identifiable")

    def check_posterior(self, path, what) -> None:
        require(self.posterior is not None, f"{self.inst.name}: no planted target")
        got = inputs.read_posterior_csv(path, self.posterior.shape[0], self.inst.ell)
        require_close(got, self.posterior, EXACT_TOL, f"{self.inst.name} {what} posterior")

    def check_sees_d(self, result) -> None:
        require_close(_fit_priors(self.dir / "fit_d.json"), self.inst.priors, EXACT_TOL,
                      f"{self.inst.name} SEES-d priors")
        self.check_posterior(self.dir / "posterior_d.csv", "SEES-d")

    def check_sees_c(self, result) -> None:
        require_close(_fit_priors(self.dir / "fit_c.json"), self.inst.priors, SEES_C_TOL,
                      f"{self.inst.name} SEES-c priors")

    def check_correct(self, result) -> None:
        self.check_posterior(self.dir / "posterior_corrected.csv", "corrected")

    def check_search(self, result) -> None:
        planted = set(self.inst.shift_names)
        ranking = json.loads((self.dir / "search.json").read_text())["ranking"]
        supersets = [r for r in ranking if planted <= set(r["features"])]
        require(bool(supersets), f"{self.inst.name}: search evaluated no superset")
        for r in supersets:
            require(r["error"] is None and r["objective"] <= RESIDUAL_TOL,
                    f"{self.inst.name}: superset {r['features']} has residual "
                    f"{r['objective']} (error {r['error']})")


def _instance_ops(t: _Planted) -> list:
    inst, d = t.inst, t.dir
    src, tgt = str(d / "planted" / "source.json"), str(d / "planted" / "target.json")
    shift = ",".join(inst.shift_names)
    priors = ",".join(repr(float(v)) for v in inst.priors)
    fit = ["--source", src, "--target-features", tgt, "--shift-features", shift]
    ops = [
        cli_op(f"{inst.name}.plant",
               ["plant", "--source", str(d / "source.json"), "--shift-features", shift,
                "--priors", priors, "--seed", str(inst.plant_seed), "--out", str(d / "planted")],
               t.check_plant, [d / "planted"]),
        cli_op(f"{inst.name}.check",
               ["check", "--source", src, "--target", tgt, "--partition", shift,
                "--hypothesis", "sjs", "--out", str(d / "check.json")],
               t.check_verdict, [d / "check.json"]),
        cli_op(f"{inst.name}.identifiability",
               ["identifiability", "--source", src, "--partition", shift,
                "--out", str(d / "identifiability.json")],
               t.check_identifiable, [d / "identifiability.json"]),
        cli_op(f"{inst.name}.sees_d",
               ["estimate", "--method", "sees-d", *fit, "--out", str(d / "fit_d.json"),
                "--posterior-out", str(d / "posterior_d.csv")],
               t.check_sees_d, [d / "fit_d.json", d / "posterior_d.csv"]),
    ]
    if not inst.search:
        # SEES-c runs on the 4096-cell tables only: on desk-scale draws it
        # reports non-convergence for some seeds and not others (README,
        # "Known faults"), which would make the failed share depend on the seed.
        ops.append(cli_op(f"{inst.name}.sees_c",
                          ["estimate", "--method", "sees-c", *fit, "--out", str(d / "fit_c.json"),
                           "--posterior-out", str(d / "posterior_c.csv")],
                          t.check_sees_c, [d / "fit_c.json", d / "posterior_c.csv"]))
    ops.append(cli_op(f"{inst.name}.correct",
                      ["correct", "--source", src, "--fit", str(d / "fit_d.json"),
                       "--out", str(d / "posterior_corrected.csv")],
                      t.check_correct, [d / "posterior_corrected.csv"]))
    if inst.search:
        ops.append(cli_op(f"{inst.name}.search",
                          ["estimate", "--method", "sees-d", "--search", "all",
                           "--source", src, "--target-features", tgt,
                           "--out", str(d / "search.json")],
                          t.check_search, [d / "search.json"]))
    return ops


def table_study(seed: int, run_dir: Path) -> list:
    """CLI commands on every instance ``inputs.write_table_inputs`` wrote."""
    ops = []
    for inst in inputs.table_instances(seed):
        ops += _instance_ops(_Planted(inst, run_dir / inst.name))
    return ops


# -- wide_fit ------------------------------------------------------------------------


@dataclass
class WideResult:
    priors: np.ndarray
    posterior: np.ndarray
    identifiable: bool
    sjs_holds: bool
    identity_deviation: float


class WideInputs:
    """The in-memory tables of wide_fit, built during set-up."""

    def __init__(self, seed: int):
        self.truth = inputs.wide_instance(seed)
        names = inputs.feature_names(len(inputs.WIDE_CARDS))
        space = FeatureSpace(names, inputs.WIDE_CARDS)
        self.source = FiniteJointDistribution(space, inputs.WIDE_LABELS, self.truth.source)
        self.target = FiniteJointDistribution(space, inputs.WIDE_LABELS, self.truth.target)
        self.q_marginal = self.target.feature_marginal()
        self.partitions = {"coarse": [names[j] for j in inputs.WIDE_COARSE],
                           "fine": [names[j] for j in inputs.WIDE_FINE]}


def wide_pass(w: WideInputs) -> dict:
    """The library calls of one operation; looked up through their modules
    so that traced runs see them."""
    out = {}
    for label, names in w.partitions.items():
        f = FeaturePartition.from_features(w.source.space, names)
        fit = estimators.sees_d_fit(w.source, w.q_marginal, f)
        corrected = estimators.posterior_correct(w.source, fit)
        stats = shifts.posterior_statistics(w.source)
        report = shifts.rank_matrix(w.source, f, stats)
        verdict = shifts.check_sjs(w.source, w.target, f)
        deviation = shifts.verify_total_expectation(w.source, f, stats)
        out[label] = WideResult(np.asarray(fit.target_priors), corrected.values,
                                report.identifiable, verdict.holds, deviation)
    return out


def check_wide(results: dict, truth: inputs.WideInstance) -> None:
    for label, r in results.items():
        require_close(r.priors, truth.priors, EXACT_TOL, f"{label} SEES-d priors")
        require_close(r.posterior, truth.posterior, EXACT_TOL, f"{label} corrected posterior")
        require(r.identifiable, f"{label}: rank report says not identifiable")
        require(r.sjs_holds, f"{label}: check_sjs says the planted shift fails")
        require(r.identity_deviation <= IDENTITY_TOL,
                f"{label}: total-expectation deviation {r.identity_deviation:.3g}")


def wide_fit(w: WideInputs) -> list:
    def run():
        try:
            return wide_pass(w)
        except SjslabError as exc:
            return exc
    return [Op("wide", run, lambda r: check_wide(r, w.truth))]


def build(workload: str, seed: int):
    """In-memory inputs, built as part of set-up (only wide_fit has any)."""
    return WideInputs(seed) if workload == "wide_fit" else None


def operations(workload: str, seed: int, run_dir: Path, built) -> list:
    if workload == "csv_report":
        return csv_report(seed, run_dir)
    if workload == "table_study":
        return table_study(seed, run_dir)
    return wide_fit(built)
