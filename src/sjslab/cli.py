"""Command line interface.

Subcommands: plant, simulate, check, identifiability, estimate, correct,
report.  All outputs are JSON or CSV and deterministic given the inputs
and the seed.  Exit codes: 0 success, 1 error, 2 usage, 3 fit did not
converge, 4 fit had underdetermined cells.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .distribution import FiniteJointDistribution
from .errors import SjslabError
from .estimators import (
    OptimizerOptions,
    sparsity_search,
    train_argmax_classifier,
)
from .experiment import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_UNDERDETERMINED,
    ExperimentConfig,
    fit_method,
    load_source,
    load_target_marginal,
    run_experiment,
    write_posterior_csv,
)
from .oracle import plant_sjs
from .shifts import (
    binary_variance_criterion,
    check_cdi,
    check_covariate_shift,
    check_prior_shift,
    check_sjs,
    check_sufficiency,
    classifier_statistics,
    posterior_statistics,
    rank_matrix,
)
from .space import FeaturePartition
from .synthetic import PRESET_KINDS, generate_synthetic

HYPOTHESES = ("sjs", "csh", "cdi", "prior", "sufficiency", "variance")


def _parse_partition(space, text: str) -> FeaturePartition:
    text = (text or "").strip()
    if text in ("", "trivial"):
        return FeaturePartition.trivial(space)
    if text == "full":
        return FeaturePartition.full(space)
    return FeaturePartition.from_features(space, [s.strip() for s in text.split(",")])


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_plant(args) -> int:
    source = FiniteJointDistribution.load(args.source)
    f = _parse_partition(source.space, args.shift_features)
    priors = [float(v) for v in args.priors.split(",")]
    inst = plant_sjs(source, f, priors, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inst.source.save(out / "source.json")
    inst.target.save(out / "target.json")
    planted = {
        "shift_features": args.shift_features,
        "priors": list(map(float, inst.planted_priors)),
        "cell_label_mass": inst.planted_cell_mass.tolist(),
        "cell_ratios": inst.cell_ratios.tolist(),
        "seed": args.seed,
    }
    (out / "planted_fit.json").write_text(json.dumps(planted, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = json.loads(args.params) if args.params else {}
    paths = generate_synthetic(args.kind, params, seed=args.seed, out_dir=args.out,
                               num_samples=args.samples)
    _emit({"written": paths}, None)
    return EXIT_OK


def _cmd_check(args) -> int:
    source = FiniteJointDistribution.load(args.source)
    target = FiniteJointDistribution.load(args.target) if args.target else None
    f = _parse_partition(source.space, args.partition)
    tol = args.tol
    if args.hypothesis == "sjs":
        verdict = check_sjs(source, target, f, tol)
    elif args.hypothesis == "csh":
        verdict = check_covariate_shift(source, target, f, tol)
    elif args.hypothesis == "cdi":
        verdict = check_cdi(source, target, f, tol)
    elif args.hypothesis == "prior":
        verdict = check_prior_shift(source, target, tol)
    elif args.hypothesis == "sufficiency":
        verdict = check_sufficiency(source, f, tol)
    else:
        verdict = binary_variance_criterion(source, f, tol)
    _emit(verdict.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_identifiability(args) -> int:
    source = FiniteJointDistribution.load(args.source)
    g = _parse_partition(source.space, args.partition)
    if args.stats == "classifier":
        clf = train_argmax_classifier(source)
        stats = classifier_statistics(clf.assignment, source.num_labels)
    else:
        stats = posterior_statistics(source)
    report = rank_matrix(source, g, stats)
    payload = report.to_json_dict()
    payload["statistics"] = args.stats
    _emit(payload, args.out)
    return EXIT_OK


def _fit_exit_code(fit) -> int:
    if not fit.diagnostics.get("converged", True):
        return EXIT_NOT_CONVERGED
    if fit.underdetermined:
        return EXIT_UNDERDETERMINED
    return EXIT_OK


def _cmd_estimate(args) -> int:
    source = load_source(args.source, args.alpha)
    q_marginal = load_target_marginal(args.target_features, source, args.alpha)
    f = _parse_partition(source.space, args.shift_features)

    if args.search:
        candidates = [s.strip() for s in args.search.split(",")] if args.search != "all" \
            else list(source.space.feature_names)
        ranking = sparsity_search(source, q_marginal, candidates, args.penalty,
                                  method="sees_c" if args.method == "sees-c" else "sees_d")
        payload = {"ranking": [
            {"features": list(r.features), "objective": r.objective,
             "penalized_objective": r.penalized_objective, "error": r.error}
            for r in ranking]}
        best = next((r for r in ranking if r.fit is not None), None)
        if best is not None:
            payload["best"] = best.fit.to_json_dict()
        _emit(payload, args.out)
        return EXIT_OK

    fit = fit_method(args.method, source, q_marginal, f,
                     OptimizerOptions(tol=args.tol, max_iter=args.max_iter))
    _emit(fit.to_json_dict(), args.out)
    if args.posterior_out:
        write_posterior_csv(args.posterior_out, source, fit.corrected_posterior)
    return _fit_exit_code(fit)


def _cmd_correct(args) -> int:
    source = FiniteJointDistribution.load(args.source)
    fit_doc = json.loads(Path(args.fit).read_text())
    part = fit_doc["partition"]
    if part.get("type") == "features":
        f = FeaturePartition.from_features(source.space, part["features"])
    else:
        f = FeaturePartition(source.space, np.asarray(part["cell_of"], dtype=np.int64))
    u = np.asarray(fit_doc["cell_label_mass"], dtype=np.float64)
    from .estimators import _fit_from_cell_mass
    fit = _fit_from_cell_mass(source, f, u, fit_doc.get("residual", 0.0),
                              fit_doc.get("method", "sees_d"), {})
    write_posterior_csv(args.out, source, fit.corrected_posterior)
    return EXIT_OK


def _cmd_report(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_experiment(config)
    _emit({"status": result.status, "exit_code": result.exit_code,
           "outputs": result.outputs}, None)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sjslab",
                                     description="Sparse joint shift toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plant", help="construct a shifted target with known truth")
    p.add_argument("--source", required=True)
    p.add_argument("--shift-features", required=True)
    p.add_argument("--priors", required=True, help="comma-separated target priors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plant)

    p = sub.add_parser("simulate", help="write a synthetic preset instance")
    p.add_argument("--kind", required=True, choices=PRESET_KINDS)
    p.add_argument("--params", default=None, help="JSON dict of preset parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="verify a shift hypothesis between two tables")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=False, default=None)
    p.add_argument("--partition", default="", help="comma-separated features, 'trivial' or 'full'")
    p.add_argument("--hypothesis", required=True, choices=HYPOTHESES)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("identifiability", help="conditional class matrix rank report")
    p.add_argument("--source", required=True)
    p.add_argument("--partition", default="")
    p.add_argument("--stats", default="posterior", choices=("posterior", "classifier"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_identifiability)

    p = sub.add_parser("estimate", help="fit target priors and posteriors")
    p.add_argument("--method", required=True, choices=("sees-c", "sees-d", "confusion"))
    p.add_argument("--source", required=True)
    p.add_argument("--target-features", required=True)
    p.add_argument("--shift-features", default="")
    p.add_argument("--classifier", default="argmax", choices=("argmax",))
    p.add_argument("--penalty", type=float, default=0.0)
    p.add_argument("--search", default=None,
                   help="comma-separated candidate features or 'all'; ranks subsets")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--posterior-out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("correct", help="corrected posterior CSV from a saved fit")
    p.add_argument("--source", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("report", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "hypothesis", None) in ("sjs", "csh", "cdi", "prior") \
            and not getattr(args, "target", None):
        parser.error(f"--target is required for hypothesis {args.hypothesis!r}")
    try:
        return args.func(args)
    except (SjslabError, OSError, ValueError, csv.Error) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
