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
import numbers
import sys
from pathlib import Path

import numpy as np

from .datasets import load_source, load_target_marginal, write_posterior_csv
from .distribution import _finite_non_negative
from .errors import SjslabError, _checked, naming_file
from .estimators import (SEES_C_MAX_ITER, SEES_C_TOL, fit_from_cell_mass, sparsity_search,
                         train_argmax_classifier)
from .experiment import (
    EXIT_ERROR,
    EXIT_OK,
    METHODS,
    ExperimentConfig,
    fit_method,
    fit_status,
    run_experiment,
    write_json,
)
from .oracle import plant_sjs
from .shifts import (
    DEFAULT_TOL,
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

# Each hypothesis: its check, called as check(source, target, partition, tol),
# and whether it needs --target.
CHECKS = {
    "sjs": (check_sjs, True),
    "csh": (check_covariate_shift, True),
    "cdi": (check_cdi, True),
    "prior": (lambda p, q, f, tol: check_prior_shift(p, q, tol), True),
    "sufficiency": (lambda p, q, f, tol: check_sufficiency(p, f, tol), False),
    "variance": (lambda p, q, f, tol: binary_variance_criterion(p, f, tol), False),
}
HYPOTHESES = tuple(CHECKS)


def _parse_partition(space, text: str) -> FeaturePartition:
    text = (text or "").strip()
    if text in ("", "trivial"):
        return FeaturePartition.trivial(space)
    if text == "full":
        return FeaturePartition.full(space)
    return FeaturePartition.from_features(space, [s.strip() for s in text.split(",")])


def _cmd_plant(args) -> int:
    source = load_source(args.source)
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
    write_json(out / "planted_fit.json", planted)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise SjslabError(f"params must be a JSON object, got {args.params}")
    paths = generate_synthetic(args.kind, params, seed=args.seed, out_dir=args.out,
                               num_samples=args.samples)
    write_json(None, {"written": paths})
    return EXIT_OK


def _cmd_check(args) -> int:
    source = load_source(args.source)
    target = load_source(args.target) if args.target else None
    f = _parse_partition(source.space, args.partition)
    check, _ = CHECKS[args.hypothesis]
    write_json(args.out, check(source, target, f, args.tol).to_json_dict())
    return EXIT_OK


def _cmd_identifiability(args) -> int:
    source = load_source(args.source)
    g = _parse_partition(source.space, args.partition)
    if args.stats == "classifier":
        clf = train_argmax_classifier(source)
        stats = classifier_statistics(clf.assignment, source.num_labels)
    else:
        stats = posterior_statistics(source)
    report = rank_matrix(source, g, stats)
    payload = report.to_json_dict()
    payload["statistics"] = args.stats
    write_json(args.out, payload)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _finite_non_negative(args.tol, "tol")  # for every method and every searched subset
    _finite_non_negative(args.max_iter, "max_iter")
    _finite_non_negative(args.alpha, "smoothing_alpha")
    source = load_source(args.source, args.alpha)
    q_marginal = load_target_marginal(args.target_features, source, args.alpha)
    f = _parse_partition(source.space, args.shift_features)

    if args.search:
        candidates = [s.strip() for s in args.search.split(",")] if args.search != "all" \
            else list(source.space.feature_names)
        ranking = sparsity_search(source, q_marginal, candidates, args.penalty,
                                  lambda q, g: fit_method(args.method, source, q, g, args.tol,
                                                          args.max_iter))
        payload = {"ranking": [
            {"features": list(r.features), "objective": r.objective,
             "penalized_objective": r.penalized_objective, "error": r.error}
            for r in ranking]}
        best = next((r for r in ranking if r.fit is not None), None)
        if best is not None:
            payload["best"] = best.fit.to_json_dict()
        write_json(args.out, payload)
        return EXIT_OK

    fit = fit_method(args.method, source, q_marginal, f, args.tol, args.max_iter)
    write_json(args.out, fit.to_json_dict())
    if args.posterior_out:
        write_posterior_csv(args.posterior_out, source, fit.corrected_posterior)
    return fit_status(fit)[1]


def _fit_field(doc, key: str, what: str, kind):
    """Field ``key`` of a fit document, of ``kind`` as ``_checked`` reads it."""
    if not isinstance(doc, dict) or key not in doc:
        raise SjslabError(f"fit has no {key!r}")
    return _checked("fit", key, doc[key], kind, what)


def _cmd_correct(args) -> int:
    source = load_source(args.source)
    with naming_file(args.fit):
        fit_doc = json.loads(Path(args.fit).read_text())
        if isinstance(fit_doc, dict) and "ranking" in fit_doc:
            fit_doc = fit_doc.get("best", {})  # a search file: its best fit
        part = _fit_field(fit_doc, "partition", "an object", dict)
        u = np.asarray(_fit_field(fit_doc, "cell_label_mass", "a table of real numbers",
                                  [[numbers.Real]]), dtype=np.float64)
    f = FeaturePartition.from_description(source.space, part)
    fit = fit_from_cell_mass(source, f, u)
    write_posterior_csv(args.out, source, fit.corrected_posterior)
    return EXIT_OK


def _cmd_report(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_experiment(config)
    write_json(None, {"status": result.status, "exit_code": result.exit_code,
                      "outputs": result.outputs})
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("identifiability", help="conditional class matrix rank report")
    p.add_argument("--source", required=True)
    p.add_argument("--partition", default="")
    p.add_argument("--stats", default="posterior", choices=("posterior", "classifier"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_identifiability)

    p = sub.add_parser("estimate", help="fit target priors and posteriors")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--source", required=True)
    p.add_argument("--target-features", required=True)
    p.add_argument("--shift-features", default="")
    p.add_argument("--penalty", type=float, default=0.0)
    p.add_argument("--search", default=None,
                   help="comma-separated candidate features or 'all'; ranks subsets")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=SEES_C_TOL)
    p.add_argument("--max-iter", type=int, default=SEES_C_MAX_ITER)
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
    if args.command == "check" and CHECKS[args.hypothesis][1] and not args.target:
        parser.error(f"--target is required for hypothesis {args.hypothesis!r}")
    try:
        return args.func(args)
    except (SjslabError, OSError, ValueError, OverflowError, csv.Error) as exc:
        files = "".join(f"{note}: " for note in getattr(exc, "__notes__", ()))
        sys.stderr.write(f"error: {files}{exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
