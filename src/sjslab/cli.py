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
from .errors import SjslabError, _field, naming_file
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
    try:
        priors = [float(v) for v in args.priors.split(",")]
    except ValueError:
        raise SjslabError(f"priors must be comma-separated numbers, got {args.priors!r}") from None
    source = load_source(args.source)
    f = _parse_partition(source.space, args.shift_features)
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


def _cmd_correct(args) -> int:
    source = load_source(args.source)
    with naming_file(args.fit):
        fit_doc = json.loads(Path(args.fit).read_text())
        if isinstance(fit_doc, dict) and "ranking" in fit_doc:
            fit_doc = fit_doc.get("best", {})  # a search file: its best fit
        part = _field("fit", fit_doc, "partition", dict, "an object")
        u = np.asarray(_field("fit", fit_doc, "cell_label_mass", [[numbers.Real]],
                              "a table of real numbers"), dtype=np.float64)
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


# Each command: its help, its handler and its arguments, as add_argument takes them.
COMMANDS = {
    "plant": ("construct a shifted target with known truth", _cmd_plant, (
        ("--source", {"required": True}),
        ("--shift-features", {"required": True}),
        ("--priors", {"required": True, "help": "comma-separated target priors"}),
        ("--seed", {"type": int, "default": 0}),
        ("--out", {"required": True}))),
    "simulate": ("write a synthetic preset instance", _cmd_simulate, (
        ("--kind", {"required": True, "choices": PRESET_KINDS}),
        ("--params", {"default": None, "help": "JSON dict of preset parameters"}),
        ("--seed", {"type": int, "default": 0}),
        ("--samples", {"type": int, "default": 1000}),
        ("--out", {"required": True}))),
    "check": ("verify a shift hypothesis between two tables", _cmd_check, (
        ("--source", {"required": True}),
        ("--target", {"required": False, "default": None}),
        ("--partition", {"default": "", "help": "comma-separated features, 'trivial' or 'full'"}),
        ("--hypothesis", {"required": True, "choices": HYPOTHESES}),
        ("--tol", {"type": float, "default": DEFAULT_TOL}),
        ("--out", {"default": None}))),
    "identifiability": ("conditional class matrix rank report", _cmd_identifiability, (
        ("--source", {"required": True}),
        ("--partition", {"default": ""}),
        ("--stats", {"default": "posterior", "choices": ("posterior", "classifier")}),
        ("--out", {"default": None}))),
    "estimate": ("fit target priors and posteriors", _cmd_estimate, (
        ("--method", {"required": True, "choices": METHODS}),
        ("--source", {"required": True}),
        ("--target-features", {"required": True}),
        ("--shift-features", {"default": ""}),
        ("--penalty", {"type": float, "default": 0.0}),
        ("--search", {"default": None,
                      "help": "comma-separated candidate features or 'all'; ranks subsets"}),
        ("--alpha", {"type": float, "default": 0.0}),
        ("--tol", {"type": float, "default": SEES_C_TOL}),
        ("--max-iter", {"type": int, "default": SEES_C_MAX_ITER}),
        ("--out", {"default": None}),
        ("--posterior-out", {"default": None}))),
    "correct": ("corrected posterior CSV from a saved fit", _cmd_correct, (
        ("--source", {"required": True}),
        ("--fit", {"required": True}),
        ("--out", {"required": True}))),
    "report": ("run a full experiment from a config file", _cmd_report, (
        ("--config", {"required": True}),)),
}


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The ``sjslab`` parser with the subparsers of the commands ``names``."""
    parser = argparse.ArgumentParser(prog="sjslab",
                                     description="Sparse joint shift toolkit")
    # The usage line lists every command however few are built.  A full build needs no
    # metavar for that, and must not have one: argparse would name the argument by it,
    # not as "command", in the errors that only a full build prints.
    every = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=every if len(names) < len(COMMANDS) else None)
    for name in names:
        help_text, _, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call that names a command builds only its parser; any other needs them all.
    parser = build_parser([name for name in argv[:1] if name in COMMANDS] or tuple(COMMANDS))
    args = parser.parse_args(argv)
    if args.command == "check" and CHECKS[args.hypothesis][1] and not args.target:
        parser.error(f"--target is required for hypothesis {args.hypothesis!r}")
    try:
        return COMMANDS[args.command][1](args)
    except (SjslabError, OSError, ValueError, OverflowError, csv.Error) as exc:
        files = "".join(f"{note}: " for note in getattr(exc, "__notes__", ()))
        sys.stderr.write(f"error: {files}{exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
