"""One fresh workload process: set up, say so, then run whole passes.

Started by ``run.py`` with BLAS pinned to one thread.  The first line
it prints is a JSON object announcing that set-up (importing sjslab and
building in-memory inputs) is done; ``run.py`` times the process from
its start to that line.  With ``--setup-only`` it exits there.
Otherwise it runs passes of the workload's operations until
``--seconds`` have gone by, checks every output, and prints one JSON
object with the raw per-operation times, the reference blocks timed
between them (``reference.py``), counts and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import SPAN_NAMES, Tracer, path_size

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program() -> int:
    """Import sjslab from this checkout; returns the number of modules imported."""
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    import sjslab
    import sjslab.cli  # noqa: F401  (the CLI workloads call it)
    if Path(sjslab.__file__).resolve().parent != SRC / "sjslab":
        raise SystemExit(f"sjslab imported from {sjslab.__file__}, not from {SRC}")
    return len(sys.modules) - before


# A reference block runs after the first operation that ends at least this
# many seconds of operation time after the previous block.
REFERENCE_EVERY_S = 1.0


def run_passes(ops: list, seconds: float, tracer=None, kernels=(), work_dir=None) -> dict:
    """Whole passes until ``seconds`` have gone by.

    With reference ``kernels``, a reference block (writing under
    ``work_dir``) runs before the first operation, then about every
    ``REFERENCE_EVERY_S`` of operation time between operations, and once
    after the last; ``op_blocks`` holds, for each untraced operation, the
    index of the last block before it.  Traced runs take no reference.

    With a tracer, passes alternate untraced and traced, starting
    untraced, until at least one traced pass and two untraced ones have
    run: the tracing overhead compares them on the same process and
    inputs, leaving out the first pass, which also warms caches.
    """
    import reference  # not at the top: building its kernel data is not set-up
    times, traced_times, errors, failures = [], [], [], []
    op_blocks, blocks = [], []
    since = 0.0  # operation time since the last block
    if kernels:
        blocks.append(reference.block(kernels, work_dir))
    pass_times = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    traced = False
    while True:
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        pass_start = perf_counter()
        for op in ops:
            if traced:
                tracer.op += 1
            t0 = perf_counter()
            result = op.run()
            dt = perf_counter() - t0
            (traced_times if traced else times).append(dt)
            attempted += 1
            if kernels:
                op_blocks.append(len(blocks) - 1)
                since += dt
                if since >= REFERENCE_EVERY_S:
                    blocks.append(reference.block(kernels, work_dir))
                    since = 0.0
            if traced and hasattr(result, "stdout"):
                tracer.counts["cli.bytes_written"] += (
                    len(result.stdout.encode()) + sum(map(path_size, op.outputs)))
            failure = op.failure(result)
            if failure is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.name}: {failure}")
                continue
            try:
                op.check(result)
            except AssertionError as exc:
                errors.append(f"{op.name}: {exc}")
        pass_times[traced].append(perf_counter() - pass_start)
        done = perf_counter() - start >= seconds
        if tracer is None:
            if done:
                break
            continue
        if done and len(pass_times[True]) >= 1 and len(pass_times[False]) >= 2:
            tracer.uninstall()
            break
        traced = not traced
    if op_blocks and op_blocks[-1] == len(blocks) - 1:
        blocks.append(reference.block(kernels, work_dir))
    return {"attempted": attempted, "failed": failed, "op_times": times,
            "op_blocks": op_blocks, "reference_blocks": blocks,
            "traced_op_times": traced_times, "pass_times": pass_times,
            "errors": errors[:20], "num_errors": len(errors), "failures": failures}


def per_layer(tracer, run: dict, modules: int) -> dict:
    ops = max(1, len(run["traced_op_times"]))
    self_times = tracer.self_times()
    metrics = {"setup.modules_imported": (modules, "count")}
    for name in SPAN_NAMES:
        metric = "cli.self_s" if name == "cli.main" else f"{name}_s"
        metrics[metric] = (self_times.get(name, 0.0) / ops, "s/op")
    for key in COUNT_METRICS:
        metrics[key] = (tracer.counts.get(key, 0.0) / ops, "count/op")
    uncovered = sum(run["traced_op_times"]) - tracer.root_time()
    metrics["trace.uncovered_s"] = (uncovered / ops, "s/op")
    untraced = statistics.mean(run["pass_times"][False][1:])
    traced = statistics.mean(run["pass_times"][True])
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return metrics


COUNT_METRICS = [
    "datasets.rows_decoded", "experiment.csv_passes", "experiment.csv_bytes_read",
    "distribution.tables_loaded", "distribution.tables_saved",
    "distribution.json_bytes_written", "space.aggregate_calls", "shifts.rank_cells",
    "estimators.sees_d_cells", "estimators.nnls_calls", "estimators.underdetermined_cells",
    "estimators.sees_c_iterations", "estimators.sees_c_polish_steps",
    "estimators.sees_c_not_converged", "estimators.search_subsets", "cli.commands",
    "cli.bytes_written",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = _import_program()
    import workloads
    run_dir = Path(args.run_dir)
    built = workloads.build(args.workload, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    ops = workloads.operations(args.workload, args.seed, run_dir, built)
    tracer = Tracer() if args.trace else None
    import reference
    kernels = () if args.trace else reference.WORKLOAD_KERNELS[args.workload]
    run = run_passes(ops, args.seconds, tracer, kernels, run_dir)
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run["modules_imported"] = modules
    if tracer is not None:
        run["per_layer"] = per_layer(tracer, run, modules)
    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
