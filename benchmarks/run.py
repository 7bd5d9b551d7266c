"""sjslab benchmark: one workload, or all of them, end to end or traced.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload csv_report --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (``setup_s``, ``op_p50_s``, ``ops_per_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of a
traced run.  See README.md for the workloads and the metrics.

This script writes the workload's input files with the benchmark's own
code (untimed), then starts fresh worker processes with BLAS pinned to
one thread: ``SETUP_SAMPLES - 1`` that only set up, and one that sets up
and runs the operations.  It deletes its inputs and outputs when done.

Operation times are scaled to the host's nominal speed: an operation
that took t seconds where the reference blocks around it
(``reference.py``) took r seconds counts as t * nominal / r, where
``nominal`` is the block's time on the host of the reference figures
(README.md, "Host drift").  The unscaled figures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("csv_report", "table_study", "wide_fit")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # sjslab must come from this checkout's src/
    return env


def _start_worker(args, run_dir: Path, setup_only: bool) -> tuple:
    """Start a worker; return (process, seconds from start until it was ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run-dir", str(run_dir),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if not line.strip().startswith('{"ready"'):
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker did not get ready: {line!r}")
    return proc, ready


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker ran longer than {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def write_inputs(workload: str, seed: int, run_dir: Path) -> None:
    """Input files of a workload, written by the benchmark's own code, untimed."""
    if workload == "csv_report":
        inputs.write_csv_inputs(inputs.csv_instance(seed), seed, run_dir)
    elif workload == "table_study":
        inputs.write_table_inputs(inputs.table_instances(seed), run_dir)


def run_workload(args) -> dict:
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        write_inputs(args.workload, args.seed, run_dir)
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready = _start_worker(args, run_dir, setup_only=True)
                _finish(proc)
                setup.append(ready)
        proc, ready = _start_worker(args, run_dir, setup_only=False)
        setup.append(ready)
        run = json.loads(_finish(proc).strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in run["failures"]:
        print(f"failed op: {message}", file=sys.stderr)
    for message in run["errors"]:
        print(f"wrong output: {message}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["per_layer"].items()}
    else:
        times, blocks = run["op_times"], run["reference_blocks"]
        nominal = reference.NOMINAL_S[args.workload]
        scaled = [t * nominal / reference.around(blocks, k)
                  for t, k in zip(times, run["op_blocks"])]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{args.workload} unscaled: op_p50_s {statistics.median(times):.6g} "
              f"ops_per_s {len(times) / sum(times):.6g}; reference block median "
              f"{statistics.median(blocks):.6g} s (nominal {nominal:g} s)",
              file=sys.stderr)
    return {"correct": run["num_errors"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sjslab" / "__init__.py").is_file():
        print(f"error: no sjslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        if len(names) > 1:
            r = results[name]
            print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for metric, m in r["metrics"].items():
                print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
