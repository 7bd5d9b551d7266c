"""Reference kernels that measure how fast the host is running right now.

The virtual machines this benchmark runs on change speed by up to 1.75x
from one stretch of seconds or minutes to the next, and the change hits
each kind of work differently: Python decoding loops slow down most,
small numpy calls less.  A run therefore times, between its operations,
a fixed piece of work of the same kind as the workload's, written here
with numpy and the standard library only, so that no change to sjslab
can alter it.  Dividing an operation's time by the reference time
measured next to it removes the host's drift and keeps the program's own
speed; multiplying by the kernel's nominal time turns the ratio back
into seconds on a host that runs the kernel at that speed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20230329)

# decode: CSV rows to integer codes, as sjslab's CSV ingestion does.
_CSV_COLUMNS = [f"X{j}" for j in range(12)] + ["label"]
_CSV_TEXT = ",".join(_CSV_COLUMNS) + "\n" + "\n".join(
    ",".join(str(v) for v in row) for row in _RNG.integers(0, 2, (4000, 13)))
_CODES = {"0": 0, "1": 1}


def decode(work_dir: Path) -> None:
    rows = []
    for row in csv.DictReader(io.StringIO(_CSV_TEXT)):
        rows.append([_CODES[row[c]] for c in _CSV_COLUMNS])
    np.bincount(np.asarray(rows) @ (1 << np.arange(13)), minlength=1 << 13)


# tables: a table document through JSON and back, as table files are.
_TABLE = {"features": ["X1", "X2", "X3", "X4", "X5", "X6"], "cardinalities": [4] * 6,
          "labels": 3, "mass": _RNG.random((1024, 3)).tolist()}


def tables(work_dir: Path) -> None:
    doc = json.loads(json.dumps(_TABLE, sort_keys=True, indent=2))
    np.asarray(doc["mass"]).sum(axis=0)


# cells: aggregation, per-cell masks and least squares over a 1e5-cell table.
_CELL_OF = _RNG.integers(0, 1000, 100_000)
_MASS = _RNG.random((100_000, 3))
_SMALL = _RNG.random((12, 3))


def cells(work_dir: Path) -> None:
    sums = np.zeros((1000, 3))
    np.add.at(sums, _CELL_OF, _MASS)
    for n in range(0, 1000, 50):
        _MASS[_CELL_OF == n].sum(axis=0)
        np.linalg.lstsq(_SMALL, _SMALL[:, 0], rcond=None)


# commands: what a desk-scale CLI command does around its small fit: parse
# arguments, write a small table file, read it back, a few small numpy calls.
_SMALL_TABLE = {"features": ["X1", "X2", "X3"], "cardinalities": [3, 3, 3],
                "labels": 3, "mass": _RNG.random((27, 3)).tolist()}


def commands(work_dir: Path) -> None:
    path = work_dir / "reference.json"
    for _ in range(10):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command", required=True)
        cmd = sub.add_parser("check")
        for flag in ("--source", "--target", "--partition", "--out"):
            cmd.add_argument(flag, required=True)
        args = parser.parse_args(["check", "--source", "s.json", "--target", "t.json",
                                  "--partition", "X1,X2", "--out", str(path)])
        Path(args.out).write_text(json.dumps(_SMALL_TABLE, sort_keys=True, indent=2) + "\n")
        mass = np.asarray(json.loads(Path(args.out).read_text())["mass"])
        np.linalg.lstsq(mass[:9], mass[:9, 0], rcond=None)
        (mass / mass.sum(axis=1, keepdims=True)).sum(axis=0)
    path.unlink()


KERNELS = {"decode": decode, "tables": tables, "cells": cells, "commands": commands}

# The kernels each workload's reference runs, matching the work its
# operations spend most time in (README, "Host drift").
WORKLOAD_KERNELS = {
    "csv_report": ("decode",),
    "table_study": ("commands", "tables", "cells"),
    "wide_fit": ("cells",),
}

# Nominal seconds of one reference block: the median block time on the
# host that the reference figures in README.md come from.
NOMINAL_S = {"csv_report": 0.0267, "table_study": 0.0456, "wide_fit": 0.0174}

REPEATS = 2


def block(names, work_dir: Path) -> float:
    """Seconds of one reference block: each kernel's fastest of REPEATS runs,
    summed.  The garbage collector is off meanwhile, so the block does not
    pay for collecting the program's garbage.  Kernels that write files
    write them under ``work_dir``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for name in names:
            kernel = KERNELS[name]
            best = float("inf")
            for _ in range(REPEATS):
                t0 = perf_counter()
                kernel(work_dir)
                best = min(best, perf_counter() - t0)
            total += best
        return total
    finally:
        if was_enabled:
            gc.enable()


def around(blocks: list, k: int) -> float:
    """Reference time of an operation run between blocks ``k`` and ``k + 1``:
    the median of the two blocks before it and the two after it, which
    follows the host's drift over seconds but not one block's jitter."""
    return statistics.median(blocks[max(0, k - 1):k + 3])
