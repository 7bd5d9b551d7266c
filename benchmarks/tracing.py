"""Spans and counts around sjslab's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function at every name the
program looks it up by (module globals and class attributes), records a
span per call (name, start, end, parent span, op id) and bumps counters
from the call's arguments and result.  ``uninstall`` puts the original
functions back, so traced and untraced passes can alternate in one
process.  Spans stay in memory; the per-layer metrics are read off them
when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def path_size(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    return p.stat().st_size if p.exists() else 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters read from each traced call: (args, kwargs, result) -> {counter: amount}.
def _load_dataset_counts(a, k, r):
    return {"datasets.rows_decoded": r.num_rows, "experiment.csv_passes": 1,
            "experiment.csv_bytes_read": path_size(_arg(a, k, 0, "path"))}


def _infer_schema_counts(a, k, r):
    return {"experiment.csv_passes": 1,
            "experiment.csv_bytes_read": path_size(_arg(a, k, 0, "path"))}


def _save_counts(a, k, r):
    return {"distribution.tables_saved": 1,
            "distribution.json_bytes_written": path_size(_arg(a, k, 1, "path"))}


def _sees_d_counts(a, k, r):
    return {"estimators.sees_d_cells": _arg(a, k, 2, "f").num_cells,
            "estimators.underdetermined_cells": len(r.diagnostics["underdetermined_cells"])}


def _sees_c_counts(a, k, r):
    d = r.diagnostics
    return {"estimators.sees_c_iterations": d["iterations"],
            "estimators.sees_c_polish_steps": d["polish_steps"],
            "estimators.sees_c_not_converged": int(not d["converged"])}


# (module, attribute) where the original lives, span name, counter function.
# Each is patched wherever sjslab holds a reference to the same object.
TRACED = [
    ("sjslab.cli", "main", "cli.main", lambda a, k, r: {"cli.commands": 1}),
    ("sjslab.experiment", "infer_schema", "experiment.infer_schema", _infer_schema_counts),
    ("sjslab.experiment", "load_target_marginal", "experiment.load_target_marginal", None),
    ("sjslab.experiment", "write_posterior_csv", "experiment.write_posterior_csv", None),
    ("sjslab.datasets", "load_dataset", "datasets.load_dataset", _load_dataset_counts),
    ("sjslab.datasets", "empirical_distribution", "datasets.empirical_distribution", None),
    ("sjslab.distribution", "FiniteJointDistribution.load", "distribution.load",
     lambda a, k, r: {"distribution.tables_loaded": 1}),
    ("sjslab.distribution", "FiniteJointDistribution.save", "distribution.save", _save_counts),
    ("sjslab.space", "aggregate", "space.aggregate",
     lambda a, k, r: {"space.aggregate_calls": 1}),
    ("sjslab.space", "FeaturePartition.from_features", "space.from_features", None),
    ("sjslab.shifts", "check_sjs", "shifts.check_sjs", None),
    ("sjslab.shifts", "rank_matrix", "shifts.rank_matrix",
     lambda a, k, r: {"shifts.rank_cells": _arg(a, k, 1, "g").num_cells}),
    ("sjslab.shifts", "posterior_statistics", "shifts.posterior_statistics", None),
    ("sjslab.shifts", "verify_total_expectation", "shifts.verify_total_expectation", None),
    ("sjslab.estimators", "sees_d_fit", "estimators.sees_d_fit", _sees_d_counts),
    ("sjslab.estimators", "sees_c_fit", "estimators.sees_c_fit", _sees_c_counts),
    ("sjslab.estimators", "sparsity_search", "estimators.sparsity_search",
     lambda a, k, r: {"estimators.search_subsets": len(r)}),
    ("sjslab.estimators", "posterior_correct", "estimators.posterior_correct", None),
    ("sjslab.oracle", "plant_sjs", "oracle.plant_sjs", None),
]
# Counted but not spanned: one call per f-cell makes a span cost more than the call.
COUNTED = [("sjslab.estimators", "nnls", "estimators.nnls_calls")]

SPAN_NAMES = [name for _, _, name, _ in TRACED]


class Tracer:
    """Span recorder whose wrappers can be installed and removed."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _span(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] += amount
            return result
        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if "." in attr:  # a classmethod or method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "sjslab" or name.startswith("sjslab.")) \
                    and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        for module, attr, name, counter in TRACED:
            self._patch_everywhere(module, attr,
                                   lambda fn, n=name, c=counter: self._span(n, fn, c))
        for module, attr, key in COUNTED:
            self._patch_everywhere(module, attr, lambda fn, k=key: self._counter(k, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def root_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
