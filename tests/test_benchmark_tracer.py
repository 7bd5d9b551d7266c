"""benchmarks/tracing.py patches sjslab's functions by name and reads fit diagnostics.

A renamed or moved function, or a renamed diagnostics key, fails here and
not only in the benchmark's own tests.
"""

import importlib.util
import json
import sys
from pathlib import Path

import sjslab.cli
from sjslab import FeaturePartition, estimators
from _support import example_source, example_target_literal

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(owner, cls).__dict__[meth]
    return getattr(owner, attr)


def test_every_traced_name_resolves_and_is_put_back(tmp_path, capsys):
    tracing = load_tracing()
    names = [(module, attr) for module, attr, *_ in tracing.TRACED + tracing.COUNTED]
    originals = {name: lookup(*name) for name in names}
    p, q = example_source(), example_target_literal().feature_marginal()
    x1 = FeaturePartition.from_features(p.space, ["X1"])
    inst = tmp_path / "inst"
    assert sjslab.cli.main(["simulate", "--kind", "paper_example", "--out", str(inst),
                            "--samples", "200"]) == 0
    (tmp_path / "config.json").write_text(json.dumps(
        {"source_path": str(inst / "source_sample.csv"),
         "target_path": str(inst / "target_features.csv"),
         "shift_features": ["X1"], "output_dir": str(tmp_path / "run")}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(lookup(*name) is not originals[name] for name in names)
        sees_c = estimators.sees_c_fit(p, q, x1)
        sees_d = estimators.sees_d_fit(p, q, x1)
        assert sjslab.cli.main(["report", "--config", str(tmp_path / "config.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {name: lookup(*name) for name in names} == originals
    assert {"iterations", "polish_steps", "converged"} <= set(sees_c.diagnostics)
    assert "underdetermined_cells" in sees_d.diagnostics
    assert {"estimators.sees_c_iterations", "estimators.sees_c_polish_steps",
            "estimators.sees_c_not_converged", "estimators.underdetermined_cells",
            "cli.commands"} <= set(tracer.counts)
    spans = {name for name, *_ in tracer.spans}
    assert {"cli.main", "experiment.load_target_marginal", "experiment.write_posterior_csv",
            "estimators.sees_c_fit", "estimators.sees_d_fit", "shifts.rank_matrix"} <= spans
