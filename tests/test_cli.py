import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sjslab
import sjslab.cli
from sjslab import FeatureSpace, FiniteJointDistribution
from sjslab.cli import main
from sjslab.datasets import load_source
from _support import example_source, example_target_literal


@pytest.fixture
def instance_dir(tmp_path):
    code = main(["simulate", "--kind", "paper_example", "--out",
                 str(tmp_path / "inst"), "--seed", "3", "--samples", "400"])
    assert code == 0
    return tmp_path / "inst"


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def repeated_rows_csvs(out: Path) -> None:
    """A labelled source and a feature-only target whose rows repeat a few
    records, in an interleaved order, with a quoted comma in one spelling.

    The target counts are the source counts reweighted per (X1, label),
    an exact sparse joint shift on X1.
    """
    cells = [(x1, x2, x3) for x1 in ("lo", "hi") for x2 in ("0", "1", "2")
             for x3 in ("a,b", "c")]
    source = [cell + (y,) for cell in cells for y in ("n", "y")]
    source_counts = [1 + (5 * k) % 4 for k in range(len(source))]
    shift = {"lo": (1, 3), "hi": (2, 1)}
    target_counts = [sum(w * c for w, c in zip(shift[cell[0]], source_counts[2 * k:2 * k + 2]))
                     for k, cell in enumerate(cells)]
    for name, header, records, counts in (
            ("source.csv", ["X1", "X2", "X3", "label"], source, source_counts),
            ("target.csv", ["X1", "X2", "X3"], cells, target_counts)):
        with (out / name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(record for rep in range(max(counts))
                             for record, count in zip(records, counts) if rep < count)


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # Neither the import nor a simulate, a SEES-d report and a search load scipy.
    env = {**os.environ, "PYTHONPATH": str(Path(sjslab.__file__).resolve().parents[1])}
    inst = tmp_path / "inst"
    config = {"source_path": str(inst / "source_sample.csv"),
              "target_path": str(inst / "target_features.csv"),
              "shift_features": ["X1"], "method": "sees-d", "output_dir": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    commands = [
        ["simulate", "--kind", "paper_example", "--out", str(inst), "--seed", "3",
         "--samples", "400"],
        ["report", "--config", str(tmp_path / "config.json")],
        ["estimate", "--method", "sees-d", "--source", str(inst / "source.json"),
         "--target-features", str(inst / "target.json"), "--search", "all",
         "--out", str(tmp_path / "search.json")],
    ]
    code = ("import sys, sjslab, sjslab.cli\n"
            "loaded = lambda: [m for m in ('scipy', 'scipy.optimize') if m in sys.modules]\n"
            "after_import = loaded()\n"
            f"codes = [sjslab.cli.main(argv) for argv in {commands!r}]\n"
            "print([after_import, codes, loaded()])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[[], [0, 0, 0], []]"


def test_public_surface_is_unique_and_resolves():
    names = sjslab.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from sjslab import *", namespace)
    assert all(namespace[name] is getattr(sjslab, name) for name in names)
    assert "SeesCProblem" in names
    for gone, module in (("NotConverged", sjslab.errors), ("sees_c_problem", sjslab.estimators)):
        assert gone not in names and not hasattr(sjslab, gone) and not hasattr(module, gone)


class TestSimulate:
    def test_writes_all_files(self, instance_dir):
        names = {p.name for p in instance_dir.iterdir()}
        assert names == {"source.json", "target.json", "source_sample.csv",
                         "target_features.csv", "meta.json"}

    def test_deterministic_bytes(self, tmp_path):
        for out in ("a", "b"):
            main(["simulate", "--kind", "prior_shift", "--out",
                  str(tmp_path / out), "--seed", "5", "--samples", "100"])
        for name in ("source.json", "target.json", "source_sample.csv",
                     "target_features.csv", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("flags,named", [
        (["--params", "[1]"], "params must be a JSON object, got [1]"),
        (["--params", "3"], "params must be a JSON object, got 3"),
        (["--params", '{"bogus": 1, "num_labels": 3}'], "unknown params for kind 'sjs': bogus"),
        (["--kind", "paper_example", "--params", '{"num_labels": 3}'],
         "unknown params for kind 'paper_example': num_labels"),
        (["--samples", "-5"], "num_samples must be at least 1, got -5"),
        (["--samples", "0"], "num_samples must be at least 1, got 0"),
        (["--params", '{"cardinalities": 5}'],
         "params 'cardinalities' must be a list of integers, got 5"),
        (["--params", '{"num_features": 2.5}'],
         "params 'num_features' must be an integer, got 2.5"),
        (["--params", '{"num_labels": true}'], "params 'num_labels' must be an integer, got True"),
        (["--params", '{"priors": ["a", 1]}'],
         "params 'priors' must be a list of real numbers, got ['a', 1]"),
        (["--params", '{"shift_features": "X1"}'],
         "params 'shift_features' must be a list of feature names, got 'X1'"),
        (["--params", '{"num_features": 0}'], "need at least one feature"),
        (["--kind", "paper_example", "--seed", "-1"], "seed -1 is negative"),
    ])
    def test_bad_settings_exit_1_naming_them(self, tmp_path, capsys, flags, named):
        # These once raised a TypeError traceback, were ignored, or wrote header-only CSVs.
        out = tmp_path / "inst"
        assert main(["simulate", "--kind", "sjs", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_params_the_kind_reads_are_taken(self, tmp_path):
        params = {"num_features": 2, "cardinalities": [3, 2], "num_labels": 3,
                  "shift_features": ["X2"], "priors": [0.2, 0.3, 0.5]}
        assert main(["simulate", "--kind", "sjs", "--params", json.dumps(params),
                     "--samples", "1", "--out", str(tmp_path / "inst")]) == 0
        meta = json.loads((tmp_path / "inst" / "meta.json").read_text())
        assert (meta["params"], meta["num_samples"]) == (params, 1)


class TestCheck:
    def test_sjs_verdict_json(self, instance_dir, capsys):
        code = main(["check", "--source", str(instance_dir / "source.json"),
                     "--target", str(instance_dir / "target.json"),
                     "--partition", "X1", "--hypothesis", "sjs"])
        assert code == 0
        doc = read_json(capsys)
        assert doc["hypothesis"] == "sjs" and doc["holds"] is True
        assert doc["max_violation"] <= doc["tolerance"]

    def test_prior_hypothesis_fails_on_preset(self, instance_dir, capsys):
        main(["check", "--source", str(instance_dir / "source.json"),
              "--target", str(instance_dir / "target.json"),
              "--hypothesis", "prior"])
        assert read_json(capsys)["holds"] is False

    def test_sufficiency_needs_no_target(self, instance_dir, capsys):
        code = main(["check", "--source", str(instance_dir / "source.json"),
                     "--partition", "full", "--hypothesis", "sufficiency"])
        assert code == 0
        doc = read_json(capsys)
        assert doc["holds"] is True and doc["max_violation"] == 0.0
        assert doc["witness"] is None  # an exact hold has no witness

    def test_target_required_for_two_sample_checks(self, instance_dir):
        with pytest.raises(SystemExit):
            main(["check", "--source", str(instance_dir / "source.json"),
                  "--partition", "X1", "--hypothesis", "sjs"])

    def test_repeated_partition_feature_exits_1_naming_it(self, instance_dir, capsys):
        code = main(["check", "--source", str(instance_dir / "source.json"),
                     "--target", str(instance_dir / "target.json"),
                     "--partition", "X1,X1", "--hypothesis", "sjs"])
        assert code == 1
        assert "error: feature 'X1' is named twice" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, instance_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"features": [], "num_labels": 2, "mass": []}))
        code = main(["check", "--source", str(bad),
                     "--target", str(instance_dir / "target.json"),
                     "--hypothesis", "prior"])
        assert code == 1


class TestIdentifiability:
    def test_posterior_statistics_report(self, instance_dir, capsys):
        code = main(["identifiability", "--source", str(instance_dir / "source.json"),
                     "--partition", "X1", "--stats", "posterior"])
        assert code == 0
        doc = read_json(capsys)
        assert doc["identifiable"] is True
        assert len(doc["cells"]) == 2
        assert all(c["rank"] == 2 for c in doc["cells"])

    def test_classifier_statistics_report(self, instance_dir, capsys):
        code = main(["identifiability", "--source", str(instance_dir / "source.json"),
                     "--partition", "X1", "--stats", "classifier"])
        assert code == 0
        assert read_json(capsys)["statistics"] == "classifier"


class TestEstimate:
    def test_sees_d_on_target_json(self, tmp_path, capsys):
        example_source().save(tmp_path / "p.json")
        example_target_literal().save(tmp_path / "q.json")
        code = main(["estimate", "--method", "sees-d",
                     "--source", str(tmp_path / "p.json"),
                     "--target-features", str(tmp_path / "q.json"),
                     "--shift-features", "X1",
                     "--posterior-out", str(tmp_path / "post.csv")])
        assert code == 0
        doc = read_json(capsys)
        np.testing.assert_allclose(doc["target_priors"], [0.4, 0.6], atol=1e-10)
        with (tmp_path / "post.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {"X1", "X2", "posterior_0", "posterior_1", "defined"} <= set(rows[0])

    def test_estimate_from_sampled_csv(self, instance_dir, capsys):
        code = main(["estimate", "--method", "confusion",
                     "--source", str(instance_dir / "source.json"),
                     "--target-features", str(instance_dir / "target_features.csv"),
                     "--shift-features", "X1"])
        assert code == 0
        doc = read_json(capsys)
        assert doc["method"] == "conditional_confusion"
        assert abs(sum(doc["target_priors"]) - 1.0) < 1e-9

    def test_search_ranks_subsets(self, instance_dir, capsys):
        code = main(["estimate", "--method", "sees-d",
                     "--source", str(instance_dir / "source.json"),
                     "--target-features", str(instance_dir / "target.json"),
                     "--search", "all", "--penalty", "0.001"])
        assert code == 0
        doc = read_json(capsys)
        assert doc["ranking"][0]["features"] == ["X1"]
        assert "best" in doc

    def test_search_honours_max_iter(self, instance_dir, capsys):
        main(["estimate", "--method", "sees-c",
              "--source", str(instance_dir / "source.json"),
              "--target-features", str(instance_dir / "target.json"),
              "--search", "all", "--tol", "0", "--max-iter", "2"])
        best = read_json(capsys)["best"]
        assert best["method"] == "sees_c"
        assert best["diagnostics"]["iterations"] == 2
        assert not best["diagnostics"]["converged"]

    def test_exit_code_follows_the_fit_but_not_the_search(self, instance_dir, capsys):
        """A fit stopped by --max-iter exits 3; a search exits 0 whatever its best fit says."""
        fit = ["estimate", "--method", "sees-c", "--source", str(instance_dir / "source.json"),
               "--target-features", str(instance_dir / "target.json"),
               "--tol", "0", "--max-iter", "2"]
        assert main(fit + ["--shift-features", "X1"]) == 3
        assert not read_json(capsys)["diagnostics"]["converged"]
        assert main(fit + ["--search", "all"]) == 0
        assert not read_json(capsys)["best"]["diagnostics"]["converged"]

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--classifier", "argmax"]])
    def test_removed_flags_are_usage_errors(self, instance_dir, flag):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--method", "sees-d", "--source", str(instance_dir / "source.json"),
                  "--target-features", str(instance_dir / "target.json"), *flag])
        assert info.value.code == 2

    def test_search_with_confusion_fits_with_the_classifier(self, instance_dir, capsys):
        code = main(["estimate", "--method", "confusion",
                     "--source", str(instance_dir / "source.json"),
                     "--target-features", str(instance_dir / "target.json"),
                     "--search", "all"])
        assert code == 0
        assert read_json(capsys)["best"]["method"] == "conditional_confusion"


class TestEstimateInputErrors:
    def test_non_finite_residual_exits_1(self, tmp_path, capsys):
        space = FeatureSpace(["X1", "X2"], [2, 3])
        mass = np.full((6, 2), 1.0 / 12)
        mass[4] = 0.5e-301
        FiniteJointDistribution(space, 2, mass / mass.sum()).save(tmp_path / "p.json")
        FiniteJointDistribution(space, 2, np.full((6, 2), 1.0 / 12)).save(tmp_path / "q.json")
        code = main(["estimate", "--method", "sees-d", "--source", str(tmp_path / "p.json"),
                     "--target-features", str(tmp_path / "q.json"), "--shift-features", "X1"])
        assert code == 1
        assert "f-cell 1: squared residual" in capsys.readouterr().err

    def test_oversized_csv_field_exits_1(self, tmp_path, capsys):
        example_source().save(tmp_path / "p.json")
        (tmp_path / "q.csv").write_text("X1,X2\n0," + "1" * 131073 + "\n")
        code = main(["estimate", "--method", "sees-d", "--source", str(tmp_path / "p.json"),
                     "--target-features", str(tmp_path / "q.csv"), "--shift-features", "X1"])
        assert code == 1
        assert "field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("names,cards,named", [(["X1"], [4], "{'X1': 4}"),
                                                   (["X1", "X3"], [2, 2], "'X3'"),
                                                   (["X1", "X2"], [2, 3], "'X2': 3")])
    def test_json_target_over_another_space_exits_1(self, tmp_path, capsys, names, cards,
                                                     named):
        example_source().save(tmp_path / "p.json")
        space = FeatureSpace(names, cards)
        mass = np.full((space.num_cells, 2), 1.0 / (2 * space.num_cells))
        FiniteJointDistribution(space, 2, mass).save(tmp_path / "q.json")
        code = main(["estimate", "--method", "sees-d", "--source", str(tmp_path / "p.json"),
                     "--target-features", str(tmp_path / "q.json"), "--shift-features", "X1"])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "{'X1': 2, 'X2': 2}" in err

    def test_json_target_with_other_spellings_exits_1(self, tmp_path, capsys):
        source, target = example_source(), example_target_literal()
        FiniteJointDistribution(source.space, 2, source.mass,
                                [["a", "b"], ["0", "1"]]).save(tmp_path / "p.json")
        FiniteJointDistribution(target.space, 2, target.mass,
                                [["b", "a"], ["0", "1"]]).save(tmp_path / "q.json")
        code = main(["estimate", "--method", "sees-d", "--source", str(tmp_path / "p.json"),
                     "--target-features", str(tmp_path / "q.json"), "--shift-features", "X1"])
        assert code == 1
        assert "spells feature 'X1' as ['b', 'a']" in capsys.readouterr().err


@pytest.mark.parametrize("args,named", [
    (["check", "--hypothesis", "sjs", "--partition", "X1", "--tol", "nan"],
     "tol nan is not finite"),
    (["estimate", "--method", "sees-d", "--shift-features", "X1", "--alpha", "nan"],
     "smoothing_alpha nan is not finite"),
    (["estimate", "--method", "sees-d", "--search", "all", "--penalty", "nan"],
     "penalty nan is not finite"),
    (["estimate", "--method", "sees-c", "--shift-features", "X1", "--tol", "nan"],
     "tol nan is not finite"),
    (["plant", "--shift-features", "X1", "--priors", "nan,0.5"],
     "target prior nan at label 0 is not finite"),
    (["estimate", "--method", "sees-c", "--search", "all", "--tol", "nan"],
     "tol nan is not finite"),
    (["estimate", "--method", "sees-c", "--shift-features", "X1", "--max-iter", "-3"],
     "max_iter -3 is negative"),
    (["estimate", "--method", "sees-d", "--shift-features", "X1", "--tol", "nan",
      "--max-iter", "-3"], "tol nan is not finite"),
    (["estimate", "--method", "sees-d", "--shift-features", "X1", "--max-iter", "-3"],
     "max_iter -3 is negative"),
    (["estimate", "--method", "sees-c", "--shift-features", "X1", "--max-iter", "9" * 400],
     "int too large to convert to float"),
    (["plant", "--shift-features", "X1", "--priors", "0.3,0.7,"],
     "priors must be comma-separated numbers, got '0.3,0.7,'"),
    (["plant", "--shift-features", "X1", "--priors", "0.3,0.7", "--seed", "-1"],
     "seed -1 is negative"),
])
def test_a_non_finite_setting_exits_1_naming_it(instance_dir, capsys, args, named):
    inputs = {"check": ["--source", "source.json", "--target", "target.json"],
              "estimate": ["--source", "source_sample.csv",
                           "--target-features", "target_features.csv"],
              "plant": ["--source", "source.json"]}[args[0]]
    inputs = [a if a.startswith("--") else str(instance_dir / a) for a in inputs]
    out = instance_dir.parent / "out"
    capsys.readouterr()
    code = main([args[0], *inputs, *args[1:], "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "check", "plant", "identifiability", "report",
                                     "correct"])
def test_unknown_feature_exits_1_naming_it(tmp_path, instance_dir, capsys, command):
    source, target = str(instance_dir / "source.json"), str(instance_dir / "target.json")
    (tmp_path / "config.json").write_text(json.dumps(
        {"source_path": source, "target_path": target, "shift_features": ["X9"],
         "output_dir": str(tmp_path / "run")}))
    (tmp_path / "fit.json").write_text(json.dumps(
        {"partition": {"type": "features", "features": ["X9"]},
         "cell_label_mass": [[0.5, 0.5]]}))
    argv = {
        "estimate": ["estimate", "--method", "sees-d", "--source", source,
                     "--target-features", target, "--shift-features", "X9"],
        "check": ["check", "--source", source, "--target", target, "--partition", "X1,X9",
                  "--hypothesis", "sjs"],
        "plant": ["plant", "--source", source, "--shift-features", "X9", "--priors", "0.5,0.5",
                  "--out", str(tmp_path / "planted")],
        "identifiability": ["identifiability", "--source", source, "--partition", "X9"],
        "report": ["report", "--config", str(tmp_path / "config.json")],
        "correct": ["correct", "--source", source, "--fit", str(tmp_path / "fit.json"),
                    "--out", str(tmp_path / "post.csv")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: unknown feature 'X9'" in err and "Traceback" not in err


@pytest.mark.parametrize("case,named", [
    ("empty source", "empty.csv: no header"),
    ("source without labels", "labelled CSV must have a 'label' column"),
    ("config list", "list.json: config must be a JSON object"),
    ("unknown candidate", "unknown candidate feature 'X9'"),
    ("feature without cardinality", "feature 0 has no 'cardinality'"),
    ("empty label column", "domain of 'label' must be non-empty and duplicate-free"),
    ("empty label column report", "domain of 'label' must be non-empty and duplicate-free"),
    ("label-only source", "label_only.csv: no feature column"),
    ("source-null target sees-d", "target mass 0.25 on source-null event at cell 3"),
    ("source-null target sees-c", "target mass 0.25 on source-null event at cell 3"),
    ("source-null target confusion", "target mass 0.25 on source-null event at cell 3"),
    ("source-null target search", "target mass 0.25 on source-null event at cell 3"),
    ("header-only target", "header_only.csv: no rows to estimate from"),
    ("header-only source", "header_only_source.csv: no rows to estimate from"),
    ("table without features", "no_features.json: need at least one feature"),
    ("CSVs spelled differently", "target spells feature 'X1' as ['b', 'c'], source as ['a', 'b']"),
    ("JSON target over other features",
     "wide.json: target has features {'X1': 3}, source has {'X1': 2, 'X2': 2}"),
    ("target value the source never had",
     "five.csv: value '5' not in declared domain at row 0, column 'X1'"),
    ("truncated table as source", "truncated.json: Expecting value: line 1 column 15 (char 14)"),
    ("truncated table as target", "truncated.json: Expecting value: line 1 column 15 (char 14)"),
    ("truncated table to check", "truncated.json: Expecting value: line 1 column 15 (char 14)"),
    ("fit that is not JSON",
     "not_json.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("fit without a partition", "list.json: fit has no 'partition'"),
    ("config that is not JSON",
     "not_json.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_a_malformed_input_exits_1_naming_it(tmp_path, instance_dir, capsys, case, named):
    # The cases from "header-only target" on once exited 1 without naming the file at fault.
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "unlabelled.csv").write_text("X1,X2\n0,1\n")
    (tmp_path / "no_labels.csv").write_text("X1,label\n0,\n1,\n")
    (tmp_path / "label_only.csv").write_text("label\na\nb\n")
    (tmp_path / "features.csv").write_text("X1\n0\n1\n")
    # The source has no mass on feature cell 3 (X1 = X2 = 1); the target is uniform.
    space = FeatureSpace(["X1", "X2"], [2, 2])
    FiniteJointDistribution(space, 2, [[0.2, 0.1], [0.1, 0.2], [0.2, 0.2], [0.0, 0.0]]).save(
        tmp_path / "source.json")
    FiniteJointDistribution(space, 2, np.full((4, 2), 0.125)).save(tmp_path / "target.json")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "table.json").write_text(json.dumps(
        {"features": [{"name": "X1"}], "num_labels": 2, "mass": []}))
    (tmp_path / "header_only.csv").write_text("X1,X2\n")
    (tmp_path / "header_only_source.csv").write_text("X1,label\n")
    (tmp_path / "no_features.json").write_text(json.dumps(
        {"features": [], "num_labels": 2, "mass": [[0, 0.5], [1, 0.5]]}))
    (tmp_path / "ab.csv").write_text("X1,label\na,0\nb,1\na,1\n")
    (tmp_path / "bc.csv").write_text("X1,label\nb,0\nc,1\nc,1\n")
    FiniteJointDistribution(FeatureSpace(["X1"], [3]), 2, np.full((3, 2), 1 / 6)).save(
        tmp_path / "wide.json")
    (tmp_path / "five.csv").write_text("X1,X2\n5,0\n")
    (tmp_path / "truncated.json").write_text('{"features": [')
    (tmp_path / "not_json.json").write_text("{bad")
    sample = instance_dir / "source_sample.csv"
    out = tmp_path / "out.json"

    def report(source, target=instance_dir / "target_features.csv"):
        (tmp_path / "config.json").write_text(json.dumps(
            {"source_path": str(tmp_path / source), "target_path": str(target),
             "shift_features": [], "output_dir": str(tmp_path / "run")}))
        return ["report", "--config", str(tmp_path / "config.json")]

    def estimate(method, source, target, *flags):
        return ["estimate", "--method", method, "--source", str(tmp_path / source),
                "--target-features", str(tmp_path / target), *flags, "--out", str(out)]

    argv = {
        "empty source": lambda: report("empty.csv"),
        "source without labels": lambda: report("unlabelled.csv"),
        "config list": lambda: ["report", "--config", str(tmp_path / "list.json")],
        "unknown candidate": lambda: [
            "estimate", "--method", "sees-d", "--source", str(instance_dir / "source.json"),
            "--target-features", str(instance_dir / "target.json"), "--search", "X1,X9",
            "--out", str(out)],
        "feature without cardinality": lambda: [
            "check", "--source", str(tmp_path / "table.json"), "--hypothesis", "sufficiency",
            "--out", str(out)],
        "empty label column": lambda: estimate("sees-d", "no_labels.csv", "features.csv",
                                               "--shift-features", "X1"),
        "empty label column report": lambda: report("no_labels.csv", tmp_path / "features.csv"),
        "label-only source": lambda: estimate("sees-d", "label_only.csv", "features.csv"),
        "source-null target sees-d": lambda: estimate("sees-d", "source.json", "target.json",
                                                      "--shift-features", "X1"),
        "source-null target sees-c": lambda: estimate("sees-c", "source.json", "target.json",
                                                      "--shift-features", "X1"),
        "source-null target confusion": lambda: estimate("confusion", "source.json",
                                                         "target.json", "--shift-features", "X1"),
        "source-null target search": lambda: estimate("sees-d", "source.json", "target.json",
                                                      "--search", "all"),
        "header-only target": lambda: estimate("sees-d", sample, "header_only.csv"),
        "header-only source": lambda: estimate("sees-d", "header_only_source.csv", sample),
        "table without features": lambda: estimate("sees-d", "no_features.json",
                                                   "no_features.json", "--posterior-out",
                                                   str(out)),
        "CSVs spelled differently": lambda: [
            "check", "--source", str(tmp_path / "ab.csv"), "--target", str(tmp_path / "bc.csv"),
            "--partition", "X1", "--hypothesis", "sjs", "--out", str(out)],
        "JSON target over other features": lambda: estimate("sees-d", "source.json", "wide.json"),
        "target value the source never had": lambda: estimate("sees-d", sample, "five.csv"),
        "truncated table as source": lambda: estimate("sees-d", "truncated.json", sample),
        "truncated table as target": lambda: estimate("sees-d", sample, "truncated.json"),
        "truncated table to check": lambda: [
            "check", "--source", str(sample), "--target", str(tmp_path / "truncated.json"),
            "--hypothesis", "sjs", "--out", str(out)],
        "fit that is not JSON": lambda: [
            "correct", "--source", str(sample), "--fit", str(tmp_path / "not_json.json"),
            "--out", str(out)],
        "fit without a partition": lambda: [
            "correct", "--source", str(sample), "--fit", str(tmp_path / "list.json"),
            "--out", str(out)],
        "config that is not JSON": lambda: ["report", "--config", str(tmp_path / "not_json.json")],
    }[case]()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{named}\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["estimate source", "report target"])
def test_a_missing_input_exits_1_with_the_os_message(tmp_path, instance_dir, capsys, case):
    # The path is named once, by the operating system's message, and no file is written.
    missing, out, run = tmp_path / "missing.csv", tmp_path / "out.json", tmp_path / "run"
    if case == "estimate source":
        argv = ["estimate", "--method", "sees-d", "--source", str(missing), "--target-features",
                str(instance_dir / "target_features.csv"), "--out", str(out)]
    else:
        (tmp_path / "config.json").write_text(json.dumps(
            {"source_path": str(instance_dir / "source_sample.csv"), "target_path": str(missing),
             "shift_features": [], "output_dir": str(run)}))
        argv = ["report", "--config", str(tmp_path / "config.json")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert captured.out == "" and not out.exists() and not run.exists()


@st.composite
def small_csv_texts(draw, labelled: bool):
    """A small CSV text, half of the time a clean sample over features X1 and X2.

    The other half may be blank, header-only or label-only, or have blank,
    repeated or missing headers, all-empty columns, short and long rows,
    missing values and quoted fields.  Lines end in LF or CRLF.
    """
    clean = draw(st.booleans())
    names = draw(st.sampled_from([["X1"], ["X1", "X2"]]) if clean else
                 st.lists(st.sampled_from(["X1", "X2", "", "x y"]), max_size=3))
    if labelled and (clean or draw(st.booleans())):
        names.insert(draw(st.integers(0, len(names))), "label")
    values = st.sampled_from(["0", "1"] if clean else ["0", "1", "a", "", '"b"', "c,d", " "])
    empty_column = -1 if clean else draw(st.integers(-1, len(names)))  # -1: none is emptied
    rows = [[("" if j == empty_column else draw(values))
             for j in range(len(names) + (0 if clean else draw(st.integers(-1, 1))))]
            for _ in range(draw(st.integers(4 if clean else 0, 8)))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if names or draw(st.booleans()):
        writer.writerow(names)
    writer.writerows(rows)
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(small_csv_texts(labelled=True), small_csv_texts(labelled=False),
       st.sampled_from(["", "X1", "X1,X2", "label"]))
def test_estimate_on_any_small_csv_exits_with_a_code_or_one_error_line(source, target, shift):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "source.csv").write_text(source, newline="")
        Path(tmp, "target.csv").write_text(target, newline="")
        for method in ("sees-d", "sees-c", "confusion"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["estimate", "--method", method,
                             "--source", str(Path(tmp, "source.csv")),
                             "--target-features", str(Path(tmp, "target.csv")),
                             "--shift-features", shift, "--out", str(Path(tmp, "fit.json"))])
            assert code in (0, 1, 3, 4)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")


def test_every_table_argument_reads_a_labelled_csv(tmp_path, instance_dir, capsys):
    """plant, check, identifiability and correct read a sampled CSV source as estimate does."""
    source = str(instance_dir / "source_sample.csv")
    target = str(instance_dir / "target_features.csv")
    assert main(["estimate", "--method", "sees-d", "--source", source, "--target-features",
                 target, "--shift-features", "X1", "--out", str(tmp_path / "fit.json"),
                 "--posterior-out", str(tmp_path / "estimated.csv")]) == 0
    assert main(["correct", "--source", source, "--fit", str(tmp_path / "fit.json"),
                 "--out", str(tmp_path / "corrected.csv")]) == 0
    assert (tmp_path / "corrected.csv").read_bytes() == (tmp_path / "estimated.csv").read_bytes()

    assert main(["plant", "--source", source, "--shift-features", "X1", "--priors", "0.3,0.7",
                 "--out", str(tmp_path / "planted")]) == 0
    capsys.readouterr()
    assert main(["check", "--source", source, "--target", source, "--partition", "X1",
                 "--hypothesis", "sjs"]) == 0
    assert read_json(capsys)["holds"] is True  # a table is SJS to itself on any partition
    assert main(["identifiability", "--source", source, "--partition", "X1"]) == 0
    assert len(read_json(capsys)["cells"]) == 2
    # The planted source is the CSV's table, spellings and all.
    planted = FiniteJointDistribution.load(tmp_path / "planted" / "source.json")
    table = load_source(source)
    assert planted.mass.tolist() == table.mass.tolist() and planted.domains == table.domains


class TestPlantAndCorrect:
    def test_plant_then_estimate_recovers_priors(self, tmp_path, capsys):
        example_source().save(tmp_path / "p.json")
        code = main(["plant", "--source", str(tmp_path / "p.json"),
                     "--shift-features", "X1", "--priors", "0.35,0.65",
                     "--seed", "7", "--out", str(tmp_path / "inst")])
        assert code == 0
        planted = json.loads((tmp_path / "inst" / "planted_fit.json").read_text())
        np.testing.assert_allclose(planted["priors"], [0.35, 0.65], atol=1e-12)
        code = main(["estimate", "--method", "sees-d",
                     "--source", str(tmp_path / "inst" / "source.json"),
                     "--target-features", str(tmp_path / "inst" / "target.json"),
                     "--shift-features", "X1"])
        assert code == 0
        doc = read_json(capsys)
        np.testing.assert_allclose(doc["target_priors"], [0.35, 0.65], atol=1e-8)

    def test_correct_writes_posterior_csv(self, tmp_path, capsys):
        example_source().save(tmp_path / "p.json")
        example_target_literal().save(tmp_path / "q.json")
        main(["estimate", "--method", "sees-d",
              "--source", str(tmp_path / "p.json"),
              "--target-features", str(tmp_path / "q.json"),
              "--shift-features", "X1", "--out", str(tmp_path / "fit.json")])
        code = main(["correct", "--source", str(tmp_path / "p.json"),
                     "--fit", str(tmp_path / "fit.json"),
                     "--out", str(tmp_path / "post.csv")])
        assert code == 0
        with (tmp_path / "post.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        total = sum(float(rows[0][f"posterior_{i}"]) for i in range(2))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_correct_reads_the_best_fit_of_a_search_file(self, instance_dir):
        source = str(instance_dir / "source.json")
        main(["estimate", "--method", "sees-d", "--source", source,
              "--target-features", str(instance_dir / "target.json"),
              "--search", "all", "--out", str(instance_dir / "search.json")])
        best = json.loads((instance_dir / "search.json").read_text())["best"]
        (instance_dir / "best.json").write_text(json.dumps(best))
        for fit, out in (("search.json", "from_search.csv"), ("best.json", "from_best.csv")):
            code = main(["correct", "--source", source, "--fit", str(instance_dir / fit),
                         "--out", str(instance_dir / out)])
            assert code == 0
        assert ((instance_dir / "from_search.csv").read_bytes()
                == (instance_dir / "from_best.csv").read_bytes())

    @pytest.mark.parametrize("doc,key", [({"ranking": []}, "partition"),
                                         ({"partition": {"type": "features", "features": []}},
                                          "cell_label_mass"),
                                         ([1, 2], "partition"),
                                         ({"partition": {"type": "features"},
                                           "cell_label_mass": [[1.0, 0.0]]}, "features"),
                                         ({"partition": {"type": "custom"},
                                           "cell_label_mass": [[1.0, 0.0]]}, "cell_of")])
    def test_correct_without_a_fit_exits_1(self, tmp_path, capsys, doc, key):
        example_source().save(tmp_path / "p.json")
        (tmp_path / "fit.json").write_text(json.dumps(doc))
        code = main(["correct", "--source", str(tmp_path / "p.json"),
                     "--fit", str(tmp_path / "fit.json"), "--out", str(tmp_path / "post.csv")])
        assert code == 1
        assert f"has no {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("partition,named", [
        ({"type": "features", "features": "X1"},
         "partition 'features' must be a list of feature names, got 'X1'"),
        ({"type": "custom", "cell_of": "ab"},
         "partition 'cell_of' must be a list of integers, got 'ab'")])
    def test_correct_rejects_a_mistyped_partition(self, tmp_path, capsys, partition, named):
        # These once exited naming the feature 'X', or with int()'s message.
        example_source().save(tmp_path / "p.json")
        (tmp_path / "fit.json").write_text(json.dumps(
            {"partition": partition, "cell_label_mass": [[0.5, 0.5]]}))
        code = main(["correct", "--source", str(tmp_path / "p.json"),
                     "--fit", str(tmp_path / "fit.json"), "--out", str(tmp_path / "post.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {named}\n" == err
        assert not (tmp_path / "post.csv").exists()

    @pytest.mark.parametrize("field,value,named", [
        ("cell_label_mass", {"a": 1}, "a table of real numbers, got {'a': 1}"),
        ("cell_label_mass", [[0.5, "x"], [0.5, 0.5]],
         "a table of real numbers, got [[0.5, 'x'], [0.5, 0.5]]"),
        ("cell_label_mass", [[0.5, 0.5], [0.5]],
         "a table of real numbers, got [[0.5, 0.5], [0.5]]"),
        ("cell_label_mass", [0.5, 0.5], "a table of real numbers, got [0.5, 0.5]"),
        ("partition", "X1", "an object, got 'X1'")])
    def test_correct_rejects_a_mistyped_field(self, tmp_path, capsys, field, value, named):
        # A mistyped cell_label_mass once escaped main as a TypeError traceback.
        example_source().save(tmp_path / "p.json")
        doc = {"partition": {"type": "features", "features": ["X1"]},
               "cell_label_mass": [[0.25, 0.25], [0.25, 0.25]], field: value}
        (tmp_path / "fit.json").write_text(json.dumps(doc))
        code = main(["correct", "--source", str(tmp_path / "p.json"),
                     "--fit", str(tmp_path / "fit.json"), "--out", str(tmp_path / "post.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'fit.json'}: fit {field!r} must be {named}\n"
        assert not (tmp_path / "post.csv").exists()

    @pytest.mark.parametrize("fields", [{}, {"method": 3}, {"residual": [1]}],
                             ids=["absent", "method 3", "residual [1]"])
    def test_correct_reads_neither_residual_nor_method(self, instance_dir, fields):
        # The corrected posterior depends on neither; correct once type-checked both.
        source, fit = str(instance_dir / "source.json"), instance_dir / "fit.json"
        assert main(["estimate", "--method", "sees-d", "--source", source,
                     "--target-features", str(instance_dir / "target.json"),
                     "--shift-features", "X1", "--out", str(fit),
                     "--posterior-out", str(instance_dir / "fitted.csv")]) == 0
        doc = json.loads(fit.read_text())
        del doc["residual"], doc["method"]
        fit.write_text(json.dumps({**doc, **fields}))
        assert main(["correct", "--source", source, "--fit", str(fit),
                     "--out", str(instance_dir / "post.csv")]) == 0
        assert ((instance_dir / "post.csv").read_bytes()
                == (instance_dir / "fitted.csv").read_bytes())

    @pytest.mark.parametrize("mass,named", [
        ([[0.5, -0.1], [0.3, 0.3]], "-0.1 at f-cell 0, label 1 is negative"),
        ([[0.5, float("nan")], [0.3, 0.2]], "nan at f-cell 0, label 1 is not finite"),
    ], ids=["mass0-negative cell mass -0.1", "mass1-non-finite cell mass nan"])
    def test_correct_rejects_impossible_masses(self, instance_dir, capsys, mass, named):
        # Such masses once gave posteriors outside [0, 1], or every row undefined.
        source = str(instance_dir / "source.json")
        main(["estimate", "--method", "sees-d", "--source", source,
              "--target-features", str(instance_dir / "target.json"),
              "--shift-features", "X1", "--out", str(instance_dir / "fit.json")])
        doc = json.loads((instance_dir / "fit.json").read_text())
        doc["cell_label_mass"] = mass
        (instance_dir / "fit.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["correct", "--source", source, "--fit", str(instance_dir / "fit.json"),
                     "--out", str(instance_dir / "post.csv")])
        assert code == 1
        assert f"error: cell mass {named}\n" == capsys.readouterr().err
        assert not (instance_dir / "post.csv").exists()

    def test_correct_rejects_a_fit_of_zero_mass(self, instance_dir, capsys):
        (instance_dir / "fit.json").write_text(json.dumps(
            {"partition": {"type": "features", "features": ["X1"]},
             "cell_label_mass": [[0.0, 0.0], [0.0, 0.0]]}))
        code = main(["correct", "--source", str(instance_dir / "source.json"),
                     "--fit", str(instance_dir / "fit.json"),
                     "--out", str(instance_dir / "post.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: fit produced zero total mass\n"
        assert not (instance_dir / "post.csv").exists()

    def test_correct_rejects_mass_on_source_null_pairs(self, tmp_path, capsys):
        # The X1=0 cell has no label-1 source mass, where the fit puts 0.2.
        space = FeatureSpace(["X1", "X2"], [2, 2])
        mass = np.array([[0.2, 0.0], [0.1, 0.0], [0.2, 0.2], [0.1, 0.2]])
        FiniteJointDistribution(space, 2, mass).save(tmp_path / "p.json")
        (tmp_path / "fit.json").write_text(json.dumps(
            {"partition": {"type": "features", "features": ["X1"]},
             "cell_label_mass": [[0.3, 0.2], [0.2, 0.3]]}))
        code = main(["correct", "--source", str(tmp_path / "p.json"),
                     "--fit", str(tmp_path / "fit.json"), "--out", str(tmp_path / "post.csv")])
        assert code == 1
        assert ("fit places mass 0.2 on source-null (f-cell, label) pairs, "
                "the first at f-cell 0, label 1") in capsys.readouterr().err
        assert not (tmp_path / "post.csv").exists()


class TestReport:
    def test_full_run_via_config(self, tmp_path, instance_dir, capsys):
        config = {
            "source_path": str(instance_dir / "source.json"),
            "target_path": str(instance_dir / "target.json"),
            "shift_features": ["X1"],
            "method": "sees-d",
            "output_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["report", "--config", str(cfg_path)])
        assert code == 0
        doc = read_json(capsys)
        assert doc["status"] == "ok"
        outdir = Path(tmp_path / "run")
        assert (outdir / "manifest.json").exists()
        fit = json.loads((outdir / "fit.json").read_text())
        source = FiniteJointDistribution.load(instance_dir / "source.json")
        assert len(fit["target_priors"]) == source.num_labels

    # sha256 of the report files on repeated_rows_csvs, taken when CSV
    # ingestion still decoded every row: reading each distinct record once
    # must not change a byte.
    REPEATED_ROWS_SHA256 = {
        "fit.json": "97438902c5816f3ee6819658dd3b6f7983370d0e714348f3374bfd581ab15c0a",
        "corrected_posterior.csv": "26e7b96a525cb48ee27597f1103ad3ecd2abb037dc4abca3bfa5a92ddd4da798",
        "rank_report.json": "3673f6c219416db25ff03fed0af41f701b621981d27bdc8d9bf86dcaeef3deca",
        "manifest.json": "41f23853c63f3152bd2812ae5d0800ea18c4f1c0c70f887fb6c42f8e8f12fc6d",
    }

    def test_report_on_repeated_csv_rows_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the manifest records relative paths and the versions
        monkeypatch.setattr(platform, "python_version", lambda: "3.11.7")
        monkeypatch.setattr(np, "__version__", "2.4.6")
        repeated_rows_csvs(tmp_path)
        Path("config.json").write_text(json.dumps({
            "source_path": "source.csv", "target_path": "target.csv",
            "shift_features": ["X1"], "output_dir": "run"}))
        assert main(["report", "--config", "config.json"]) == 0
        capsys.readouterr()
        got = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
               for name in self.REPEATED_ROWS_SHA256}
        assert got == self.REPEATED_ROWS_SHA256

    def test_report_reads_csvs_saved_with_a_byte_order_mark(self, tmp_path, capsys):
        # A spreadsheet's "CSV UTF-8" starts with U+FEFF; it must not join the name X1.
        repeated_rows_csvs(tmp_path)
        runs = {}
        for mark in (b"", "\ufeff".encode()):
            for name in ("source.csv", "target.csv"):
                text = (tmp_path / name).read_bytes().removeprefix("\ufeff".encode())
                (tmp_path / name).write_bytes(mark + text)
            (tmp_path / "config.json").write_text(json.dumps({
                "source_path": str(tmp_path / "source.csv"),
                "target_path": str(tmp_path / "target.csv"),
                "shift_features": ["X1"], "output_dir": str(tmp_path / "run")}))
            assert main(["report", "--config", str(tmp_path / "config.json")]) == 0
            assert capsys.readouterr().err == ""
            runs[mark] = [(tmp_path / "run" / name).read_bytes()
                          for name in ("fit.json", "corrected_posterior.csv", "rank_report.json")]
        assert runs[b""] == runs["\ufeff".encode()]

    @pytest.mark.parametrize("change,named", [
        ({"methd": "sees-d"}, "methd"),
        ({"shift_features": None}, "shift_features"),
        ({"seed": 0}, "seed"),
        ({"check_tol": 1e-9}, "check_tol"),
        ({"source_path": 3}, "'source_path' must be a string, got 3"),
        ({"target_path": ["t.json"]}, "'target_path' must be a string, got ['t.json']"),
        ({"output_dir": 1.5}, "'output_dir' must be a string, got 1.5"),
        ({"shift_features": "X1"}, "'shift_features' must be a list of strings, got 'X1'"),
        ({"smoothing_alpha": "0"}, "'smoothing_alpha' must be a real number, got '0'"),
        ({"optimizer_tol": True}, "'optimizer_tol' must be a real number, got True"),
        ({"max_iter": "ten", "method": "sees-c"}, "'max_iter' must be an integer, got 'ten'"),
        ({"max_iter": -1}, "max_iter -1 is negative"),
        ({"optimizer_tol": float("nan"), "method": "sees-d"}, "optimizer_tol nan is not finite"),
        ({"smoothing_alpha": float("nan")}, "config.json: smoothing_alpha nan is not finite"),
    ])
    def test_bad_config_keys_exit_1(self, tmp_path, instance_dir, capsys, change, named):
        config = {
            "source_path": str(instance_dir / "source.json"),
            "target_path": str(instance_dir / "target.json"),
            "shift_features": ["X1"],
            "output_dir": str(tmp_path / "run"),
        }
        config.update(change)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        assert main(["report", "--config", str(cfg_path)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# The parser's texts as argparse of Python 3.11 prints them 80 columns wide.  A call that
# names a command builds only that command's parser, and prints what the full parser would.
SJSLAB_USAGE = """\
usage: sjslab [-h]
              {plant,simulate,check,identifiability,estimate,correct,report}
              ...
"""
SJSLAB_HELP = SJSLAB_USAGE + """\

Sparse joint shift toolkit

positional arguments:
  {plant,simulate,check,identifiability,estimate,correct,report}
    plant               construct a shifted target with known truth
    simulate            write a synthetic preset instance
    check               verify a shift hypothesis between two tables
    identifiability     conditional class matrix rank report
    estimate            fit target priors and posteriors
    correct             corrected posterior CSV from a saved fit
    report              run a full experiment from a config file

options:
  -h, --help            show this help message and exit
"""
ESTIMATE_USAGE = """\
usage: sjslab estimate [-h] --method {sees-c,sees-d,confusion} --source SOURCE
                       --target-features TARGET_FEATURES
                       [--shift-features SHIFT_FEATURES] [--penalty PENALTY]
                       [--search SEARCH] [--alpha ALPHA] [--tol TOL]
                       [--max-iter MAX_ITER] [--out OUT]
                       [--posterior-out POSTERIOR_OUT]
"""
COMMAND_HELP = {
    "plant": """\
usage: sjslab plant [-h] --source SOURCE --shift-features SHIFT_FEATURES
                    --priors PRIORS [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --source SOURCE
  --shift-features SHIFT_FEATURES
  --priors PRIORS       comma-separated target priors
  --seed SEED
  --out OUT
""",
    "simulate": """\
usage: sjslab simulate [-h] --kind
                       {sjs,prior_shift,covariate_shift,cdi_not_sjs,paper_example}
                       [--params PARAMS] [--seed SEED] [--samples SAMPLES]
                       --out OUT

options:
  -h, --help            show this help message and exit
  --kind {sjs,prior_shift,covariate_shift,cdi_not_sjs,paper_example}
  --params PARAMS       JSON dict of preset parameters
  --seed SEED
  --samples SAMPLES
  --out OUT
""",
    "check": """\
usage: sjslab check [-h] --source SOURCE [--target TARGET]
                    [--partition PARTITION] --hypothesis
                    {sjs,csh,cdi,prior,sufficiency,variance} [--tol TOL]
                    [--out OUT]

options:
  -h, --help            show this help message and exit
  --source SOURCE
  --target TARGET
  --partition PARTITION
                        comma-separated features, 'trivial' or 'full'
  --hypothesis {sjs,csh,cdi,prior,sufficiency,variance}
  --tol TOL
  --out OUT
""",
    "identifiability": """\
usage: sjslab identifiability [-h] --source SOURCE [--partition PARTITION]
                              [--stats {posterior,classifier}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --source SOURCE
  --partition PARTITION
  --stats {posterior,classifier}
  --out OUT
""",
    "estimate": ESTIMATE_USAGE + """\

options:
  -h, --help            show this help message and exit
  --method {sees-c,sees-d,confusion}
  --source SOURCE
  --target-features TARGET_FEATURES
  --shift-features SHIFT_FEATURES
  --penalty PENALTY
  --search SEARCH       comma-separated candidate features or 'all'; ranks
                        subsets
  --alpha ALPHA
  --tol TOL
  --max-iter MAX_ITER
  --out OUT
  --posterior-out POSTERIOR_OUT
""",
    "correct": """\
usage: sjslab correct [-h] --source SOURCE --fit FIT --out OUT

options:
  -h, --help       show this help message and exit
  --source SOURCE
  --fit FIT
  --out OUT
""",
    "report": """\
usage: sjslab report [-h] --config CONFIG

options:
  -h, --help       show this help message and exit
  --config CONFIG
""",
}
USAGE_ERRORS = [
    ([], SJSLAB_USAGE, "sjslab: error: the following arguments are required: command"),
    (["bogus"], SJSLAB_USAGE,
     "sjslab: error: argument command: invalid choice: 'bogus' (choose from 'plant', "
     "'simulate', 'check', 'identifiability', 'estimate', 'correct', 'report')"),
    (["estimate"], ESTIMATE_USAGE, "sjslab estimate: error: the following arguments are "
     "required: --method, --source, --target-features"),
    (["report", "--config", "c", "extra"], SJSLAB_USAGE,
     "sjslab: error: unrecognized arguments: extra"),
    (["check", "--source", "s.json", "--hypothesis", "sjs"], SJSLAB_USAGE,
     "sjslab: error: --target is required for hypothesis 'sjs'"),
]


CLI_TEXTS = [
    (["-h"], 0, SJSLAB_HELP, ""),
    *[([name, "-h"], 0, text, "") for name, text in COMMAND_HELP.items()],
    *[(argv, 2, "", usage + message + "\n") for argv, usage, message in USAGE_ERRORS],
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse texts of Python 3.11")
@pytest.mark.parametrize("argv,code,out,err", CLI_TEXTS,
                         ids=[" ".join(argv) or "no-arguments" for argv, *_ in CLI_TEXTS])
def test_help_usage_and_error_texts_are_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_module_help_lists_every_command():
    # main() with no argv reads sys.argv, as the sjslab entry point calls it.
    env = {**os.environ, "PYTHONPATH": str(Path(sjslab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "sjslab.cli", "-h"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    listed = re.findall(r"^    ([a-z]+) ", out.stdout, re.MULTILINE)
    assert listed == list(sjslab.cli.COMMANDS) and len(listed) == 7


def test_readme_and_module_docstring_name_the_commands_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    in_readme = re.findall(r"`([a-z]+)`", readme.split("Subcommands: ", 1)[1].split(".", 1)[0])
    docstring = sjslab.cli.__doc__.split("Subcommands: ", 1)[1].split(".", 1)[0]
    assert in_readme == docstring.replace(",", " ").split() == list(sjslab.cli.COMMANDS)
