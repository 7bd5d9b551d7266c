import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sjslab
from sjslab import FeatureSpace, FiniteJointDistribution
from sjslab.cli import main
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
        assert read_json(capsys)["holds"] is True

    def test_target_required_for_two_sample_checks(self, instance_dir):
        with pytest.raises(SystemExit):
            main(["check", "--source", str(instance_dir / "source.json"),
                  "--partition", "X1", "--hypothesis", "sjs"])

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

    @pytest.mark.parametrize("mass,named", [([[0.5, -0.1], [0.3, 0.3]], "negative cell mass -0.1"),
                                            ([[0.5, float("nan")], [0.3, 0.2]],
                                             "non-finite cell mass nan")])
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
        assert f"{named} at f-cell 0, label 1" in capsys.readouterr().err
        assert not (instance_dir / "post.csv").exists()


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

    @pytest.mark.parametrize("change,named", [({"methd": "sees-d"}, "methd"),
                                              ({"shift_features": None}, "shift_features"),
                                              ({"seed": 0}, "seed"),
                                              ({"check_tol": 1e-9}, "check_tol")])
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
