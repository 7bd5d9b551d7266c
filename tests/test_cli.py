import csv
import json
from pathlib import Path

import numpy as np
import pytest

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


class TestEstimateInputErrors:
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

    @pytest.mark.parametrize("change,named", [({"methd": "sees-d"}, "methd"),
                                              ({"shift_features": None}, "shift_features")])
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
