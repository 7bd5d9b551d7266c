import csv
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjslab import (
    AbsoluteContinuityViolated,
    DatasetSchema,
    EmptyDataset,
    ExperimentConfig,
    FeaturePartition,
    FiniteJointDistribution,
    SchemaViolation,
    check_cdi,
    check_covariate_shift,
    check_prior_shift,
    check_sjs,
    empirical_distribution,
    generate_synthetic,
    load_dataset,
    make_preset,
    plant_sjs,
    posterior,
    run_experiment,
    sample_rows,
    schema_for_distribution,
    write_rows_csv,
)
from sjslab import datasets
from sjslab.cli import main
from sjslab.datasets import read_csv_tokens
from sjslab.experiment import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_UNDERDETERMINED,
    infer_schema,
    load_source,
    load_target_marginal,
    write_posterior_csv,
)
from _support import reference_load_dataset, random_source


def write_csv(path, text):
    Path(path).write_text(text)
    return str(path)


BASIC_SCHEMA = DatasetSchema({"color": ["red", "green"], "size": ["s", "m", "l"]},
                             label_column="label", label_domain=["0", "1"])


class TestLoadDataset:
    def test_loads_matching_rows_in_order(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "color,size,label\nred,s,0\ngreen,l,1\nred,m,0\n")
        rows = load_dataset(path, BASIC_SCHEMA)
        assert rows.num_rows == 3
        np.testing.assert_array_equal(rows.feature_codes,
                                      [[0, 0], [1, 2], [0, 1]])
        np.testing.assert_array_equal(rows.label_codes, [0, 1, 0])

    def test_unseen_category_is_schema_violation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size,label\nblue,s,0\n")
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, BASIC_SCHEMA)
        assert info.value.row == 0 and info.value.column == "color"

    def test_missing_label_column_is_schema_violation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size\nred,s\n")
        with pytest.raises(SchemaViolation):
            load_dataset(path, BASIC_SCHEMA)

    def test_missing_values_follow_policy(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "color,size,label\nred,,0\ngreen,l,1\n")
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, BASIC_SCHEMA)
        assert info.value.column == "size"
        lenient = DatasetSchema(BASIC_SCHEMA.feature_domains, label_column="label",
                                label_domain=["0", "1"], missing_policy="drop_row")
        rows = load_dataset(path, lenient)
        assert rows.num_rows == 1

    def test_unlabelled_schema(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size\nred,s\ngreen,m\n")
        schema = DatasetSchema({"color": ["red", "green"], "size": ["s", "m", "l"]})
        rows = load_dataset(path, schema)
        assert rows.label_codes is None and rows.num_rows == 2


def decoded(load, path, schema):
    """('ok', feature codes, label codes) or ('error', message, row, column)."""
    try:
        feats, labels = load(path, schema)
    except SchemaViolation as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", np.asarray(feats).tolist(),
            None if labels is None else np.asarray(labels).tolist())


def load_codes(path, schema):
    rows = load_dataset(path, schema)
    assert rows.feature_codes.dtype == np.int64
    return rows.feature_codes, rows.label_codes


def reference_infer_schema(path):
    """Labelled schema from the sorted non-empty values of each column, read row by row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = list(reader.fieldnames or [])
        seen = {c: set() for c in header}
        for row in reader:
            for c in header:
                if row.get(c) not in (None, ""):
                    seen[c].add(row[c])
    order = {c: sorted(seen[c], key=lambda s: (len(s), s)) for c in header}
    label = order.pop("label")
    return DatasetSchema(order, label_column="label", label_domain=label)


def inferred(infer, path):
    try:
        schema = infer(path)
    except SchemaViolation as exc:
        return ("error", str(exc))
    return ("ok", schema.feature_domains, schema.label_domain)


def with_policy(schema, policy):
    return DatasetSchema(schema.feature_domains, label_column=schema.label_column,
                         label_domain=schema.label_domain, missing_policy=policy)


EDGE_SCHEMA = DatasetSchema({"color": ["red", "dark,red"], "size": ["s", "m", "l"]},
                            label_column="label", label_domain=["0", "1"])

EDGE_CSVS = {
    "blank_lines": "color,size,label\n\nred,s,0\n\n\ngreen,l,1\n",
    "short_row": "color,size,label\nred,s,0\nred\n",
    "long_row": "color,size,label\nred,s,0,extra,more\nred,m,1\n",
    "missing_before_unseen": "color,size,label\nred,s,0\nblue,,1\n",
    "drop_row_numbering": "color,size,label\nred,,0\n\nred,m,\nred,xl,1\n",
    "unseen_label": "color,size,label\nred,s,2\n",
    "quoted_comma": 'color,size,label\n"dark,red",s,0\nred,"m",1\r\n',
    "repeated_column": "color,color,size,label\nblue,red,s,0\n",
    "header_only": "color,size,label\n",
    "empty_file": "",
}


def random_csv(seed):
    """A small CSV with string and integer values, quoting, blank lines,
    short and long rows, missing and unseen values, and its schema."""
    rng = random.Random(seed)
    names = [f"c{j}" for j in range(rng.randint(1, 3))]
    pools = [rng.sample(["0", "1", "2", "10", "a", "b", "bb", "a,b", 'q"x', " "],
                        rng.randint(1, 4)) for _ in range(len(names) + 1)]
    header = names + ["label"]
    lines = [header]
    for _ in range(rng.randint(0, 25)):
        row = [rng.choice(pool) for pool in pools]
        if rng.random() < 0.08:
            row[rng.randrange(len(row))] = ""
        if rng.random() < 0.05:
            row[rng.randrange(len(row))] = "unseen"
        if rng.random() < 0.05:
            row = row[:rng.randint(1, len(row) - 1)]
        if rng.random() < 0.05:
            row = row + ["extra"]
        lines.append(row if rng.random() > 0.05 else [])
    schema = DatasetSchema(dict(zip(names, pools)), label_column="label",
                           label_domain=pools[-1],
                           missing_policy=rng.choice(["error", "drop_row"]))
    return lines, schema


spellings = st.one_of(st.integers(-20, 300).map(str),
                      st.text(alphabet='ab ,"x-', min_size=1, max_size=4))


@st.composite
def coded_rows(draw):
    domains = draw(st.lists(st.lists(spellings, min_size=1, max_size=5, unique=True),
                            min_size=1, max_size=3))
    label_domain = draw(st.one_of(st.none(),
                                  st.lists(spellings, min_size=2, max_size=4, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 30))
    feats = np.column_stack([rng.integers(0, len(d), n) for d in domains])
    labels = None if label_domain is None else rng.integers(0, len(label_domain), n)
    schema = DatasetSchema({f"f{j}": d for j, d in enumerate(domains)},
                           label_column=None if labels is None else "label",
                           label_domain=label_domain)
    return schema, feats, labels


class TestCsvReader:
    @settings(max_examples=60, deadline=None)
    @given(coded_rows())
    def test_write_then_load_round_trip(self, case):
        schema, feats, labels = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            write_rows_csv(path, schema, feats, labels)
            rows = load_dataset(path, schema)
        np.testing.assert_array_equal(rows.feature_codes, feats)
        if labels is None:
            assert rows.label_codes is None
        else:
            np.testing.assert_array_equal(rows.label_codes, labels)

    @pytest.mark.parametrize("policy", ["error", "drop_row"])
    @pytest.mark.parametrize("name", sorted(EDGE_CSVS))
    def test_edge_cases_match_row_reader(self, tmp_path, name, policy):
        path = write_csv(tmp_path / "d.csv", EDGE_CSVS[name])
        schema = with_policy(EDGE_SCHEMA, policy)
        got = decoded(load_codes, path, schema)
        assert got == decoded(reference_load_dataset, path, schema)

    def test_error_semantics(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", EDGE_CSVS["missing_before_unseen"])
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, EDGE_SCHEMA)
        assert (str(info.value), info.value.row, info.value.column) == \
            ("missing value at row 1, column 'size'", 1, "size")
        path = write_csv(tmp_path / "d.csv", EDGE_CSVS["drop_row_numbering"])
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, with_policy(EDGE_SCHEMA, "drop_row"))
        assert "'xl'" in str(info.value)
        assert (info.value.row, info.value.column) == (2, "size")

    def test_random_csvs_match_row_reader(self, tmp_path):
        path = tmp_path / "d.csv"
        for seed in range(150):
            lines, schema = random_csv(seed)
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(lines)
            assert decoded(load_codes, path, schema) == \
                decoded(reference_load_dataset, path, schema), seed
            assert inferred(lambda p: infer_schema(p, labelled=True), path) == \
                inferred(reference_infer_schema, path), seed

    def test_chunk_boundaries_do_not_change_results(self, tmp_path, monkeypatch):
        text = ("color,size,label\nred,s,0\n\nred,m,1\n\"dark,red\",l\n\n\n"
                "red,s,1,extra\nred,m,0\ndark,s,0\nred,,1\nred,l,0\n")
        path = write_csv(tmp_path / "d.csv", text)

        def results():
            return (read_csv_tokens(path).ids.tolist(),
                    infer_schema(path, labelled=True),
                    [decoded(load_codes, path, with_policy(EDGE_SCHEMA, policy))
                     for policy in ("error", "drop_row")])

        default = results()
        monkeypatch.setattr(datasets, "CHUNK_ROWS", 2)
        assert results() == default
        assert len(default[0]) == 8

    def test_writers_match_row_loops(self, tmp_path, source):
        schema = DatasetSchema({"X1": ["a", "b,c"], "X2": ["0", "2"]},
                               label_column="label", label_domain=["n", "y"])
        feats, labels = sample_rows(source, 50, seed=4)
        write_rows_csv(tmp_path / "rows.csv", schema, feats, labels)
        with (tmp_path / "ref.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["X1", "X2", "label"])
            for k in range(feats.shape[0]):
                writer.writerow([schema.feature_domains["X1"][feats[k, 0]],
                                 schema.feature_domains["X2"][feats[k, 1]],
                                 schema.label_domain[labels[k]]])
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        table = posterior(source, FeaturePartition.full(source.space))
        write_posterior_csv(tmp_path / "post.csv", source, table)
        with (tmp_path / "ref.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["X1", "X2", "posterior_0", "posterior_1", "defined"])
            coords = source.space.all_coords()
            for x in range(source.space.num_cells):
                writer.writerow([int(v) for v in coords[x]]
                                + [repr(float(v)) for v in table.values[x]]
                                + [int(table.defined[x])])
        assert (tmp_path / "post.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestTargetDecoding:
    """The target CSV is decoded with the source's value spellings."""

    SOURCE = "X1,X2,label\n0,a,0\n2,b,1\n0,b,1\n2,a,0\n0,a,1\n2,b,0\n"

    def test_source_keeps_its_spellings(self, tmp_path):
        source = load_source(write_csv(tmp_path / "s.csv", self.SOURCE))
        assert source.domains == (("0", "2"), ("a", "b"))

    def test_target_value_absent_from_source_is_rejected(self, tmp_path):
        source = load_source(write_csv(tmp_path / "s.csv", self.SOURCE))
        target = write_csv(tmp_path / "t.csv", "X1,X2\n0,a\n1,b\n")
        with pytest.raises(SchemaViolation) as info:
            load_target_marginal(target, source)
        assert "'1'" in str(info.value)
        assert (info.value.row, info.value.column) == (1, "X1")

    def test_target_decoded_by_spelling_not_position(self, tmp_path):
        source = load_source(write_csv(tmp_path / "s.csv", self.SOURCE))
        target = write_csv(tmp_path / "t.csv", "X1,X2\n2,b\n2,b\n0,a\n2,a\n")
        marginal = load_target_marginal(target, source)
        cell = source.space.index_of
        assert marginal[cell((1, 1))] == pytest.approx(0.5)
        assert marginal[cell((0, 0))] == marginal[cell((1, 0))] == pytest.approx(0.25)

    def test_report_on_string_valued_columns(self, tmp_path, capsys):
        source = write_csv(tmp_path / "s.csv",
                           "color,label\na,0\na,0\na,1\nb,1\nb,1\nb,0\nb,1\n")
        target = write_csv(tmp_path / "t.csv", "color\na\nb\nb\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source_path": source, "target_path": target,
                                      "shift_features": [],
                                      "output_dir": str(tmp_path / "run")}))
        assert main(["report", "--config", str(config)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "ok"


class TestEmpiricalDistribution:
    def test_uniform_counts(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "color,size,label\nred,s,0\nred,s,1\ngreen,s,0\ngreen,s,1\n")
        dist = empirical_distribution(load_dataset(path, BASIC_SCHEMA))
        idx = dist.space.index_of((0, 0))
        assert dist.mass[idx, 0] == pytest.approx(0.25)
        assert dist.mass.sum() == pytest.approx(1.0)

    def test_large_alpha_approaches_uniform(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size,label\nred,s,0\n")
        dist = empirical_distribution(load_dataset(path, BASIC_SCHEMA),
                                      smoothing_alpha=1e9)
        expected = 1.0 / (6 * 2)
        np.testing.assert_allclose(dist.mass, expected, rtol=1e-6)

    def test_empty_dataset_raises(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size,label\n")
        with pytest.raises(EmptyDataset):
            empirical_distribution(load_dataset(path, BASIC_SCHEMA))

    def test_feature_only_rows_give_marginal(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "color,size\nred,s\nred,m\n")
        schema = DatasetSchema({"color": ["red", "green"], "size": ["s", "m", "l"]})
        marginal = empirical_distribution(load_dataset(path, schema))
        assert isinstance(marginal, np.ndarray)
        assert marginal.sum() == pytest.approx(1.0)

    def test_monte_carlo_consistency(self, source, tmp_path):
        schema = schema_for_distribution(source)
        feats, labels = sample_rows(source, 10_000, seed=123)
        path = tmp_path / "sample.csv"
        write_rows_csv(path, schema, feats, labels)
        emp = empirical_distribution(load_dataset(path, schema))
        # each cell within 3 sigma of its exact mass at n = 10^4
        assert np.abs(emp.mass - source.mass).max() < 0.02


class TestGenerateSynthetic:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        a = generate_synthetic("sjs", {"num_features": 3}, seed=9,
                               out_dir=tmp_path / "a", num_samples=300)
        b = generate_synthetic("sjs", {"num_features": 3}, seed=9,
                               out_dir=tmp_path / "b", num_samples=300)
        for name in a:
            assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()

    def test_fixed_example_preset_states(self, tmp_path):
        paths = generate_synthetic("paper_example", seed=0, out_dir=tmp_path,
                                   num_samples=50)
        p = FiniteJointDistribution.load(paths["source.json"])
        q = FiniteJointDistribution.load(paths["target.json"])
        np.testing.assert_allclose(p.label_masses(), [0.5, 0.5], atol=1e-12)
        f = FeaturePartition.from_features(p.space, ["X1"])
        assert check_sjs(p, q, f).holds
        assert not check_prior_shift(p, q).holds
        assert check_covariate_shift(p, q, f).holds

    def test_squared_posterior_preset_states(self, tmp_path):
        paths = generate_synthetic("cdi_not_sjs", seed=0, out_dir=tmp_path)
        p = FiniteJointDistribution.load(paths["source.json"])
        q = FiniteJointDistribution.load(paths["target.json"])
        f = FeaturePartition.from_features(p.space, ["X1"])
        full = FeaturePartition.full(p.space)
        assert check_cdi(p, q, f).holds
        assert not check_covariate_shift(p, q, full).holds

    def test_prior_shift_and_sjs_presets(self):
        p, q, _ = make_preset("prior_shift", seed=3)
        assert check_prior_shift(p, q).holds
        p, q, shift = make_preset("sjs", {"num_features": 3}, seed=3)
        f = FeaturePartition.from_features(p.space, shift)
        assert check_sjs(p, q, f).holds

    def test_covariate_shift_preset(self):
        p, q, _ = make_preset("covariate_shift", seed=5)
        assert check_covariate_shift(p, q, FeaturePartition.full(p.space)).holds

    def test_round_trip_total_variation(self, tmp_path):
        paths = generate_synthetic("sjs", {"num_features": 2,
                                           "cardinalities": [3, 2]},
                                   seed=21, out_dir=tmp_path, num_samples=100_000)
        exact = FiniteJointDistribution.load(paths["source.json"])
        schema = schema_for_distribution(exact)
        emp = empirical_distribution(load_dataset(paths["source_sample.csv"], schema))
        tv = 0.5 * np.abs(emp.mass - exact.mass).sum()
        assert tv < 0.01


class TestRunExperiment:
    def _planted_files(self, tmp_path, seed=11):
        rng = np.random.default_rng(seed)
        source = random_source(rng, [2, 3], 2)
        f = FeaturePartition.from_features(source.space, ["X1"])
        inst = plant_sjs(source, f, rng.dirichlet([4, 4]), "random", seed=seed)
        source.save(tmp_path / "source.json")
        inst.target.save(tmp_path / "target.json")
        return inst

    def test_recovers_planted_priors(self, tmp_path):
        inst = self._planted_files(tmp_path)
        config = ExperimentConfig(str(tmp_path / "source.json"),
                                  str(tmp_path / "target.json"),
                                  ("X1",), method="sees-d",
                                  output_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        assert result.exit_code == EXIT_OK
        np.testing.assert_allclose(result.fit.target_priors, inst.planted_priors,
                                   atol=1e-8)
        for name in ("fit", "posterior", "rank_report", "manifest"):
            assert Path(result.outputs[name]).exists()

    def test_no_shift_returns_source_priors(self, tmp_path, source):
        source.save(tmp_path / "p.json")
        config = ExperimentConfig(str(tmp_path / "p.json"), str(tmp_path / "p.json"),
                                  ("X1",), output_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        np.testing.assert_allclose(result.fit.target_priors, source.label_masses(),
                                   atol=1e-10)

    def test_absolute_continuity_error_surfaces(self, tmp_path):
        space_mass = np.array([[0.5, 0.5], [0.0, 0.0]])
        from sjslab import FeatureSpace
        space = FeatureSpace(["X1"], [2])
        p = FiniteJointDistribution(space, 2, space_mass)
        q = FiniteJointDistribution(space, 2, np.full((2, 2), 0.25))
        p.save(tmp_path / "p.json")
        q.save(tmp_path / "q.json")
        config = ExperimentConfig(str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                                  (), output_dir=str(tmp_path / "run"))
        with pytest.raises(AbsoluteContinuityViolated) as info:
            run_experiment(config)
        assert "cell" in str(info.value)

    def test_underdetermined_exit_code(self, tmp_path):
        rng = np.random.default_rng(2)
        source = random_source(rng, [2, 2], 3)  # 3 labels, 2 cells per shift cell
        f = FeaturePartition.from_features(source.space, ["X1"])
        inst = plant_sjs(source, f, [0.2, 0.3, 0.5], "random", seed=2)
        source.save(tmp_path / "p.json")
        inst.target.save(tmp_path / "q.json")
        config = ExperimentConfig(str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                                  ("X1",), output_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        assert result.exit_code == EXIT_UNDERDETERMINED
        assert result.status == "underdetermined"

    def test_not_converged_exit_code(self, tmp_path, source, target_literal, monkeypatch):
        source.save(tmp_path / "p.json")
        target_literal.save(tmp_path / "q.json")
        import sjslab.experiment as exp

        def stunted(p, q_marginal, f, opts):
            from sjslab import OptimizerOptions, sees_c_fit
            return sees_c_fit(p, q_marginal, f, OptimizerOptions(tol=0.0, max_iter=2))

        monkeypatch.setattr(exp, "sees_c_fit", stunted)
        config = ExperimentConfig(str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                                  ("X1",), method="sees-c",
                                  output_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        assert result.exit_code == EXIT_NOT_CONVERGED

    def test_manifest_pins_inputs_and_is_reproducible(self, tmp_path):
        self._planted_files(tmp_path)
        kwargs = dict(source_path=str(tmp_path / "source.json"),
                      target_path=str(tmp_path / "target.json"),
                      shift_features=("X1",))
        r1 = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "r1"), **kwargs))
        r2 = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "r2"), **kwargs))
        m1 = json.loads(Path(r1.outputs["manifest"]).read_text())
        assert set(m1["inputs"]) == {"source", "target"}
        assert "seed" not in m1 and not {"seed", "check_tol"} & set(m1["config"])
        assert len(m1["inputs"]["source"]["sha256"]) == 64
        for name in ("fit", "posterior", "rank_report"):
            assert Path(r1.outputs[name]).read_bytes() == Path(r2.outputs[name]).read_bytes()

    def test_config_validation(self, tmp_path):
        with pytest.raises(Exception):
            ExperimentConfig("missing.json", "missing.json", ())
        (tmp_path / "x.json").write_text("{}")
        with pytest.raises(Exception):
            ExperimentConfig(str(tmp_path / "x.json"), str(tmp_path / "x.json"),
                             (), method="nonsense")
