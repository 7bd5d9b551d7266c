import csv
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sjslab import (
    AbsoluteContinuityViolated,
    ConditionalTable,
    DatasetSchema,
    EmptyDataset,
    ExperimentConfig,
    FeaturePartition,
    FeatureSpace,
    FiniteJointDistribution,
    InvalidDistribution,
    SchemaViolation,
    SjslabError,
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
from sjslab.datasets import (
    infer_schema,
    load_source,
    load_target_marginal,
    read_csv_tokens,
    tokens_distribution,
    write_posterior_csv,
)
from sjslab.experiment import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_UNDERDETERMINED
from _support import reference_load_dataset, random_source


def write_csv(path, text):
    Path(path).write_text(text)
    return str(path)


BASIC_SCHEMA = DatasetSchema({"color": ["red", "green"], "size": ["s", "m", "l"]},
                             label_domain=["0", "1"])


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

    def test_missing_value_is_schema_violation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "color,size,label\nred,,0\ngreen,l,1\n")
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, BASIC_SCHEMA)
        assert info.value.column == "size"

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
    return DatasetSchema(order, label_domain=label)


def inferred(infer, path):
    try:
        schema = infer(path)
    except SchemaViolation as exc:
        return ("error", str(exc))
    return ("ok", schema.feature_domains, schema.label_domain)


EDGE_SCHEMA = DatasetSchema({"color": ["red", "dark,red"], "size": ["s", "m", "l"]},
                            label_domain=["0", "1"])

EDGE_CSVS = {
    "blank_lines": "color,size,label\n\nred,s,0\n\n\ngreen,l,1\n",
    "short_row": "color,size,label\nred,s,0\nred\n",
    "long_row": "color,size,label\nred,s,0,extra,more\nred,m,1\n",
    "missing_before_unseen": "color,size,label\nred,s,0\nblue,,1\n",
    "missing_in_first_row": "color,size,label\nred,,0\n\nred,m,\nred,xl,1\n",
    "unseen_label": "color,size,label\nred,s,2\n",
    "quoted_comma": 'color,size,label\n"dark,red",s,0\nred,"m",1\r\n',
    "repeated_column": "color,color,size,label\nblue,red,s,0\n",
    "repeated_bad_records": "color,size,label\nred,s,0\nred,s,0\nred,,1\nred,xl,1\nred,,1\nred,xl,1\n",
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
    schema = DatasetSchema(dict(zip(names, pools)), label_domain=pools[-1])
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
                           label_domain=label_domain)
    return schema, feats, labels


@st.composite
def messy_csvs(draw):
    """A labelled CSV text whose rows repeat a few records, and its schema.

    Records may be blank, short, long, or hold missing and unseen values;
    spellings may hold ``,``, ``"`` and newlines, so they are quoted; rows
    end in LF or CRLF, and the last one may have no line end.
    """
    width = draw(st.integers(1, 3))
    pools = [draw(st.lists(st.text(alphabet='ab0 ,"\n', min_size=1, max_size=3),
                           min_size=1, max_size=3, unique=True))
             for _ in range(width + 1)]
    bad = ["", "zz"]  # missing, unseen

    def record():
        size = draw(st.sampled_from([width + 1] * 4 + [0, 1, width + 2]))
        return [draw(st.sampled_from(pools[j] * 4 + bad if j <= width else ["x", 'y"']))
                for j in range(size)]

    records = [record() for _ in range(draw(st.integers(1, 6)))]
    picks = draw(st.lists(st.integers(0, len(records) - 1), max_size=40))
    out = io.StringIO()
    for row in [[f"c{j}" for j in range(width)] + ["label"]] + [records[k] for k in picks]:
        csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerow(row)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    schema = DatasetSchema({f"c{j}": pools[j] for j in range(width)},
                           label_domain=pools[-1])
    return text, schema


@st.composite
def plain_csvs(draw):
    """A CSV text with no ``"`` and no CR, which the plain-line path reads.

    Lines may be blank, whitespace-only or a lone ``,``, shorter or
    longer than the header, and repeat; the header may be blank, and the
    text may end without a newline.  Fields may hold NUL and the ASCII
    characters that ``str.splitlines`` (but not csv.reader) breaks on.
    """
    field = st.text(alphabet="ab0 \t\x00\x0b\x0c\x1c\x1e", max_size=3)
    line = st.one_of(st.sampled_from(["", " ", "\t", ","]),
                     st.lists(field, min_size=1, max_size=5).map(",".join))
    records = draw(st.lists(line, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(records) - 1), max_size=30))
    header = draw(st.one_of(st.just(""), st.lists(st.sampled_from(["c0", "c1", "label", ""]),
                                                  min_size=1, max_size=4).map(",".join)))
    return "\n".join([header] + [records[k] for k in picks]) + draw(
        st.sampled_from(["", "\n", "\n\n"]))


def token_lists(tokens):
    header, spellings, ids, row_of = tokens
    return (header, spellings, ids.dtype, ids.shape, ids.tolist(), row_of.dtype, row_of.tolist())


def csv_reader_tokens(path):
    """``read_csv_tokens`` held to its csv.reader path: the reference for the plain path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_read_plain_lines", lambda fh: None)
        return read_csv_tokens(path)


def posterior_row_loop(source, table) -> bytes:
    """The posterior CSV written one ``csv.writer`` row per feature cell."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(list(source.space.feature_names)
                    + [f"posterior_{i}" for i in range(table.num_labels)] + ["defined"])
    coords = source.space.all_coords()
    for x in range(source.space.num_cells):
        writer.writerow([int(v) for v in coords[x]]
                        + [repr(float(v)) for v in table.values[x]]
                        + [int(table.defined[x])])
    return fh.getvalue().encode()


# Values a posterior holds, and a few it never does but a writer must spell exactly.
_SPELLED = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1 / 3, 0.5, 1.0,
            1e308, 1.7976931348623157e308, -1.7976931348623157e308, float("inf")]


@st.composite
def posterior_tables(draw):
    """A source over 1-6 features and a table over its feature cells: values
    drawn from ``_SPELLED`` (so they repeat) or from all floats, some rows
    undefined, and feature names that may hold ``,``, ``"`` or a line break."""
    d = draw(st.integers(1, 6))
    cards = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    names = draw(st.lists(st.text('ab,"\r\n ', min_size=1, max_size=4), min_size=d,
                          max_size=d, unique=True))
    ell = draw(st.integers(2, 4))
    space = FeatureSpace(names, cards)
    source = FiniteJointDistribution(space, ell, np.full((space.num_cells, ell),
                                                         1 / (space.num_cells * ell)))
    elements = st.one_of(st.sampled_from(_SPELLED), st.floats())
    values = draw(hnp.arrays(np.float64, (space.num_cells, ell), elements=elements))
    defined = draw(hnp.arrays(bool, space.num_cells))
    return source, ConditionalTable(FeaturePartition.full(space), values, defined)


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

    @pytest.mark.parametrize("name", sorted(EDGE_CSVS))
    def test_edge_cases_match_row_reader(self, tmp_path, name):
        path = write_csv(tmp_path / "d.csv", EDGE_CSVS[name])
        got = decoded(load_codes, path, EDGE_SCHEMA)
        assert got == decoded(reference_load_dataset, path, EDGE_SCHEMA)

    def test_error_semantics(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", EDGE_CSVS["missing_before_unseen"])
        with pytest.raises(SchemaViolation) as info:
            load_dataset(path, EDGE_SCHEMA)
        assert (str(info.value), info.value.row, info.value.column) == \
            ("missing value at row 1, column 'size'", 1, "size")

    def test_a_loader_error_keeps_its_row_and_column_and_notes_its_file(self, tmp_path):
        source = load_source(write_csv(tmp_path / "s.csv", "X1,label\n0,a\n1,b\n"))
        path = write_csv(tmp_path / "t.csv", "X1\n0\n5\n")
        with pytest.raises(SchemaViolation) as info:
            load_target_marginal(path, source)
        assert (str(info.value), info.value.row, info.value.column, info.value.__notes__) == \
            ("value '5' not in declared domain at row 1, column 'X1'", 1, "X1", [path])

    def test_random_csvs_match_row_reader(self, tmp_path):
        path = tmp_path / "d.csv"
        for seed in range(150):
            lines, schema = random_csv(seed)
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(lines)
            assert decoded(load_codes, path, schema) == \
                decoded(reference_load_dataset, path, schema), seed
            assert inferred(infer_schema, path) == inferred(reference_infer_schema, path), seed

    def test_chunk_boundaries_do_not_change_results(self, tmp_path):
        text = ("color,size,label\nred,s,0\n\nred,m,1\n\"dark,red\",l\n\n\n"
                "red,s,1,extra\nred,m,0\nred,s,0\ndark,s,0\nred,m,1\nred,,1\nred,l,0\n"
                "red,s,0\nred,m,0,more\n")
        path = write_csv(tmp_path / "d.csv", text)

        def results():
            header, spellings, ids, row_of = read_csv_tokens(path)
            return (header, spellings, ids.tolist(), row_of.tolist(),
                    infer_schema(path),
                    decoded(load_codes, path, EDGE_SCHEMA))

        default = results()
        assert results() == default
        header, spellings, ids, row_of = default[:4]
        assert (len(ids), len(row_of)) == (9, 12)  # distinct records, non-blank rows
        # Expanded through row_of, the ids spell out every padded or cut row,
        # with spellings numbered in order of first appearance.
        with open(path, newline="") as fh:
            rows = [(r + [""] * 3)[:3] for r in list(csv.reader(fh))[1:] if r]
        assert [[spellings[k] for k in ids[r]] for r in row_of] == rows
        assert spellings == tuple(dict.fromkeys([""] + [v for r in rows for v in r]))

    @settings(max_examples=80, deadline=None)
    @given(messy_csvs())
    def test_messy_csvs_match_row_reader(self, case):
        text, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, newline="")
            assert decoded(load_codes, path, schema) == \
                decoded(reference_load_dataset, path, schema)
            assert inferred(infer_schema, path) == inferred(reference_infer_schema, path)

    @settings(max_examples=150, deadline=None)
    @given(plain_csvs(), st.integers(1, 7))
    def test_plain_lines_match_csv_reader(self, text, block_chars):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, newline="")
            with path.open(newline="") as fh:
                assert datasets._read_plain_lines(fh) is not None
            want = token_lists(csv_reader_tokens(path))
            assert token_lists(read_csv_tokens(path)) == want
            with pytest.MonkeyPatch.context() as mp:  # lines cross block boundaries
                mp.setattr(datasets, "BLOCK_CHARS", block_chars)
                assert token_lists(read_csv_tokens(path)) == want

    def test_nul_in_a_field_reads_alike_on_both_paths(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b\nx\x00y,1\n\x00,\nx\x00y,1\n")
        tokens = read_csv_tokens(path)
        assert token_lists(tokens) == token_lists(csv_reader_tokens(path))
        assert tokens.spellings == ("", "x\x00y", "1", "\x00")
        assert tokens.row_of.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("text", ["a,b\n0,{big}\n0,1\n", "{big},b\n0,1\n", "a,b\n0,{big}"])
    def test_over_limit_field_raises_the_csv_reader_error(self, tmp_path, text):
        limit = csv.field_size_limit()
        path = write_csv(tmp_path / "d.csv", text.format(big="1" * (limit + 1)))
        with pytest.raises(csv.Error, match=rf"field larger than field limit \({limit}\)"):
            read_csv_tokens(path)
        # A line over the limit whose fields are within it reads as csv.reader reads it.
        path = write_csv(tmp_path / "e.csv", text.format(big="1" * (limit // 2) + ","
                                                          + "1" * (limit // 2 + 2)))
        assert token_lists(read_csv_tokens(path)) == token_lists(csv_reader_tokens(path))

    def test_field_limit_is_read_at_call_time(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b\n0,123456789\n")
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(csv.Error, match=r"field larger than field limit \(8\)"):
                read_csv_tokens(path)
        finally:
            csv.field_size_limit(old)
        assert read_csv_tokens(path).spellings == ("", "0", "123456789")

    def test_load_source_reads_the_csv_once(self, tmp_path, monkeypatch):
        calls, built = [], []
        init = FiniteJointDistribution.__init__

        def counted(path):
            calls.append(path)
            return read_csv_tokens(path)

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(datasets, "read_csv_tokens", counted)
        monkeypatch.setattr(FiniteJointDistribution, "__init__", counted_init)
        path = write_csv(tmp_path / "s.csv", "X1,label\na,0\nb,1\na,0\na,1\n")
        source = load_source(path)
        assert len(calls) == 1 and len(built) == 1  # one read, one table
        assert source.domains == (("a", "b"),)
        np.testing.assert_array_equal(source.mass, [[0.5, 0.25], [0.0, 0.25]])

    def test_samples_are_read_by_plain_lines(self, tmp_path, monkeypatch):
        paths = generate_synthetic("sjs", {"num_features": 3}, seed=2, out_dir=tmp_path,
                                   num_samples=300)
        exact = FiniteJointDistribution.load(paths["source.json"])
        cases = [(paths["source_sample.csv"], schema_for_distribution(exact)),
                 (paths["target_features.csv"], schema_for_distribution(exact, labelled=False))]
        expected = [decoded(reference_load_dataset, path, schema) for path, schema in cases]

        def refused(fh):
            raise AssertionError("a sample was read by csv.reader")

        monkeypatch.setattr(datasets, "_read_csv_records", refused)
        for (path, schema), want in zip(cases, expected):
            assert b"\r" not in Path(path).read_bytes()
            assert decoded(load_codes, path, schema) == want

    @pytest.mark.parametrize("spelling", ["a\rb", "\r", "a\r\nb", "a\nb", "a,b"])
    def test_a_spelling_with_a_line_break_round_trips(self, tmp_path, spelling):
        schema = DatasetSchema({"X1": ["x", spelling], "X2": ["0", "1"]},
                               label_domain=["n", spelling])
        feats, labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]]), np.array([1, 0, 1, 1])
        write_rows_csv(tmp_path / "rows.csv", schema, feats, labels)
        text = (tmp_path / "rows.csv").read_bytes()
        assert text.endswith(b"\r\n") == ("\r" in spelling)
        rows = load_dataset(tmp_path / "rows.csv", schema)
        np.testing.assert_array_equal(rows.feature_codes, feats)
        np.testing.assert_array_equal(rows.label_codes, labels)

    def test_writers_match_row_loops(self, tmp_path, source):
        schema = DatasetSchema({"X1": ["a", "b,c"], "X2": ["0", "2"]},
                               label_domain=["n", "y"])
        feats, labels = sample_rows(source, 50, seed=4)
        write_rows_csv(tmp_path / "rows.csv", schema, feats, labels)
        with (tmp_path / "ref.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # no spelling holds "\r"
            writer.writerow(["X1", "X2", "label"])
            for k in range(feats.shape[0]):
                writer.writerow([schema.feature_domains["X1"][feats[k, 0]],
                                 schema.feature_domains["X2"][feats[k, 1]],
                                 schema.label_domain[labels[k]]])
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        table = posterior(source, FeaturePartition.full(source.space))
        write_posterior_csv(tmp_path / "post.csv", source, table)
        assert (tmp_path / "post.csv").read_bytes() == posterior_row_loop(source, table)

    @settings(max_examples=150, deadline=None)
    @given(posterior_tables(), st.integers(1, 9))
    def test_posterior_writer_matches_the_row_loop(self, tmp_path_factory, drawn, block_rows):
        """Blocks of a few rows, so that a table spans several of them."""
        source, table = drawn
        path = tmp_path_factory.mktemp("post") / "post.csv"
        with mock.patch.object(datasets, "BLOCK_ROWS", block_rows):
            write_posterior_csv(path, source, table)
        assert path.read_bytes() == posterior_row_loop(source, table)

    def test_a_table_over_other_cells_is_rejected_unwritten(self, tmp_path):
        source = FiniteJointDistribution(FeatureSpace(["X1", "X2"], [2, 3]), 2,
                                         np.full((6, 2), 1 / 12))
        table = posterior(source, FeaturePartition.from_features(source.space, ["X1"]))
        with pytest.raises(InvalidDistribution) as info:
            write_posterior_csv(tmp_path / "post.csv", source, table)
        assert str(info.value) == "posterior table has 2 rows, source has 6 feature cells"
        assert not (tmp_path / "post.csv").exists()


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

    def test_unseen_value_on_a_repeated_record_names_its_first_row(self, tmp_path):
        source = load_source(write_csv(tmp_path / "s.csv", self.SOURCE))
        target = write_csv(tmp_path / "t.csv",
                           "X1,X2\n0,a\n2,b\n0,a\n2,c\n2,b\n2,c\n0,a\n2,c\n")
        with pytest.raises(SchemaViolation) as info:
            load_target_marginal(target, source)
        assert str(info.value) == "value 'c' not in declared domain at row 3, column 'X2'"
        assert (info.value.row, info.value.column) == (3, "X2")

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


def table_or_error(make):
    """What a table builder gives, as comparable values: every bit of its masses, or its error."""
    try:
        table = make()
    except SjslabError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(table, np.ndarray):
        return ("marginal", table.dtype, table.shape, table.tobytes())
    return ("joint", table.space.feature_names, table.space.cardinalities, table.num_labels,
            table.mass.dtype, table.mass.tobytes())


def counted_and_expanded(path, schema, alpha):
    return (table_or_error(lambda: tokens_distribution(read_csv_tokens(path), schema, alpha)),
            table_or_error(lambda: empirical_distribution(load_dataset(path, schema), alpha)))


class TestCountedTables:
    """Tables counted by record equal the tables of the expanded rows, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.0, 0.375])
    def test_random_csvs(self, tmp_path, alpha):
        path = tmp_path / "d.csv"
        kinds = set()
        for seed in range(150):
            lines, schema = random_csv(seed)
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(lines)
            for case in (schema, DatasetSchema(schema.feature_domains)):
                counted, expanded = counted_and_expanded(path, case, alpha)
                assert counted == expanded, (seed, case.label_domain is not None)
                kinds.add(counted[:2] if counted[0] == "error" else counted[0])
        assert kinds >= {"joint", "marginal", ("error", "SchemaViolation"),
                         ("error", "EmptyDataset")}

    @settings(max_examples=60, deadline=None)
    @given(messy_csvs(), st.sampled_from([0.0, 1e-3, 2.5]))
    def test_messy_csvs(self, case, alpha):
        text, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, newline="")
            counted, expanded = counted_and_expanded(path, schema, alpha)
            assert counted == expanded

    def test_repeated_records_are_weighted_by_their_rows(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "color,size,label\nred,s,0\ngreen,m,1\nred,s,0\nred,s,0\n")
        dist = tokens_distribution(read_csv_tokens(path), BASIC_SCHEMA)
        cell = dist.space.index_of
        assert dist.mass[cell((0, 0)), 0] == 0.75 and dist.mass[cell((1, 1)), 1] == 0.25


class TestGenerateSynthetic:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        a = generate_synthetic("sjs", {"num_features": 3}, seed=9,
                               out_dir=tmp_path / "a", num_samples=300)
        b = generate_synthetic("sjs", {"num_features": 3}, seed=9,
                               out_dir=tmp_path / "b", num_samples=300)
        for name in a:
            assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()

    def test_a_negative_seed_raises_before_any_file_is_written(self, tmp_path):
        with pytest.raises(InvalidDistribution, match="^seed -1 is negative$"):
            generate_synthetic("paper_example", None, seed=-1, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

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

    def test_presets_with_params_keep_their_kind(self):
        # Checking the params' types once replaced the kind, so these planted SJS on X1.
        p, q, shift = make_preset("prior_shift", {"num_labels": 3}, seed=3)
        assert p.num_labels == 3 and shift == ()
        assert check_prior_shift(p, q).holds
        p, q, shift = make_preset("covariate_shift", {"num_features": 2}, seed=5)
        assert shift == ("X1", "X2")
        assert check_covariate_shift(p, q, FeaturePartition.full(p.space)).holds
        assert not check_prior_shift(p, q).holds

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

    def test_not_converged_exit_code(self, tmp_path, source, target_literal):
        source.save(tmp_path / "p.json")
        target_literal.save(tmp_path / "q.json")
        config = ExperimentConfig(str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                                  ("X1",), method="sees-c", output_dir=str(tmp_path / "run"),
                                  optimizer_tol=0.0, max_iter=2)
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
        # A missing input is found when the run opens it, and leaves no run directory.
        missing, run = str(tmp_path / "missing.json"), tmp_path / "run"
        with pytest.raises(FileNotFoundError):
            run_experiment(ExperimentConfig(missing, missing, (), output_dir=str(run)))
        assert not run.exists()
        (tmp_path / "x.json").write_text("{}")
        with pytest.raises(Exception):
            ExperimentConfig(str(tmp_path / "x.json"), str(tmp_path / "x.json"),
                             (), method="nonsense")
