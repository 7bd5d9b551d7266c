"""Tests of the benchmark itself: its inputs, its checks and one pass of each workload.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
They are kept out of the main suite because a pass of table_study takes
several seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import inputs
import reference
import worker
import workloads
from tracing import Tracer
from worker import run_passes
from workloads import CheckFailed

BENCH = Path(__file__).resolve().parents[1]


# -- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["inputs", "reference"])
def test_inputs_and_reference_do_not_use_the_program(module):
    code = ("import sys; sys.path.insert(0, %r); import %s; "
            "assert not [m for m in sys.modules if m.startswith('sjslab')]" % (str(BENCH), module))
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("seed", [0, 7])
def test_csv_instance_is_an_exact_identifiable_shift(seed):
    inst = inputs.csv_instance(seed)
    names = inputs.feature_names(len(inputs.CSV_CARDS))
    shifted = [names.index(n) for n in inst.shift_features]
    cell_of, nf = inputs.partition(inputs.CSV_CARDS, shifted)
    p = inst.source_counts / inst.source_counts.sum()
    q = inst.target_counts / inst.target_counts.sum()
    assert inputs.is_sjs(p, q, cell_of, nf, tol=1e-12)
    assert inputs.identifiable(p, cell_of, nf)
    np.testing.assert_allclose(inst.priors, q.sum(axis=0), atol=1e-15)
    np.testing.assert_allclose(inst.posterior, inputs.posterior(q), atol=1e-15)
    # Work is the same for every seed: the count multisets are fixed.
    assert inst.source_counts.sum() == 2 * 4096 * 3
    assert sorted(np.unique(inst.target_counts // inst.source_counts)) == [1, 2, 3, 4]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = inputs.csv_instance(3), inputs.csv_instance(3), inputs.csv_instance(4)
    assert np.array_equal(a.target_counts, b.target_counts)
    assert not np.array_equal(a.target_counts, c.target_counts)
    ta, tb = inputs.table_instances(3), inputs.table_instances(4)
    assert not np.array_equal(ta[0].source, tb[0].source)
    # The 4096-cell instances, one of whose SEES-c fits is known to fail, are fixed.
    for a, b in zip(ta[-2:], tb[-2:]):
        assert np.array_equal(a.source, b.source) and a.plant_seed == b.plant_seed


@pytest.mark.parametrize("seed", [0, 5])
def test_table_instances_are_identifiable(seed):
    rng = np.random.default_rng(seed)
    for inst in inputs.table_instances(seed):
        cell_of, nf = inputs.partition(inst.cards, inst.shifted)
        assert inputs.identifiable(inst.source, cell_of, nf), inst.name
        assert 0 < len(inst.shifted) < len(inst.cards)
        # Planting on the partition gives a shift the benchmark's own check accepts.
        q = inputs.plant(inst.source, cell_of, nf, inst.priors, rng)
        assert inputs.is_sjs(inst.source, q, cell_of, nf)
        np.testing.assert_allclose(q.sum(axis=0), inst.priors, atol=1e-12)


def test_wide_instance_shift_transmits_to_the_fine_partition():
    w = inputs.wide_instance(2)
    for subset in (inputs.WIDE_COARSE, inputs.WIDE_FINE):
        cell_of, nf = inputs.partition(inputs.WIDE_CARDS, subset)
        assert inputs.is_sjs(w.source, w.target, cell_of, nf)
        assert inputs.identifiable(w.source, cell_of, nf)
    cell_of, nf = inputs.partition(inputs.WIDE_CARDS, [2])
    assert not inputs.is_sjs(w.source, w.target, cell_of, nf)


def test_identifiable_rejects_a_rank_deficient_partition():
    rng = np.random.default_rng(0)
    p = inputs.random_source(rng, [2, 4], 3)
    cell_of, nf = inputs.partition([2, 4], [1])  # two feature cells per f-cell, three labels
    assert not inputs.identifiable(p, cell_of, nf)


def test_table_json_round_trip(tmp_path):
    p = inputs.random_source(np.random.default_rng(1), [2, 3], 2)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(inputs.table_doc([2, 3], p)))
    np.testing.assert_allclose(inputs.read_table(path), p, atol=1e-15)


# -- checks reject wrong answers ------------------------------------------------------


def _bump_priors(path, delta=1e-6):
    doc = json.loads(path.read_text())
    doc["target_priors"][0] += delta
    path.write_text(json.dumps(doc))


def _swap_posterior_labels(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    a, b = header.index("posterior_0"), header.index("posterior_1")
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[a], fields[b] = fields[b], fields[a]
        out.append(",".join(fields))
    path.write_text("\n".join(out) + "\n")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture
def csv_run(tmp_path):
    inputs.write_csv_inputs(inputs.csv_instance(0), 0, tmp_path)
    (op,) = workloads.operations("csv_report", 0, tmp_path, None)
    result = op.run()
    assert op.failure(result) is None
    op.check(result)
    return op, result, tmp_path / "report"


def test_csv_report_check_rejects_a_prior_off_by_1e6(csv_run):
    op, result, report = csv_run
    _bump_priors(report / "fit.json")
    with pytest.raises(CheckFailed, match="priors"):
        op.check(result)


def test_csv_report_check_rejects_swapped_posterior_labels(csv_run):
    op, result, report = csv_run
    _swap_posterior_labels(report / "corrected_posterior.csv")
    with pytest.raises(CheckFailed, match="posterior"):
        op.check(result)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Every operation on the first desk-scale instance and the 256-f-cell one."""
    run_dir = tmp_path_factory.mktemp("table")
    instances = inputs.table_instances(0)
    chosen = [instances[0], instances[-2]]
    inputs.write_table_inputs(chosen, run_dir)
    ops = []
    for inst in chosen:
        ops += workloads._instance_ops(workloads._Planted(inst, run_dir / inst.name))
    ops = {op.name: op for op in ops}
    results = {}
    for name, op in ops.items():
        results[name] = op.run()
        assert op.failure(results[name]) is None, name
        op.check(results[name])
    return ops, results, run_dir


def _rejects(desk_run, op_name, path, corrupt, match):
    ops, results, run_dir = desk_run
    path = run_dir / path
    saved = path.read_bytes()
    try:
        corrupt(path)
        with pytest.raises(CheckFailed, match=match):
            ops[op_name].check(results[op_name])
    finally:
        path.write_bytes(saved)


def test_table_study_sees_d_check_rejects_a_prior_off_by_1e6(desk_run):
    _rejects(desk_run, "desk0.sees_d", "desk0/fit_d.json", _bump_priors, "SEES-d priors")


def test_table_study_posterior_checks_reject_swapped_labels(desk_run):
    _rejects(desk_run, "desk0.sees_d", "desk0/posterior_d.csv", _swap_posterior_labels,
             "posterior")
    _rejects(desk_run, "desk0.correct", "desk0/posterior_corrected.csv",
             _swap_posterior_labels, "posterior")


def test_table_study_check_rejects_a_flipped_verdict(desk_run):
    _rejects(desk_run, "desk0.check", "desk0/check.json",
             lambda p: _edit_json(p, lambda d: d.update(holds=False)), "fails")
    _rejects(desk_run, "desk0.identifiability", "desk0/identifiability.json",
             lambda p: _edit_json(p, lambda d: d.update(identifiable=False)),
             "not identifiable")


def test_table_study_search_check_rejects_a_superset_residual(desk_run):
    def corrupt(path):
        def edit(doc):
            for r in doc["ranking"]:
                if len(r["features"]) == 2:  # the full set of desk0's two features
                    r["objective"] = 1e-9
        _edit_json(path, edit)
    _rejects(desk_run, "desk0.search", "desk0/search.json", corrupt, "residual")


def test_table_study_sees_c_check_uses_its_own_bound(desk_run):
    ops, results, run_dir = desk_run
    name = [n for n in ops if n.endswith(".sees_c")][0]
    path = f"{name.split('.')[0]}/fit_c.json"
    _rejects(desk_run, name, path, lambda p: _bump_priors(p, 2e-3), "SEES-c priors")
    fit = run_dir / path
    saved = fit.read_bytes()
    _bump_priors(fit, 1e-6)  # inside the 1e-3 bound of the likelihood fit
    ops[name].check(results[name])
    fit.write_bytes(saved)


def test_table_study_plant_check_rejects_a_target_not_shifted_on_the_partition(desk_run):
    def corrupt(path):
        def edit(doc):
            doc["mass"][0][-1] *= 1.5
            doc["mass"][1][-1] *= 0.5
        _edit_json(path, edit)
    _rejects(desk_run, "desk0.plant", "desk0/planted/target.json", corrupt, "planted")


@pytest.fixture(scope="module")
def wide():
    w = workloads.WideInputs(0)
    results = workloads.wide_pass(w)
    workloads.check_wide(results, w.truth)
    return w, results


@pytest.mark.parametrize("corrupt, match", [
    (lambda r: replace(r, priors=r.priors + np.array([1e-6, 0, 0])), "priors"),
    (lambda r: replace(r, posterior=r.posterior[:, [1, 0, 2]]), "posterior"),
    (lambda r: replace(r, sjs_holds=not r.sjs_holds), "check_sjs"),
    (lambda r: replace(r, identifiable=False), "identifiable"),
    (lambda r: replace(r, identity_deviation=1e-9), "total-expectation"),
])
def test_wide_fit_check_rejects_wrong_answers(wide, corrupt, match):
    w, results = wide
    for label in results:
        bad = dict(results, **{label: corrupt(results[label])})
        with pytest.raises(CheckFailed, match=match):
            workloads.check_wide(bad, w.truth)


# -- one pass of each workload, with its checks on ---------------------------------------


@pytest.mark.parametrize("workload, expected_failures", [
    ("csv_report", []), ("wide_fit", []), ("table_study", ["large1024.sees_c"]),
])
def test_one_pass_runs_and_checks(tmp_path, workload, expected_failures):
    sys.path.insert(0, str(BENCH))
    from run import write_inputs
    write_inputs(workload, 1, tmp_path)
    ops = workloads.operations(workload, 1, tmp_path, workloads.build(workload, 1))
    run = run_passes(ops, seconds=0.0)
    assert run["attempted"] == len(ops)
    assert run["errors"] == []
    assert [f.split(":")[0] for f in run["failures"]] == expected_failures


@pytest.mark.parametrize("every_s, op_blocks", [(0.0, [0, 1, 2]), (60.0, [0, 0, 0])])
def test_reference_blocks_bracket_every_op(monkeypatch, tmp_path, every_s, op_blocks):
    monkeypatch.setattr(worker, "REFERENCE_EVERY_S", every_s)
    ops = [workloads.Op(f"op{i}", lambda: None, lambda r: None) for i in range(3)]
    run = run_passes(ops, seconds=0.0, kernels=("tables", "commands"), work_dir=tmp_path)
    assert run["op_blocks"] == op_blocks
    assert len(run["reference_blocks"]) == op_blocks[-1] + 2
    assert all(t > 0 for t in run["reference_blocks"])
    assert list(tmp_path.iterdir()) == []  # the kernels leave no file behind
    assert run_passes(ops, seconds=0.0)["reference_blocks"] == []


def test_an_ops_reference_is_the_median_of_the_blocks_around_it():
    blocks = [1.0, 2.0, 9.0, 3.0, 4.0]
    assert reference.around(blocks, 0) == 2.0    # blocks 0, 1, 2
    assert reference.around(blocks, 2) == 3.5    # blocks 1, 2, 3, 4
    assert reference.around(blocks, 3) == 4.0    # blocks 2, 3, 4


def test_traced_pass_records_layers_and_restores_the_program(tmp_path):
    import sjslab.estimators
    original = sjslab.estimators.sees_d_fit
    inputs.write_csv_inputs(inputs.csv_instance(0), 0, tmp_path)
    ops = workloads.operations("csv_report", 0, tmp_path, None)
    tracer = Tracer()
    run = run_passes(ops, seconds=0.0, tracer=tracer)
    assert sjslab.estimators.sees_d_fit is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "experiment.infer_schema", "datasets.load_dataset",
            "estimators.sees_d_fit", "experiment.write_posterior_csv"} <= names
    assert tracer.counts["experiment.csv_passes"] == 3
    assert run["errors"] == [] and len(run["pass_times"][True]) == 1
    # Self times partition the traced time: they add up to the root spans.
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_time())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "wide_fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
