"""Checks of the benchmark itself (``pytest benchmarks/e2e -q``; outside
tier-1's ``testpaths``). Everything runs at ``--smoke`` scale."""

import gc
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import cli, compare, configs, metrics, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Scale  # noqa: E402

SMOKE = cli.SMOKE


def smoke(name, seed=42, traced=False):
    return cli.measure(name, seed, SMOKE["seconds"], SMOKE["preload"],
                       traced, setups=1)


@pytest.fixture(scope="module")
def traced_runs():
    return {name: smoke(name, traced=True) for name in WORKLOADS}


def test_every_named_metric_is_reported(traced_runs):
    for name, run in traced_runs.items():
        assert run["correct"], (name, run["checks_failed"])
        assert list(run["end_to_end"]) == [m.name for m in metrics.END_TO_END]
        assert list(run["per_layer"]) == [m.name for m in metrics.PER_LAYER]
        for metric in metrics.END_TO_END:
            assert run["end_to_end"][metric.name] > 0, (name, metric.name)
        for metric in metrics.PER_LAYER:
            assert metric.clock in ("sim", "host", "count")
            assert run["per_layer"][metric.name] is not None, metric.name


def test_host_shares_sum_to_one(traced_runs):
    for name, run in traced_runs.items():
        shares = [run["per_layer"][m.name] for m in metrics.PER_LAYER
                  if m.kind == "H"]
        assert abs(sum(shares) - 1.0) <= 0.02, (name, sum(shares))


def test_every_traced_layer_has_a_host_share():
    layers = {m.name[:-len(".host_share")] for m in metrics.PER_LAYER
              if m.kind == "H"}
    assert layers == set(trace.HOOKS) | {trace.BENCH_LAYER}


def exact_part(run):
    """What must repeat byte for byte between two runs of one seed."""
    counts = {m.name: run["per_layer"][m.name] for m in metrics.PER_LAYER
              if m.kind == "C"}
    return json.dumps([run["untraced"]["sim"], run["failed_share"], counts],
                      sort_keys=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_numbers_repeat_per_seed_and_move_with_it(name):
    first, again, other = smoke(name), smoke(name), smoke(name, seed=43)
    assert exact_part(first) == exact_part(again)
    assert exact_part(first) != exact_part(other)
    assert other["correct"], other["checks_failed"]


def test_durability_check_catches_an_extra_acknowledged_row():
    workload = WORKLOADS["e1_paper"](42, Scale(**SMOKE))
    try:
        workload.setup()
        workload.oracle.ack(("media", 10 ** 9), "dlfs://fs1/never/linked")
        workload.window()
    finally:
        gc.unfreeze()
    assert any(check.startswith("durability:")
               for check in workload.result()["checks_failed"])


def test_missing_field_hook_and_counter_are_reported_not_raised(traced_runs):
    report = configs.ConfigReport("t")
    configs.override(configs.DBConfig(), "db", report, isolation="CS",
                     flag_deleted_by_the_collapse=True)
    assert report.applied == ["db.isolation='CS'"]
    assert report.skipped == ["db.flag_deleted_by_the_collapse=True"]

    tracer = trace.Tracer()
    tracer._install("minidb.locks", "repro.minidb.locks:LockManager.gone")
    tracer._install("sql.parser", "repro.sql.gone:parse")
    assert tracer.missing == [
        "minidb.locks:repro.minidb.locks:LockManager.gone",
        "sql.parser:repro.sql.gone:parse"]

    run = traced_runs["e1_paper"]
    traced = json.loads(json.dumps(run["traced"]))
    traced["trace"]["missing_hooks"] = tracer.missing
    untraced = json.loads(json.dumps(run["untraced"]))
    untraced["missing_counters"] = ["wal.forces"]
    values = metrics.per_layer(untraced, traced)
    assert values["minidb.locks.host_share"] is None
    assert values["minidb.locks.wait_sim_s_per_op"] is None
    assert values["minidb.wal.forces_per_commit"] is None
    assert values["minidb.btree.host_share"] is not None
    assert values["bench.trace.missing_hooks"] == 2


def test_compare_verdicts(traced_runs, tmp_path, capsys):
    doc = {"meta": {"seed": 42, "seconds": SMOKE["seconds"]},
           "workloads": traced_runs}

    def write(name, edit=None):
        copy = json.loads(json.dumps(doc))
        if edit:
            edit(copy["workloads"]["e1_paper"]["end_to_end"])
        path = tmp_path / name
        path.write_text(json.dumps(copy))
        return str(path)

    same = write("a.json")
    assert compare.compare(same, write("b.json")) == 0
    assert "unchanged" in capsys.readouterr().out

    def slower_host(values):
        values["host_ops_per_cpu_s"] *= 0.8
    assert compare.compare(same, write("c.json", slower_host)) == 1
    out = capsys.readouterr().out
    assert "unresolved" in out and "1 row(s) outside" in out

    def slower_sim(values):
        values["sim_op_trimmed_mean_s"] *= 1.05
    assert compare.compare(same, write("d.json", slower_sim)) == 1
    assert "worse" in capsys.readouterr().out


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
