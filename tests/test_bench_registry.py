"""The bench is a registry of arms over ``paper()`` / ``all_on()``.

Every arm must name one of the two shipped configurations, declare its
gates (or say it has none), its history keys and a summary line, and
``check()`` must visit all of them. One tiny run of the whole bench
(module-scoped) backs the per-arm assertions.
"""

import copy
import json
from dataclasses import asdict

import pytest

from benchmarks import bench_e6_sync_commit, bench_e8_batched_commit
from benchmarks.e2e import configs as e2e_configs
from repro import bench
from repro.bench import arms, harness
from repro.bench.harness import ARMS, OPS, BenchConfig, check, gate_results
from repro.configs import Configuration

TINY = {"LOAD_FILES": 40, "LOAD_PIECE": 20, "MS_CLIENTS": 2, "MS_TXNS": 2,
        "DRAIN_FILES": 8, "STORM_RESTORES": 8, "RECOVERY_TXNS": 12,
        "RECOVERY_CHECKPOINT_AT": 10, "FLEET_TXNS_QUICK": 3}


@pytest.fixture(scope="module")
def tiny():
    """The whole bench at sizes that take about a second."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in TINY.items():
            patch.setattr(arms, name, value)
        return harness.run_bench(BenchConfig(seed=3, quick=True))


def test_every_arm_declares_configuration_gates_history_and_summary():
    """Adding an arm without a gate entry, a history entry or a summary
    line is a TypeError at import (the fields have no default); this
    holds what a present entry must look like."""
    assert all(name == arm.name for name, arm in ARMS.items())
    for arm in ARMS.values():
        assert arm.base in ("paper", "all_on"), arm.name
        assert callable(arm.run)
        assert isinstance(arm.gates, tuple)       # () is the explicit "none"
        for gate in arm.gates:
            assert len(gate) in (3, 4) and gate[1] in OPS, (arm.name, gate)
        assert isinstance(arm.history, dict)
        assert isinstance(arm.summary, str) and arm.summary.strip()
        # A relative gate's key is one the registry itself writes.
        written = {key for other in ARMS.values() for key in other.history}
        assert all(gate[3] in written for gate in arm.gates
                   if len(gate) == 4)
    with pytest.raises(TypeError):
        harness.Arm("no-gate", "paper", arms.run_load,
                    history={}, summary="x")
    with pytest.raises(TypeError):
        harness.Arm("no-summary", "paper", arms.run_load,
                    gates=(), history={})


def test_bench_config_and_cli_carry_no_size_knob():
    assert sorted(asdict(BenchConfig())) == ["quick", "seed"]
    from repro.__main__ import main
    with pytest.raises(SystemExit):
        main(["bench", "--links", "5"])


def test_the_two_configurations_are_the_ones_e2e_ships():
    """``benchmarks/e2e/configs.py`` is frozen and imports nothing from
    ``repro.configs``; the two must not drift apart."""
    for name in ("paper", "all_on"):
        dlfm, host = Configuration(name).build()
        e2e_dlfm, e2e_host, _ = getattr(e2e_configs, name)()
        assert asdict(dlfm) == asdict(e2e_dlfm), name
        assert asdict(host) == asdict(e2e_host), name
        assert dlfm.local_db.timing is host.db.timing     # one clock


def test_an_override_must_name_an_existing_field():
    dlfm, host = Configuration("paper", {
        "dlfm.copy_workers": 4, "host.db.lock_timeout": 7.0,
        "timing.enabled": False}).build()
    assert dlfm.copy_workers == 4 and host.db.lock_timeout == 7.0
    assert not dlfm.local_db.timing.enabled and not host.db.timing.enabled
    with pytest.raises(AttributeError):
        Configuration("paper", {"dlfm.copy_wokers": 4}).build()


def test_config_block_is_asdict_of_what_the_arm_ran(tiny):
    assert set(tiny["arms"]) == set(ARMS)
    for arm in ARMS.values():
        block = tiny["arms"][arm.name]["config"]
        assert block["name"] == arm.base
        assert block["overrides"] == arm.overrides
        assert block["contrast"] == arm.contrast
        # What a system built from the declaration really holds: no
        # arm runs auto-RUNSTATS on a DLFM's local database.
        config = Configuration(arm.base, arm.overrides)
        system = config.system(seed=3)
        live = next(iter(system.dlfms.values())).config
        assert block["dlfm"] == asdict(live)
        assert block["host"] == asdict(system.host.config)
        assert block["dlfm"]["local_db"]["auto_runstats"] is False
        for path, value in arm.overrides.items():
            found = {"dlfm": block["dlfm"], "host": block["host"],
                     "timing": block["host"]["db"]["timing"]}
            for step in path.split("."):
                found = found[step]
            assert found == value, (arm.name, path)


def test_document_is_a_loop_over_the_registry(tiny):
    assert list(tiny["summary"]) == list(ARMS)
    for arm in ARMS.values():
        assert tiny["summary"][arm.name].startswith(f"{arm.name}: ")
        assert "{" not in tiny["summary"][arm.name]
    row = tiny["history"][-1]
    assert row["label"] == harness.HISTORY_LABEL
    keys = {key for arm in ARMS.values() for key in arm.history}
    assert set(row) == keys | {"label", "headline", "src_loc_total"}
    assert set(tiny["references"]) == keys
    assert row["headline"] == "; ".join(tiny["summary"].values())
    json.dumps(tiny)                                  # serialisable as is


def test_check_visits_every_arm(tiny):
    visited = {name for name, _, _ in gate_results(tiny)}
    assert visited == {name for name, arm in ARMS.items() if arm.gates}
    assert visited == set(ARMS)                       # none is gate-less
    # Breaking the value behind any one gate makes check() name it.
    for arm in ARMS.values():
        for path, op, bar, *key in arm.gates:
            doc = copy.deepcopy(tiny)
            if key:
                doc["references"][key[0]] = 1.0
            *walk, leaf = path.split(".")
            target = doc["arms"][arm.name]
            for step in walk:
                target = target[step]
            target[leaf] = {">=": -1e9, ">": -1e9, "<=": 1e9,
                            "==": "broken"}[op]
            failures = check(doc)
            assert any(f"{path} {op}" in f and f"{arm.name}: " in f
                       for f in failures), (arm.name, path)


def test_fleet_arm_is_byte_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(arms, "FLEET_TXNS_QUICK", 3)

    def run(seed):
        return json.dumps(harness.run_arm(ARMS["fleet"],
                                          BenchConfig(seed, quick=True)),
                          sort_keys=True)

    first = run(3)
    assert first == run(3)
    assert first != run(4)
    result = json.loads(first)
    assert result["config"]["name"] == "all_on"
    for shards in ("1", "8"):
        assert result[shards]["committed"] == 3 * arms.FLEET_CLIENTS
        assert result[shards]["failed"] == 0


def test_fleet_gates_bite(tiny):
    def failures(failed=0, previous=None, previous_one=None, scaling=3.0):
        doc = copy.deepcopy(tiny)
        doc["arms"]["fleet"]["shard_scaling"] = scaling
        doc["arms"]["fleet"]["1"]["failed"] = failed
        doc["references"]["fleet_ops_per_sec"] = previous
        doc["references"]["fleet_one_shard_ops_per_sec"] = previous_one
        return [f for f in check(doc) if "fleet: " in f]

    # No bar on the ratio itself: with the shards' own convoy gone one
    # shard does what eight do (1.05x), and a gate on it would assert
    # the convoy back.
    assert failures() == failures(scaling=1.05) == []
    assert not any("shard_scaling" in gate[0]
                   for gate in ARMS["fleet"].gates)
    [failure] = failures(failed=1)
    assert "1.failed == 0" in failure
    ops = tiny["arms"]["fleet"]["8"]["ops_per_sec"]
    assert failures(previous=ops * 1.1) == []
    [failure] = failures(previous=ops * 1.25)
    assert "previous history row's fleet_ops_per_sec" in failure
    # ... what is held instead is the baseline the ratio divides by: a
    # slower one-shard arm is how 81.8x happened.
    one = tiny["arms"]["fleet"]["1"]["ops_per_sec"]
    assert failures(previous_one=one * 1.1) == []
    [failure] = failures(previous_one=one * 1.25)
    assert "previous history row's fleet_one_shard_ops_per_sec" in failure
    assert ARMS["fleet"].history["fleet_one_shard_ops_per_sec"] \
        == "1.ops_per_sec"


def test_sentinels_and_paper_benches_run_one_scenario_body(monkeypatch):
    assert bench_e6_sync_commit.e6_scenario is arms.e6_scenario
    assert bench_e8_batched_commit.e8_scenario is arms.e8_scenario
    assert bench.e6_scenario is arms.e6_scenario
    seen = []

    def spy(config, **sizes):
        seen.append((config.base, config.overrides, sizes))
        return {"completed": 3, "commit_retries": 0, "log_fulls": 0}

    monkeypatch.setattr(arms, "e6_scenario", spy)
    monkeypatch.setattr(arms, "e8_scenario", spy)
    monkeypatch.setattr(bench_e6_sync_commit, "e6_scenario", spy)
    e6, e8 = ARMS["e6_sentinel"], ARMS["e8_sentinel"]
    for arm in (e6, e8):
        arm.run(BenchConfig(), Configuration(arm.base, arm.overrides),
                Configuration(arm.base, {**arm.overrides, **arm.contrast}))
    bench_e6_sync_commit._scenario(sync_commit=False)
    sentinel_sync, sentinel_async = seen[0], seen[1]
    assert sentinel_sync[:2] == ("paper", e6.overrides)
    assert sentinel_async[:2] == ("paper", {**e6.overrides, **e6.contrast})
    # The paper experiment runs the sentinel's configuration, longer.
    assert seen[-1][:2] == sentinel_async[:2]
    assert seen[-1][2] == {"horizon": bench_e6_sync_commit.HORIZON}
    assert [base for base, _, _ in seen[2:4]] == ["all_on", "all_on"]


def test_sentinels_report_preserved(tiny):
    for name in ("e6_sentinel", "e8_sentinel"):
        assert tiny["arms"][name]["preserved"] is True
