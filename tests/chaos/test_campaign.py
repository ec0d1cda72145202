"""Campaign determinism, seeded corruptions, replay, and shrinking."""

import pytest

from repro.chaos.campaign import (CORRUPTIONS, CampaignConfig, _Campaign,
                                  replay, run_campaign)
from repro.chaos.faults import FaultPlan, FaultRule
from repro.chaos.shrink import shrink_config, shrink_doc
from repro.configs import BASES
from tests.conftest import assert_holds_declared_configuration

both_bases = pytest.mark.parametrize("base", sorted(BASES))

#: A quiet plan: no faults, so small campaigns stay fast and clean.
EMPTY_PLAN = FaultPlan(name="none", rules=[])


def quiet_config(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("ops", 12)
    kw.setdefault("round_ops", 12)
    kw.setdefault("plan", EMPTY_PLAN)
    return CampaignConfig(**kw)


def codes(result):
    return {v.code for v in result.violations}


# ------------------------------------------------------------------ clean runs

def test_fault_free_campaign_is_clean():
    result = run_campaign(quiet_config())
    assert result.ok, [v.detail for v in result.violations]
    assert len(result.op_trace) == 12
    assert result.fired == []


@both_bases
def test_campaign_is_deterministic(base):
    config = CampaignConfig(seed=5, ops=30, round_ops=15, base=base)
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.to_json() == second.to_json()


@both_bases
@pytest.mark.parametrize("shards", [0, 2])
def test_campaign_runs_the_named_configuration_plus_its_declared_override(
        base, shards):
    """The deployment holds exactly ``BASES[base]()`` — the declared
    override is empty since group commit lost its window (the leader
    point is reached without widening one), and nothing is hand-built
    on the side."""
    campaign = _Campaign(quiet_config(base=base, shards=shards))
    configuration = campaign.configuration
    assert (configuration.base, configuration.overrides) == (base, {})
    assert_holds_declared_configuration(configuration, campaign.system)
    assert len(campaign.system.dlfms) == (shards or 2)


# ------------------------------------------------------------- sharded fleets

@both_bases
def test_sharded_campaign_with_rebalance_is_clean_and_deterministic(base):
    # Default plan: crash/delay/dup faults plus the shard.move crash
    # points, hammering a 3-shard fleet with rebalances mixed in.
    config = CampaignConfig(seed=1, ops=80, shards=3, base=base)
    first = run_campaign(config)
    assert first.ok, [v.detail for v in first.violations]
    assert any(op["kind"] == "move_group" for op in first.op_trace)
    second = run_campaign(config)
    assert first.to_json() == second.to_json()


@both_bases
def test_sharded_repro_doc_replays(base):
    result = run_campaign(quiet_config(ops=16, round_ops=16, shards=2,
                                       base=base))
    assert result.ok, [v.detail for v in result.violations]
    doc = result.repro_doc()
    assert (doc["version"], doc["shards"], doc["config"]) == (5, 2, base)
    assert replay(doc).to_json() == result.to_json()


def test_version_1_repro_doc_is_refused():
    """A version-1 document ran the hand-built configuration that no
    longer exists: replaying it under another would be a silent lie."""
    doc = run_campaign(quiet_config()).repro_doc()
    del doc["config"]
    doc["version"] = 1
    doc["read_isolation"] = "SI"
    with pytest.raises(ValueError, match="version 1"):
        replay(doc)
    with pytest.raises(ValueError, match="version 1"):
        shrink_doc({**doc, "violations": [{"code": "leaked-locks"}]})


@pytest.mark.parametrize("version", [2, 3, 4])
def test_older_repro_doc_is_refused(version):
    """Version 2 predates the ``checkpoint`` op and 3 the ``xa`` op, so
    the same seed drew a different op sequence; version 4 ran the
    version-merge fault rule, which shifted the fault schedule, and a
    DLFM configuration field that is gone. A replay would not be the
    recorded run."""
    doc = run_campaign(quiet_config()).repro_doc()
    doc["version"] = version
    with pytest.raises(ValueError, match=f"version {version}"):
        replay(doc)


def test_xa_branch_left_in_doubt_across_a_host_crash_gets_its_verdict():
    """A cell where the ``xa`` op leaves its branch in doubt and the
    host then crashes under it: restart resurrects the branch from its
    PREPARE record, quiesce (the TM) finds it by gtrid and delivers the
    journaled commit, and the deployment checks clean. (Seed 2 is the
    first seed that reaches one: the host's leader point fires only for
    a real group, and a lone chaos client rarely queues behind another
    host committer.)"""
    result = run_campaign(CampaignConfig(seed=2, ops=200, base="all_on"))
    assert any(op["kind"] == "xa" and "host-hostdb" in op["outcome"]
               and op["outcome"].startswith("indoubt:commit across")
               for op in result.op_trace)
    assert result.ok, [v.detail for v in result.violations]


@pytest.mark.parametrize("base,seed,ops,shards", [("all_on", 0, 80, 0),
                                                  ("paper", 0, 40, 4)])
def test_commit_across_a_fuzzy_checkpoint_survives_the_crashes(
        base, seed, ops, shards):
    """The ``checkpoint`` op commits an update across a checkpoint of
    every database. When restart rebuilt version chains by scanning
    from the checkpoint, a later crash hid that commit from every
    snapshot read in these cells (e2e finding 1b)."""
    result = run_campaign(CampaignConfig(seed=seed, ops=ops, shards=shards,
                                         base=base))
    assert any(op == {"kind": "checkpoint", "target": op["target"],
                      "outcome": "ok"} for op in result.op_trace)
    assert result.crashes
    assert result.ok, [v.detail for v in result.violations]


# ------------------------------------------------------- corruptions are caught

def test_checker_catches_dangling_link_row():
    result = run_campaign(quiet_config(
        corruptions=("dangling-link-row",)))
    assert "dangling-host-ref" in codes(result)


def test_checker_catches_leaked_lock():
    result = run_campaign(quiet_config(corruptions=("leaked-lock",)))
    assert "leaked-locks" in codes(result)


def test_checker_catches_deleted_group_marker():
    result = run_campaign(quiet_config(
        corruptions=("deleted-group-marker",)))
    assert "unresolved-deleted-group" in codes(result)


def test_every_registered_corruption_applies():
    """The registry stays honest: each corruption finds a target and the
    checker flags it (no silent 'corruption-inapplicable')."""
    for name in sorted(CORRUPTIONS):
        result = run_campaign(quiet_config(corruptions=(name,)))
        assert not result.ok, name
        assert "corruption-inapplicable" not in codes(result), name


# ------------------------------------------------------------------ replay

def test_corruption_repro_doc_replays_to_same_violation():
    result = run_campaign(quiet_config(corruptions=("leaked-lock",)))
    assert not result.ok
    doc = result.repro_doc()
    again = replay(doc)
    assert [v.to_doc() for v in again.violations] == doc["violations"]
    assert again.to_json() == result.to_json()


# ------------------------------------------------------------------ shrinking

def test_shrinker_produces_smaller_still_failing_config():
    # Noise rules around a deterministic failure: the shrinker must keep
    # failing while never growing the campaign.
    plan = FaultPlan(name="noisy", rules=[
        FaultRule("channel.send:dlfm-agent", "delay", prob=0.05,
                  max_fires=None, delay=0.25),
        FaultRule("fs.stat:*", "io_error", prob=0.01, max_fires=None),
        FaultRule("rpc.dup:Commit", "dup", prob=0.05, max_fires=None),
    ])
    config = quiet_config(ops=24, round_ops=12, plan=plan,
                          corruptions=("leaked-lock",))
    target = {"leaked-locks"}
    smaller, trials = shrink_config(config, target, max_trials=8)
    assert trials <= 8
    assert smaller.ops <= config.ops
    assert len(smaller.plan.rules) <= len(plan.rules)
    final = run_campaign(smaller)
    assert codes(final) & target


def test_shrink_doc_records_provenance():
    result = run_campaign(quiet_config(
        ops=24, round_ops=12, corruptions=("leaked-lock",)))
    assert not result.ok
    out = shrink_doc(result.repro_doc(), max_trials=6)
    assert out["shrunk_from"] == {"ops": 24, "rules": 0}
    assert out["ops"] <= 24
    assert {v["code"] for v in out["violations"]} & {"leaked-locks"}
    # the shrunken document still replays to the failure
    assert not replay(out).ok


def test_shrink_doc_passes_clean_docs_through():
    result = run_campaign(quiet_config())
    doc = result.repro_doc()
    assert shrink_doc(doc) is doc
