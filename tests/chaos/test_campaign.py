"""Campaign determinism, and the checker against seeded corruptions."""

import pytest

from repro.chaos import campaign as campaign_module
from repro.chaos.campaign import CampaignConfig, _Campaign, run_campaign
from repro.chaos.faults import FaultPlan
from repro.chaos.invariants import check_invariants
from repro.configs import BASES
from repro.dlfm import schema
from repro.minidb.locks import LockMode
from repro.minidb.txn import Transaction
from tests.conftest import assert_holds_declared_configuration

both_bases = pytest.mark.parametrize("base", sorted(BASES))

#: A quiet plan: no faults, so small campaigns stay fast and clean.
EMPTY_PLAN = FaultPlan(name="none", rules=[])


@pytest.fixture
def quiet(monkeypatch):
    """Campaigns of this test run :data:`EMPTY_PLAN` instead of the
    seed's default plan."""
    monkeypatch.setattr(campaign_module, "default_plan",
                        lambda seed: EMPTY_PLAN)


def small_config(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("ops", 12)
    return CampaignConfig(**kw)


# ------------------------------------------------------------------ clean runs

@pytest.mark.usefixtures("quiet")
def test_fault_free_campaign_is_clean():
    result = run_campaign(small_config())
    assert result.ok, [v.detail for v in result.violations]
    assert len(result.op_trace) == 12
    assert result.fired == []


@both_bases
def test_campaign_is_deterministic(base):
    config = CampaignConfig(seed=5, ops=30, base=base)
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
    campaign = _Campaign(small_config(base=base, shards=shards))
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


def test_xa_branch_left_in_doubt_across_a_host_crash_gets_its_verdict():
    """A cell where the ``xa`` op leaves its branch in doubt and the
    host then crashes under it: restart resurrects the branch from its
    PREPARE record, quiesce (the TM) finds it by gtrid and delivers the
    journaled commit, and the deployment checks clean. (Seed 65 is the
    first seed that reaches one: the host's leader point fires only for
    a real group, and a lone chaos client rarely queues behind another
    host committer.)"""
    result = run_campaign(CampaignConfig(seed=65, ops=200, base="all_on"))
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
#
# Deliberate metadata damage the invariant checker must catch. Each
# function corrupts the first applicable site and returns True, or False
# when the campaign left nothing to corrupt.

def _corrupt_dangling_link_row(system) -> bool:
    """Delete an ST_LINKED dfm_file row out from under a host reference."""
    for name in sorted(system.dlfms):
        db = system.dlfms[name].db
        pos = db.catalog.tables["dfm_file"].position("state")
        for rid, row in sorted(db.heaps["dfm_file"].scan()):
            if row[pos] == schema.ST_LINKED:
                db.heaps["dfm_file"].delete(rid)
                return True
    return False


def _corrupt_leaked_lock(system) -> bool:
    """Grant a lock to a transaction the engine has no record of."""
    name = sorted(system.dlfms)[0]
    db = system.dlfms[name].db
    ghost = Transaction(999_999, "RR", 0.0)
    db.locks.force_grant(ghost, ("row", "dfm_file", (0, 0)), LockMode.X)
    return True


def _corrupt_deleted_group_marker(system) -> bool:
    """Flip an active group to 'deleted' as if delgrpd never finished."""
    for name in sorted(system.dlfms):
        db = system.dlfms[name].db
        pos = db.catalog.tables["dfm_group"].position("state")
        for rid, row in sorted(db.heaps["dfm_group"].scan()):
            if row[pos] == schema.GRP_ACTIVE:
                changed = list(row)
                changed[pos] = schema.GRP_DELETED
                db.heaps["dfm_group"].delete(rid)
                db.heaps["dfm_group"].insert(tuple(changed), rid=rid)
                return True
    return False


#: Each seeded corruption and the violation code it must raise.
CORRUPTIONS = {_corrupt_dangling_link_row: "dangling-host-ref",
               _corrupt_leaked_lock: "leaked-locks",
               _corrupt_deleted_group_marker: "unresolved-deleted-group"}


def corrupted(corrupt, **kw) -> set:
    """Run a quiet campaign, corrupt what it left, and return the codes
    the checker then reports."""
    campaign = _Campaign(small_config(**kw))
    result = campaign.run()
    assert result.ok, [v.detail for v in result.violations]
    assert corrupt(campaign.system), "nothing to corrupt"
    return {v.code for v in check_invariants(campaign.system)}


@pytest.mark.usefixtures("quiet")
def test_checker_catches_dangling_link_row():
    assert "dangling-host-ref" in corrupted(_corrupt_dangling_link_row)


@pytest.mark.usefixtures("quiet")
def test_checker_catches_leaked_lock():
    assert "leaked-locks" in corrupted(_corrupt_leaked_lock)


@pytest.mark.usefixtures("quiet")
def test_checker_catches_deleted_group_marker():
    assert "unresolved-deleted-group" in corrupted(
        _corrupt_deleted_group_marker)


@pytest.mark.usefixtures("quiet")
def test_every_registered_corruption_applies():
    """On a 2-shard fleet too, each corruption finds a target and the
    checker flags it."""
    for corrupt, code in CORRUPTIONS.items():
        assert code in corrupted(corrupt, shards=2), corrupt.__name__
