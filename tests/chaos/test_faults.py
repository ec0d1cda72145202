"""Fault rule validation, rule discipline, injector determinism."""

import pytest

from repro.chaos.faults import (FaultInjector, FaultPlan, FaultPlanError,
                                FaultRule, NULL_INJECTOR, default_plan)
from repro.errors import TransientIOError
from repro.kernel import Simulator


# ------------------------------------------------------------------ plan rules

@pytest.mark.parametrize("bad", [
    dict(point="fs.read:fs1", kind="meteor"),
    dict(point="", kind="drop"),
    dict(point="fs.read:fs1", kind="io_error", prob=1.5),
    dict(point="fs.read:fs1", kind="io_error", skip=-1),
    dict(point="fs.read:fs1", kind="delay", delay=-0.1),
    dict(point="fs.read:fs1", kind="io_error", max_fires=-2),
])
def test_rule_validation_rejects(bad):
    with pytest.raises(FaultPlanError):
        FaultRule(**bad)


def test_with_ids_is_stable_under_rule_removal():
    plan = FaultPlan(rules=[
        FaultRule("a:*", "drop"),
        FaultRule("b:*", "crash"),
        FaultRule("a:*", "drop"),   # same shape: gets a #2 ordinal
    ]).with_ids()
    ids = [r.rule_id for r in plan.rules]
    assert ids == ["drop@a:*", "crash@b:*", "drop@a:*#2"]
    # Dropping the middle rule must not rename the survivors — that is
    # what keeps their RNG streams aligned.
    smaller = FaultPlan(rules=[plan.rules[0], plan.rules[2]]).with_ids()
    assert [r.rule_id for r in smaller.rules] == ["drop@a:*", "drop@a:*#2"]


def test_with_ids_rejects_duplicates():
    with pytest.raises(FaultPlanError):
        FaultPlan(rules=[
            FaultRule("a:*", "drop", rule_id="same"),
            FaultRule("b:*", "drop", rule_id="same"),
        ]).with_ids()


# ------------------------------------------------------------------ discipline

def fire_sequence(seed, plan, points, kinds=("drop", "delay", "io_error")):
    sim = Simulator(seed=seed)
    injector = FaultInjector(plan)
    injector.bind(sim)
    for point in points:
        injector.fire(point, kinds)
    return injector.fired


def test_skip_then_bounded_fires():
    plan = FaultPlan(rules=[FaultRule("p", "drop", skip=2, max_fires=1)])
    fired = fire_sequence(0, plan, ["p"] * 6)
    assert len(fired) == 1  # arrivals 1-2 skipped, 3 fires, rest capped


def test_first_matching_rule_wins_and_globs_match():
    plan = FaultPlan(rules=[
        FaultRule("fs.read:fs1", "io_error", max_fires=None),
        FaultRule("fs.read:*", "io_error", max_fires=None),
    ])
    fired = fire_sequence(0, plan, ["fs.read:fs1", "fs.read:fs2"],
                          kinds=("io_error",))
    assert [f["rule"] for f in fired] == ["io_error@fs.read:fs1",
                                         "io_error@fs.read:*"]


def test_kind_filter_keeps_wrong_kinds_silent():
    plan = FaultPlan(rules=[FaultRule("p", "crash")])
    assert fire_sequence(0, plan, ["p"] * 3) == []


def test_injector_is_deterministic_across_runs():
    plan = FaultPlan(rules=[
        FaultRule("fs.read:*", "io_error", prob=0.3, max_fires=None),
        FaultRule("channel.send:x", "drop", prob=0.5, max_fires=None),
    ])
    points = (["fs.read:fs1", "channel.send:x", "fs.read:fs2"] * 40)
    first = fire_sequence(11, plan, points)
    second = fire_sequence(11, plan, points)
    assert first == second
    assert first  # probabilistic rules actually fired
    # a different seed draws a different schedule
    assert fire_sequence(12, plan, points) != first


def test_per_rule_streams_survive_unrelated_removal():
    """Removing one probabilistic rule leaves the other's draws intact."""
    keep = FaultRule("fs.read:*", "io_error", prob=0.3, max_fires=None)
    drop = FaultRule("channel.send:x", "drop", prob=0.5, max_fires=None)
    points = ["fs.read:fs1", "channel.send:x"] * 60
    both = fire_sequence(7, FaultPlan(rules=[keep, drop]), points)
    alone = fire_sequence(7, FaultPlan(rules=[keep]), points)
    assert ([f for f in both if f["rule"] == "io_error@fs.read:*"]
            == alone)


def test_null_injector_is_inert():
    assert NULL_INJECTOR.enabled is False


def test_partition_is_a_valid_reply_kind():
    from repro.chaos.faults import KINDS, REPLY_KINDS
    assert "partition" in KINDS
    assert REPLY_KINDS == ("partition",)
    FaultRule("rpc.reply:dlfm-x", "partition")  # validates


def test_default_plan_includes_a_partition_rule():
    rules = [r for r in default_plan(seed=0).rules
             if r.kind == "partition"]
    assert rules, "default chaos plan must exercise partition/heal"
    assert all(r.point.startswith("rpc.reply:") for r in rules)


def test_fs_check_raises_transient_io_error():
    sim = Simulator(seed=0)
    injector = FaultInjector(FaultPlan(rules=[
        FaultRule("fs.read:fs1", "io_error")]))
    injector.bind(sim)
    with pytest.raises(TransientIOError):
        injector.fs_check("fs.read:fs1", "/data/x")
    injector.fs_check("fs.read:fs1", "/data/x")  # max_fires=1 exhausted
