"""WAL group commit: one pipelined force path, nothing to tune.

A committer that finds no force in flight leads one at once; committers
that arrive while it is in flight queue, and the first of them to wake
leads ONE force for the whole queue. The ack-after-force invariant must
survive crashes: a commit is acknowledged only after the force covering
its record completed, and a crash fails every member of the group.

Every test bills a log force ``F`` and nothing else, so ``sim.now``
says exactly which force a committer rode on. The committers UPDATE
distinct pre-existing rows: concurrent INSERTs would serialize on the
shared candidate-rid X lock (held to commit under strict 2PL).
"""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import CrashedError, TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.config import TimingModel
from tests.conftest import bill_only

F = 0.006   # one log force


@pytest.fixture(autouse=True)
def bill_only_the_force(monkeypatch):
    bill_only(monkeypatch, log_force=F)


def make_db(sim):
    # These tests are about the WAL, not locking: next-key locking would
    # chain committer k to committer k+1 via the index-probe neighbor
    # lock (E3) and keep them out of each other's force.
    db = Database(sim, "g", DBConfig(
        next_key_locking=False,
        timing=TimingModel(enabled=True)))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(10):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (k, "init"))
        yield from session.commit()
        # E4 lesson: without statistics the UPDATE probes scan (and lock)
        # the whole table, serializing the committers before they ever
        # reach the log force.
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    sim.run_process(setup())
    return db


def all_rows(db):
    def go():
        session = db.session()
        result = yield from session.execute("SELECT k, v FROM t ORDER BY k")
        yield from session.commit()
        return result.rows
    return db.sim.run_process(go())


def committer(db, k, delay=0.0, acks=None):
    """Update row ``k`` and commit; on the ack, note (time, the commit
    record's LSN, the durable LSN) in ``acks[k]``."""
    if delay:
        yield Timeout(delay)
    session = db.session()
    yield from session.execute(
        "UPDATE t SET v = ? WHERE k = ?", (f"v{k}", k))
    txn = session.txn
    yield from session.commit()
    if acks is not None:
        acks[k] = (db.sim.now, txn.last_lsn, db.wal.flushed_upto)


def run_all(sim, *gens):
    def root():
        procs = [sim.spawn(gen, f"p{i}") for i, gen in enumerate(gens)]
        for proc in procs:
            yield from proc.join()
    sim.run_process(root())


def survivor(db, k, outcomes, delay=0.0):
    """A committer that records "acked" or "crashed"."""
    try:
        yield from committer(db, k, delay)
        outcomes[k] = "acked"
    except CrashedError:
        outcomes[k] = "crashed"


def test_concurrent_committers_share_one_force():
    """Three committers at the same instant: the first finds no force in
    flight and leads alone; the other two queue behind it and share the
    next force."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces, start, acks = metrics.forces, sim.now, {}
    run_all(sim, *(committer(db, k, acks=acks) for k in range(3)))
    assert metrics.forces - forces == 2
    assert metrics.forces_saved == 1 and metrics.group_commits == 1
    assert {k: t - start for k, (t, _, _) in acks.items()} == pytest.approx(
        {0: F, 1: 2 * F, 2: 2 * F})
    assert all_rows(db)[:3] == [(k, f"v{k}") for k in range(3)]


def test_committers_arriving_during_a_force_share_the_next_one():
    """N committers that arrive while a force is in flight cost exactly
    one extra force, and every one of them is acked when it completes."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces, start, acks = metrics.forces, sim.now, {}
    queued = range(1, 7)
    run_all(sim, committer(db, 0, acks=acks),
            *(committer(db, k, delay=F / 2, acks=acks) for k in queued))
    assert metrics.forces - forces == 2
    assert metrics.forces_saved == len(queued) - 1
    assert metrics.group_commits == 1
    assert acks[0][0] - start == pytest.approx(F)
    assert all(acks[k][0] - start == pytest.approx(2 * F) for k in queued)


def test_stragglers_outside_the_window_start_a_new_group():
    """A committer arriving after the force completed leads its own."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces = metrics.forces
    run_all(sim, committer(db, 1), committer(db, 2, delay=1.0))
    assert metrics.forces - forces == 2
    assert metrics.forces_saved == 0 and metrics.group_commits == 0


def test_zero_window_is_the_classic_path():
    """Serial committers — ``paper()``'s E1 clients, think-time bound —
    meet nobody in flight: each leads its own force at once, exactly
    force-per-commit, with no window to sit out."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces, start = metrics.forces, sim.now

    def serial():
        for k in range(4):
            yield from committer(db, k)

    sim.run_process(serial())
    assert metrics.forces - forces == 4
    assert metrics.forces_saved == 0 and metrics.group_commits == 0
    assert sim.now - start == pytest.approx(4 * F)
    assert all_rows(db)[:4] == [(k, f"v{k}") for k in range(4)]


def test_group_commit_charges_one_force_latency():
    """A queue of four pays one force latency between them, not four:
    five committers are done after two forces."""
    sim = Simulator()
    db = make_db(sim)
    start = sim.now
    run_all(sim, *(committer(db, k) for k in range(5)))
    assert sim.now - start == pytest.approx(2 * F)


def test_no_committer_is_acked_before_the_force_covering_it_completes():
    sim = Simulator()
    db = make_db(sim)
    acks, start = {}, sim.now
    run_all(sim, *(committer(db, k, delay=0.001 * k, acks=acks)
                   for k in range(8)))
    assert len(acks) == 8
    for now, lsn, durable in acks.values():
        assert lsn <= durable
        # Forces run back to back from t=0: an ack lands on a boundary.
        assert round((now - start) / F, 9) == round((now - start) / F)


def test_crash_inside_window_never_acks_the_commit():
    """A crash while a force is in flight fails its leader and the
    committer queued behind it: neither is acknowledged. The leader's
    record was already issued to the log, so its work may survive — a
    durable, unacknowledged commit is legal; the queued one's record was
    never forced and is gone."""
    sim = Simulator()
    db = make_db(sim)
    outcomes = {}

    def saboteur():
        yield Timeout(F * 3 / 4)      # the first force is still in flight
        db.crash()

    run_all(sim, survivor(db, 1, outcomes),
            survivor(db, 2, outcomes, delay=F / 2), saboteur())
    assert outcomes == {1: "crashed", 2: "crashed"}
    db.restart()
    rows = dict(all_rows(db))
    assert rows[1] == "v1" and rows[2] == "init"


def test_leader_crash_point_fires_only_for_a_group_and_fails_it():
    """``wal.group:leader`` is a crash with other committers' records in
    the unforced tail: a lone leader never reaches it; the first leader
    whose force covers a queued committer does, and every member of
    that group fails, none acked, none durable."""
    injector = FaultInjector(FaultPlan(rules=[
        FaultRule("wal.group:leader:g", "crash")]))
    sim = Simulator(injector=injector)
    injector.enabled = False
    db = make_db(sim)
    injector.register_crash(db.name, db.crash)
    injector.enabled = True
    outcomes = {}
    run_all(sim, *(survivor(db, k, outcomes) for k in range(3)))
    assert outcomes == {0: "acked", 1: "crashed", 2: "crashed"}
    assert [fired["point"] for fired in injector.fired] == [
        "wal.group:leader:g"]
    injector.enabled = False
    db.restart()
    rows = dict(all_rows(db))
    assert (rows[0], rows[1], rows[2]) == ("v0", "init", "init")


def test_rollback_only_leader_hands_off():
    """A queued committer aborted while it waits must not force its dead
    commit record when it wakes first: it raises, and the committer
    queued behind it leads the next force instead."""
    sim = Simulator()
    db = make_db(sim)
    outcomes, txns = {}, {}

    def doomed():
        yield Timeout(F / 4)
        session = db.session()
        yield from session.execute(
            "UPDATE t SET v = ? WHERE k = ?", ("doomed", 2))
        txns["doomed"] = session.txn
        try:
            yield from session.commit()
            outcomes["doomed"] = "acked"
        except TransactionAborted:
            outcomes["doomed"] = "aborted"
            yield from db.rollback(txns["doomed"])

    def follower():
        yield Timeout(F / 2)
        yield from committer(db, 3)
        outcomes["follower"] = "acked"

    def saboteur():
        yield Timeout(F * 3 / 4)     # both are queued: mark one dead
        txns["doomed"].mark_rollback_only("victim")

    start = sim.now
    run_all(sim, committer(db, 1), doomed(), follower(), saboteur())
    assert outcomes == {"doomed": "aborted", "follower": "acked"}
    assert sim.now - start == pytest.approx(2 * F)
    rows = dict(all_rows(db))
    assert (rows[1], rows[2], rows[3]) == ("v1", "init", "v3")


def test_commit_after_restart_works_again():
    sim = Simulator()
    db = make_db(sim)
    outcomes = {}

    def saboteur():
        yield Timeout(F / 2)
        db.crash()

    run_all(sim, survivor(db, 1, outcomes), saboteur())
    assert outcomes == {1: "crashed"}
    db.restart()
    metrics = db.wal.metrics
    saved = metrics.forces_saved
    run_all(sim, *(committer(db, k) for k in (4, 5, 6)))
    rows = dict(all_rows(db))
    assert (rows[4], rows[5], rows[6]) == ("v4", "v5", "v6")
    assert metrics.forces_saved - saved == 1  # the engine groups again


def lazy_committer(db, k, handles):
    """Update row ``k`` and commit WITHOUT forcing; keep the handle."""
    session = db.session()
    yield from session.execute(
        "UPDATE t SET v = ? WHERE k = ?", (f"lazy{k}", k))
    handles[k] = yield from session.commit_lazy()


def test_a_lazy_commit_is_durable_at_the_next_force_whoever_leads_it():
    """A lazy commit ends its transaction at once, with no force and no
    wait; its handle completes when the next force of the log — here a
    later committer's — has covered the record."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces, start, handles, acks = metrics.forces, sim.now, {}, {}
    run_all(sim, lazy_committer(db, 1, handles))
    assert sim.now == start and metrics.forces == forces
    assert db.txns.active == [] and db.locks.total_locks == 0
    lsn = db.wal.tail_lsn
    assert db.wal.flushed_upto < lsn

    def waiter():
        outcome = yield handles[1].wait()
        acks["lazy"] = (sim.now, outcome, db.wal.flushed_upto)

    run_all(sim, waiter(), committer(db, 2, acks=acks))
    now, outcome, durable = acks["lazy"]
    assert outcome == ("ok", None) and durable >= lsn
    assert now - start == pytest.approx(F) and metrics.forces == forces + 1


def test_harden_forces_only_when_a_lazy_commit_waits():
    sim = Simulator()
    db = make_db(sim)
    metrics = db.wal.metrics
    forces, handles = metrics.forces, {}
    sim.run_process(db.harden())
    assert metrics.forces == forces
    run_all(sim, lazy_committer(db, 1, handles))
    sim.run_process(db.harden())
    assert metrics.forces == forces + 1
    assert handles[1].value == ("ok", None)
    assert db.wal.flushed_upto == db.wal.tail_lsn


def test_a_crash_fails_the_lazy_commit_and_takes_its_work():
    """The record was never forced: the crash loses it, the handle says
    so, and restart brings back the row as it was."""
    sim = Simulator()
    db = make_db(sim)
    handles = {}
    run_all(sim, lazy_committer(db, 3, handles))
    db.crash()
    kind, error = handles[3].value
    assert kind == "err" and isinstance(error, CrashedError)
    db.restart()
    assert all_rows(db)[3] == (3, "init")


def test_the_unforced_crash_point_fires_only_over_lazy_commits():
    """``wal.unforced:<db>`` crashes a force about to cover lazy commits
    — never a force that covers forced commits alone."""
    injector = FaultInjector(FaultPlan([FaultRule(
        "wal.unforced:g", "crash", max_fires=None)]))
    sim = Simulator(injector=injector)
    db = make_db(sim)
    injector.register_crash("g", db.crash)
    run_all(sim, committer(db, 1))
    assert injector.crashes == []
    handles, outcomes = {}, {}
    run_all(sim, lazy_committer(db, 2, handles),
            survivor(db, 4, outcomes))
    assert outcomes == {4: "crashed"}
    assert [c["point"] for c in injector.crashes] == ["wal.unforced:g"]
    assert handles[2].value[0] == "err"
