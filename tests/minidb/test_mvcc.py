"""MVCC lineage chains and the SI isolation level (DESIGN.md §13).

Rows carry an append-only version tail stamped with commit LSNs; an SI
session reads the newest version at or below its begin snapshot WITHOUT
taking row or key locks, sees its own uncommitted writes, and loses
write-write races first-writer-wins. ``merge_versions`` folds committed
tails back into base records, never past the oldest live snapshot.
"""

import pytest

from repro.errors import TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.locks import LockMode


def make_db(sim, **cfg):
    cfg.setdefault("next_key_locking", True)
    db = Database(sim, "mvcc", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v INT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(10):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, 0)", (k,))
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    sim.run_process(setup())
    return db


# ----------------------------------------------------------------- visibility

def test_si_snapshot_ignores_later_commits():
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def reader():
        session = db.session("SI")
        first = yield from session.execute("SELECT v FROM t WHERE k = 3")
        yield Timeout(5.0)
        second = yield from session.execute("SELECT v FROM t WHERE k = 3")
        yield from session.commit()
        # A NEW snapshot begun after the writer's commit sees the update.
        third = yield from session.execute("SELECT v FROM t WHERE k = 3")
        yield from session.commit()
        result["reads"] = (first.scalar(), second.scalar(), third.scalar())

    def writer():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute("UPDATE t SET v = 9 WHERE k = 3")
        yield from session.commit()

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    assert result["reads"] == (0, 0, 9)


def test_si_readers_never_block_writers_or_wait_on_them():
    """The tentpole property: an SI scan neither waits for a writer's X
    lock nor holds anything a writer must wait for."""
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def writer():
        session = db.session()
        yield from session.execute("UPDATE t SET v = 7 WHERE k = 5")
        yield Timeout(10.0)       # hold the X lock, uncommitted
        yield from session.commit()

    def reader():
        session = db.session("SI")
        yield Timeout(1.0)
        row = yield from session.execute("SELECT v FROM t WHERE k = 5")
        result["value"] = row.scalar()
        result["read_at"] = sim.now
        yield from session.commit()

    before = db.locks.metrics.waits
    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    assert result["value"] == 0        # pre-image, not the dirty write
    assert result["read_at"] == 1.0    # no lock wait
    assert db.locks.metrics.waits == before


def test_si_sees_own_writes():
    sim = Simulator()
    db = make_db(sim)

    def go():
        session = db.session("SI")
        yield from session.execute("UPDATE t SET v = 42 WHERE k = 1")
        row = yield from session.execute("SELECT v FROM t WHERE k = 1")
        yield from session.commit()
        return row.scalar()

    assert sim.run_process(go()) == 42


def test_si_delete_marker_visibility():
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def reader():
        session = db.session("SI")
        first = yield from session.execute(
            "SELECT COUNT(*) FROM t WHERE k = 4")
        yield Timeout(5.0)
        second = yield from session.execute(
            "SELECT COUNT(*) FROM t WHERE k = 4")
        yield from session.commit()
        third = yield from session.execute(
            "SELECT COUNT(*) FROM t WHERE k = 4")
        yield from session.commit()
        result["counts"] = (first.scalar(), second.scalar(), third.scalar())

    def deleter():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute("DELETE FROM t WHERE k = 4")
        yield from session.commit()

    sim.spawn(reader())
    sim.spawn(deleter())
    sim.run()
    assert result["counts"] == (1, 1, 0)


# ----------------------------------------------------------- write conflicts

def test_si_first_writer_wins():
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def first():
        session = db.session("SI")
        yield Timeout(1.0)
        yield from session.execute("UPDATE t SET v = 1 WHERE k = 2")
        yield from session.commit()

    def second():
        session = db.session("SI")
        # Snapshot taken (at t=0) before `first` commits (at t=1)...
        yield from session.execute("SELECT v FROM t WHERE k = 2")
        yield Timeout(2.0)
        # ...so this write lands on a row with a newer committed version.
        try:
            yield from session.execute("UPDATE t SET v = 2 WHERE k = 2")
            yield from session.commit()
            result["outcome"] = "committed"
        except TransactionAborted as exc:
            yield from session.rollback()
            result["outcome"] = exc.reason

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert result["outcome"] == "write-conflict"
    assert db.table_rows("t").count((2, 1)) == 1  # first writer's value


def test_write_conflict_is_retriable():
    """First-writer-wins aborts surface as TransactionAborted, which the
    DLFM retry loops already classify as retriable."""
    from repro.errors import RETRIABLE_FAULTS
    assert TransactionAborted in RETRIABLE_FAULTS


def test_si_for_update_takes_the_locking_path():
    """FOR UPDATE under SI is a current read: it waits for the writer
    and sees the committed result (the fence the DLFM probes rely on)."""
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def writer():
        session = db.session()
        yield from session.execute("UPDATE t SET v = 5 WHERE k = 6")
        yield Timeout(4.0)
        yield from session.commit()

    def prober():
        session = db.session("SI")
        yield Timeout(1.0)
        row = yield from session.execute(
            "SELECT v FROM t WHERE k = 6 FOR UPDATE")
        result["value"] = row.scalar()
        result["read_at"] = sim.now
        yield from session.commit()

    sim.spawn(writer())
    sim.spawn(prober())
    sim.run()
    assert result["value"] == 5       # waited for commit, saw the write
    assert result["read_at"] >= 4.0


# ------------------------------------------------- FOR SHARE: the shared fence

FENCE_LEVELS = pytest.mark.parametrize("level", ["SI", "CS"])
SHARE = "SELECT v FROM t WHERE k = 6 FOR SHARE"


def _row_holders(db):
    """txn id → mode over every held row lock of ``t``."""
    return {txn: mode for resource in db.locks.heads
            if resource[:2] == ("row", "t")
            for txn, mode in db.locks.holders_of(resource).items()}


@FENCE_LEVELS
def test_for_share_readers_overlap_and_a_writer_waits_for_both(level):
    """Two fence holders never wait for each other; a writer of the row
    waits for the last of them (with FOR UPDATE the second reader would
    read at t=5; with an S lock dropped at statement end the writer
    would be done at t=2)."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    at = {}

    def reader(name, start):
        session = db.session(level)
        yield Timeout(start)
        row = yield from session.execute(SHARE)
        at[name] = (sim.now, row.scalar())
        yield Timeout(5.0)
        yield from session.commit()

    def writer():
        session = db.session(level)
        yield Timeout(2.0)
        yield from session.execute("UPDATE t SET v = 7 WHERE k = 6")
        at["writer"] = sim.now
        yield from session.commit()

    sim.spawn(reader("r1", 0.0))
    sim.spawn(reader("r2", 1.0))
    sim.spawn(writer())
    sim.run()
    assert at["r1"] == (0.0, 0) and at["r2"] == (1.0, 0)
    assert at["writer"] == 6.0            # r2 commits at 1 + 5
    assert db.locks.metrics.waits == 1    # the writer's, nobody else's


@FENCE_LEVELS
def test_for_share_is_a_current_read_behind_an_earlier_writer(level):
    """A writer that got there first is waited for, and both fence
    holders see what it committed — never the begin snapshot — and are
    granted together. A fence that arrives behind a *waiting* writer
    queues behind it (FIFO): no stream of linkers starves a dropper."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    at = {}

    def writer(name, start, value, hold):
        session = db.session(level)
        yield Timeout(start)
        yield from session.execute("UPDATE t SET v = ? WHERE k = 6",
                                   (value,))
        at[name] = sim.now
        yield Timeout(hold)
        yield from session.commit()

    def reader(name, start):
        session = db.session(level)
        if level == "SI":   # pin the snapshot before the writer commits
            yield from session.execute("SELECT v FROM t WHERE k = 1")
        yield Timeout(start)
        row = yield from session.execute(SHARE)
        at[name] = (sim.now, row.scalar())
        yield Timeout(2.0)
        yield from session.commit()

    sim.spawn(writer("w1", 0.0, 5, hold=4.0))
    sim.spawn(reader("r1", 1.0))
    sim.spawn(reader("r2", 2.0))
    sim.spawn(writer("w2", 5.0, 8, hold=1.0))   # waits for r1 and r2
    sim.spawn(reader("r3", 5.5))                 # behind w2, not beside r2
    sim.run()
    assert at["r1"] == at["r2"] == (4.0, 5)
    assert at["w2"] == 6.0
    assert at["r3"] == (7.0, 8)


@FENCE_LEVELS
@pytest.mark.parametrize("end", ["commit", "rollback"])
def test_for_share_lock_outlives_the_statement_not_the_transaction(
        level, end):
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    seen = []

    def go():
        session = db.session(level)
        yield from session.execute(SHARE)
        seen.append(_row_holders(db))
        yield from session.execute("SELECT v FROM t WHERE k = 2")
        seen.append(_row_holders(db))
        txn = session.txn.id
        yield from getattr(session, end)()
        seen.append(_row_holders(db))
        return txn

    txn = sim.run_process(go())
    assert seen == [{txn: LockMode.S}, {txn: LockMode.S}, {}]
    assert db.locks.holders_of(("table", "t")) == {}


@FENCE_LEVELS
def test_fence_holder_that_writes_the_row_upgrades_and_commits(level):
    """Link into a group, then drop it, in one transaction: S -> X is an
    ordinary conversion. Two holders converting at once deadlock like
    any conversion pair; the victim's abort is retriable."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")

    def alone():
        session = db.session(level)
        yield from session.execute(SHARE)
        yield from session.execute("UPDATE t SET v = 1 WHERE k = 6")
        held = _row_holders(db)
        yield from session.commit()
        return held

    assert set(sim.run_process(alone()).values()) == {LockMode.X}
    outcomes = []

    def converter(value):
        session = db.session(level)
        yield from session.execute(SHARE)
        yield Timeout(1.0)
        try:
            yield from session.execute("UPDATE t SET v = ? WHERE k = 6",
                                       (value,))
            yield from session.commit()
            outcomes.append("committed")
        except TransactionAborted as error:
            yield from session.rollback()
            outcomes.append(error.reason)

    sim.spawn(converter(2))
    sim.spawn(converter(3))
    sim.run()
    assert sorted(outcomes) == ["committed", "deadlock"]
    assert db.locks.heads == {}


# ------------------------------------------------------------------- merging

def test_merge_folds_chains_after_quiesce():
    """Chains accumulate only while a live snapshot pins them (commit
    folds eagerly otherwise); once the last snapshot closes, one merge
    pass collapses everything back into base records."""
    sim = Simulator()
    db = make_db(sim)
    seen = {}

    def pinner():
        session = db.session("SI")
        yield from session.execute("SELECT v FROM t WHERE k = 0")
        yield Timeout(10.0)             # hold the snapshot over the churn
        yield from session.commit()

    def churn():
        session = db.session()
        yield Timeout(1.0)
        for round_no in range(3):
            yield from session.execute(
                "UPDATE t SET v = ? WHERE k < 5", (round_no + 1,))
            yield from session.commit()
        yield from session.execute("DELETE FROM t WHERE k = 9")
        yield from session.commit()
        seen["chains_during"] = db.live_chains()

    sim.spawn(pinner())
    sim.spawn(churn())
    sim.run()
    assert seen["chains_during"] > 0
    assert db.live_chains() > 0
    assert db.metrics.versions_created > 0
    before = sorted(db.table_rows("t"))
    merged = db.merge_versions()
    assert merged > 0
    assert db.live_chains() == 0
    assert sorted(db.table_rows("t")) == before
    assert sorted(db.snapshot_table_rows("t")) == before
    assert db.metrics.versions_merged >= merged


def test_merge_never_folds_past_a_live_snapshot():
    sim = Simulator()
    db = make_db(sim)
    result = {}

    def reader():
        session = db.session("SI")
        first = yield from session.execute("SELECT v FROM t WHERE k = 0")
        yield Timeout(5.0)
        # A merge ran while we slept; our snapshot must be intact.
        second = yield from session.execute("SELECT v FROM t WHERE k = 0")
        yield from session.commit()
        result["reads"] = (first.scalar(), second.scalar())

    def writer():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute("UPDATE t SET v = 8 WHERE k = 0")
        yield from session.commit()
        result["merged_mid_read"] = db.merge_versions()
        result["chains_after"] = db.live_chains()

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    # The watermark (the reader's snapshot) pinned the chain: the old
    # version survived the merge and the reader never saw v=8.
    assert result["reads"] == (0, 0)
    assert result["chains_after"] > 0
    assert db.merge_versions() > 0    # quiesced: now it folds
    assert db.live_chains() == 0


@pytest.mark.parametrize("level", ["CS", "SI"])
def test_rollback_settles_the_seeds_its_writes_pinned(level):
    """Each first write pins a ``(0, row)`` seed; outside a DLFM no
    merge pass ever runs, so the writer's own end must fold it — at
    rollback as at commit — or the chain stays until someone rewrites
    the row. A live snapshot keeps what it can still see."""
    sim = Simulator()
    db = make_db(sim)

    def go():
        reader = db.session("SI")
        yield from reader.execute("SELECT v FROM t WHERE k = 0")
        session = db.session(level)
        for _ in range(20):
            for k in range(10):
                yield from session.execute(
                    "UPDATE t SET v = v + 1 WHERE k = ?", (k,))
            yield from session.execute("DELETE FROM t WHERE k = 9")
            yield from session.rollback()
        assert db.live_chains() == 0
        yield from session.execute("UPDATE t SET v = 5 WHERE k = 0")
        yield from session.commit()
        assert db.live_chains() == 1     # the reader's snapshot pins k = 0
        assert (yield from reader.execute(
            "SELECT v FROM t WHERE k = 0")).scalar() == 0
        yield from reader.commit()

    sim.run_process(go())
    assert db.merge_versions() > 0 and db.live_chains() == 0
    assert sorted(db.table_rows("t")) == [(0, 5)] + [(k, 0)
                                                     for k in range(1, 10)]


# ------------------------------------------------------------------ recovery

def test_version_state_consistent_after_crash_and_restart():
    """No snapshot survives a crash, so restart rebuilds no chains: the
    redone/undone base records are the committed state. A post-restart
    snapshot must agree with the base rows and find no live chains."""
    sim = Simulator()
    db = make_db(sim)

    def churn():
        session = db.session()
        yield from session.execute("UPDATE t SET v = 1 WHERE k = 7")
        yield from session.commit()
        yield from session.execute("UPDATE t SET v = 2 WHERE k = 7")
        yield from session.execute("DELETE FROM t WHERE k = 8")
        yield from session.commit()
        # A durable in-flight loser: recovery must undo it AND fold the
        # undo back out of the chains.
        yield from session.execute("UPDATE t SET v = 99 WHERE k = 0")
        db.wal.force()

    sim.run_process(churn())
    db.crash()
    db.restart()
    assert sorted(db.snapshot_table_rows("t")) == sorted(db.table_rows("t"))
    assert (7, 2) in db.table_rows("t")
    assert (0, 0) in db.table_rows("t")   # loser undone
    assert all(row[0] != 8 for row in db.table_rows("t"))
    assert db.live_chains() == 0


# --------------------------------------------------------------- differential

def _mixed_workload(isolation: str) -> dict:
    """Seeded reader/writer mix; writers own disjoint key ranges so the
    durable state is schedule-independent, while the shared hot rows
    give SI something to snapshot around and RR something to lock."""
    sim = Simulator(seed=7)
    db = make_db(sim, isolation=isolation)
    rng = sim.stream("mixed")

    def client(cid: int):
        session = db.session(isolation)
        for t in range(4):
            while True:
                try:
                    yield from session.execute(
                        "SELECT v FROM t WHERE k = ?",
                        (rng.randrange(10),))
                    yield from session.execute(
                        "UPDATE t SET v = ? WHERE k = ?",
                        (t + 1, cid))       # own key: no ww races
                    yield from session.execute(
                        "INSERT INTO t (k, v) VALUES (?, ?)",
                        (100 + cid * 10 + t, t))
                    yield from session.commit()
                    break
                except TransactionAborted:
                    yield from session.rollback()
                    yield Timeout(0.01)

    for cid in range(6):
        sim.spawn(client(cid), f"mix-{cid}")
    sim.run()
    db.merge_versions()
    return {name: sorted(db.table_rows(name))
            for name in db.catalog.tables}


def test_si_and_rr_reach_identical_durable_state():
    assert _mixed_workload("SI") == _mixed_workload("RR")


# ------------------------------------------------------------------ guards

def test_si_probe_counts_candidates_and_rows():
    """``snapshot_rows / snapshot_candidates`` is the probe's useful-work
    ratio: live chains whose index entries never moved cost a probe
    nothing; only chains off *this* index are examined."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.metrics

    def probe(session, k):
        before = (metrics.snapshot_candidates, metrics.snapshot_rows)
        result = yield from session.execute(
            "SELECT v FROM t WHERE k = ?", (k,))
        return (result.rows,
                metrics.snapshot_candidates - before[0],
                metrics.snapshot_rows - before[1])

    def go():
        old = db.session("SI")
        assert (yield from probe(old, 3)) == ([(0,)], 1, 1)
        writer = db.session()
        yield from writer.execute("UPDATE t SET v = 1 WHERE k >= 0")
        yield from writer.commit()
        assert db.live_chains() == 10          # pinned by ``old``
        fresh = db.session("SI")
        assert (yield from probe(fresh, 3)) == ([(1,)], 1, 1)
        yield from writer.execute("UPDATE t SET k = 33 WHERE k = 3")
        yield from writer.commit()
        # k=3 left the tree: found through the sidecar, nothing else.
        assert (yield from probe(old, 3)) == ([(0,)], 1, 1)
        # Any other probe of t_k also examines that one off-index chain.
        assert (yield from probe(old, 5)) == ([(0,)], 2, 1)
        yield from old.commit()
        yield from fresh.commit()

    sim.run_process(go())
