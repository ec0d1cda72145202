"""Lock avoidance is an equivalence, not a weaker isolation level
(DESIGN.md §9, "The interpreter clock").

A plain cursor-stability SELECT whose row locks nobody could observe
takes none: ``LockManager.reads_unobserved`` answers for the whole rid
list and bills the requests. The oracle kept here is the path it
skips — the same schedule re-run with that method patched to answer
False, so every scan locks row by row — and the two runs must agree on
every statement's rows, the lock counters, the lock table at every
statement boundary, buffer-pool traffic and the virtual clock.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import LockTimeoutError, ReproError
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.config import TimingModel
from repro.minidb.locks import LockManager, LockMode
from repro.sql.executor import ResultSet

ROWS = 18            # a = 0..17, b = a % 3, v = 0; rid = (a // 4, a % 4)
COUNTERS = ("acquires", "waits", "peak_locks", "escalations", "timeouts",
            "deadlocks")


def per_row_oracle():
    """Every scan takes its row locks one by one, as before the fast path."""
    return mock.patch.object(LockManager, "reads_unobserved",
                             lambda self, txn, table, rids: False)


def make_db(sim, rows=ROWS, name="avoid", **cfg):
    """``t (a, b, v)``, indexes on ``a`` and ``b``, none on ``v``; four
    rows a page and a three-page pool, so fetch order shows in
    ``pool.misses``; calibrated timing, so I/O shows in ``sim.now``."""
    cfg.setdefault("isolation", "CS")
    db = Database(sim, name, DBConfig(
        rows_per_page=4, buffer_pool_pages=3, next_key_locking=False,
        timing=TimingModel.calibrated(), **cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (a INT, b INT, v INT)")
        yield from session.execute("CREATE INDEX t_a ON t (a)")
        yield from session.execute("CREATE INDEX t_b ON t (b)")
        for a in range(rows):
            yield from session.execute(
                "INSERT INTO t (a, b, v) VALUES (?, ?, 0)", (a, a % 3))
            if a % 6 == 5:
                yield from session.commit()    # fits the smallest locklist
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000,
                           colcard={"a": 1_000_000, "b": 1000, "v": 1})

    sim.run_process(setup())
    assert db.explain("SELECT v FROM t WHERE a >= 1 AND a < 4")["access"] \
        == "index_scan"
    assert db.explain("SELECT a FROM t WHERE v = 1")["access"] == "table_scan"
    return db


def lock_table(db):
    return ({resource: dict(head.holders)
             for resource, head in db.locks.heads.items()},
            db.locks.waiting_txns())


def row(a):
    return ("row", "t", (a // 4, a % 4))


# ------------------------------------------------------------- schedules

READS = (
    [("SELECT a, b, v FROM t WHERE a = ?", (a,)) for a in (0, 5, 9, 17)]
    + [("SELECT a, b, v FROM t WHERE b = ?", (b,)) for b in range(3)]
    + [("SELECT a, b, v FROM t WHERE a >= ? AND a < ?", (2, 9)),
       ("SELECT COUNT(*) FROM t WHERE b = ? AND v = ?", (1, 0)),
       ("SELECT a, b, v FROM t WHERE v = ?", (0,)),           # table scan
       ("SELECT a FROM t WHERE v = ? ORDER BY a DESC LIMIT 3", (1,)),
       ("SELECT a FROM t WHERE b = ? EXCEPT SELECT a FROM t WHERE v = ?",
        (0, 1)),
       ("SELECT a FROM t WHERE a = ? FOR UPDATE", (5,))])
WRITES = (
    [("UPDATE t SET v = ? WHERE a = ?", (1, a)) for a in (0, 5, 9)]
    + [("UPDATE t SET v = v + 1 WHERE b = ?", (2,)),
       ("INSERT INTO t (a, b, v) VALUES (?, ?, 0)", (5, 1)),
       ("DELETE FROM t WHERE a = ?", (9,)),
       ("COMMIT", ()), ("ROLLBACK", ())])
#: (isolation, statements it draws from): two CS readers beside an RR
#: and a CS writer that sit on their X locks between statements — and
#: read through their own writes.
CLIENTS = (("CS", READS), ("CS", READS + [("COMMIT", ())]),
           ("RR", WRITES), ("CS", WRITES + READS))
GAPS = (0.0, 0.0005, 0.02, 0.7)
CONFIGS = (
    {},
    {"locklist_size": 40, "maxlocks_fraction": 0.25},   # 10 rows escalate
    {"locklist_size": 16, "maxlocks_fraction": 1.0},    # a full locklist does
)


def client_plan(statements):
    return st.lists(st.tuples(st.sampled_from(GAPS),
                              st.sampled_from(statements)), max_size=7)


def run_schedule(plans, cfg, oracle):
    """One run: a log entry per statement boundary, then the totals."""
    sim = Simulator(seed=9)
    log = []

    def client(index, isolation, plan):
        session = db.session(isolation)
        for step, (gap, (sql, params)) in enumerate(plan):
            yield Timeout(gap)
            try:
                if sql == "COMMIT":
                    outcome = yield from session.commit()
                elif sql == "ROLLBACK":
                    outcome = yield from session.rollback()
                else:
                    outcome = yield from session.execute(sql, params)
                    if isinstance(outcome, ResultSet):
                        outcome = outcome.rows
            except ReproError as error:
                outcome = type(error).__name__
            log.append((index, step, outcome, sim.now, lock_table(db)))
        yield from session.commit()

    with per_row_oracle() if oracle else nullcontext():
        db = make_db(sim, lock_timeout=1.0, **cfg)
        for index, ((isolation, _), plan) in enumerate(zip(CLIENTS, plans)):
            sim.spawn(client(index, isolation, plan), f"client-{index}")
        sim.run()
    assert db.locks.heads == {} and db.locks.total_locks == 0
    counters = {name: getattr(db.locks.metrics, name) for name in COUNTERS}
    return (log, counters, db.pool.metrics.misses,
            db.pool.metrics.page_writes, sim.now, db.table_rows("t"),
            db.locks.metrics.avoided)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(client_plan(statements) for _, statements in CLIENTS)),
       st.sampled_from(CONFIGS))
def test_avoided_locks_change_nothing_anyone_can_see(plans, cfg):
    shipped = run_schedule(plans, cfg, oracle=False)
    oracle = run_schedule(plans, cfg, oracle=True)
    assert oracle[-1] == 0
    for ours, theirs in zip(shipped[0], oracle[0]):
        assert ours == theirs
    assert shipped[:-1] == oracle[:-1]


# --------------------------------------------------------------- scripted

def test_uncontended_cs_scans_take_no_row_locks():
    sim = Simulator()
    db = make_db(sim)

    def reader():
        session = db.session("CS")
        before = db.locks.metrics.acquires
        rows = yield from session.execute(
            "SELECT a FROM t WHERE a >= 2 AND a < 9")
        assert [a for a, in rows] == list(range(2, 9))
        # Billed as seven requests plus the table intent; none taken.
        assert db.locks.metrics.acquires - before == 8
        assert db.locks.metrics.avoided == 7
        assert list(db.locks.heads) == [("table", "t")]
        rows = yield from session.execute("SELECT a FROM t WHERE v = 0")
        assert len(rows) == ROWS and db.locks.metrics.avoided == 7 + ROWS
        assert db.locks.metrics.peak_locks == 1 + ROWS
        yield from session.commit()

    sim.run_process(reader())


def test_rows_the_reader_itself_holds_do_not_force_row_locks():
    """A row the reading transaction X-holds (it inserted it) is a no-op
    for ``acquire``, so it must not send the scan down the per-row path:
    no new row lock head, every row counted in ``avoided``."""
    sim = Simulator()
    db = make_db(sim)
    metrics = db.locks.metrics

    def reader():
        session = db.session("CS")
        yield from session.execute(
            "INSERT INTO t (a, b, v) VALUES (?, ?, 0)", (ROWS, 1))
        heads = set(db.locks.heads)
        assert len(heads) == 2                  # table IX + the new row X
        rows = yield from session.execute("SELECT a FROM t WHERE v = 0")
        assert len(rows) == ROWS + 1
        assert set(db.locks.heads) == heads
        assert metrics.avoided == ROWS + 1
        assert metrics.peak_locks == 2 + ROWS
        yield from session.commit()

    sim.run_process(reader())


def test_blocked_reader_holds_its_earlier_row_locks_while_it_waits():
    """Row a=5 is X-held: the range scan 2..8 must lock row by row, so
    while it waits on a=5 its S locks on a=2,3,4 are in the lock table
    and a writer on a=3 queues behind them."""
    sim = Simulator()
    db = make_db(sim, lock_timeout=50.0)
    seen = {}

    def holder():
        session = db.session("RR")
        yield from session.execute("UPDATE t SET v = 7 WHERE a = 5")
        yield Timeout(5.0)
        yield from session.commit()

    def reader():
        session = db.session("CS")
        yield Timeout(1.0)
        seen["txn"] = session._require_txn().id
        rows = yield from session.execute(
            "SELECT a, v FROM t WHERE a >= 2 AND a < 9")
        seen["rows"], seen["read_at"] = rows.rows, sim.now
        yield from session.commit()

    def late_writer():
        session = db.session("RR")
        yield Timeout(2.0)
        for a in (2, 3, 4):
            assert db.locks.holders_of(row(a)) == {seen["txn"]: LockMode.S}
        assert db.locks.holders_of(row(6)) == {}      # not reached yet
        assert db.locks.waiting_txns() == [seen["txn"]]
        yield from session.execute("UPDATE t SET v = 8 WHERE a = 3")
        seen["written_at"] = sim.now
        yield from session.commit()

    for proc in (holder(), reader(), late_writer()):
        sim.spawn(proc)
    sim.run()
    assert seen["rows"] == [(2, 0), (3, 0), (4, 0), (5, 7), (6, 0), (7, 0),
                            (8, 0)]
    assert seen["read_at"] >= 5.0 and seen["written_at"] >= 5.0
    assert db.locks.metrics.waits == 2 and db.locks.metrics.avoided == 0


def escalating_db(sim, **cfg):
    # threshold = 0.1 × 100 = 10 row locks per transaction and table
    return make_db(sim, locklist_size=100, maxlocks_fraction=0.1, **cfg)


def test_scan_at_the_escalation_threshold_is_avoided_one_past_escalates():
    sim = Simulator()
    db = escalating_db(sim)
    metrics = db.locks.metrics

    def reader():
        session = db.session("CS")
        yield from session.execute("SELECT a FROM t WHERE a >= 0 AND a < 10")
        assert (metrics.avoided, metrics.escalations) == (10, 0)
        acquires = metrics.acquires
        rows = yield from session.execute(
            "SELECT a FROM t WHERE a >= 0 AND a < 11")
        assert len(rows) == 11
        # The 11th row's request escalated: ten S locks were really
        # held, then traded for a table S that stays until commit.
        assert (metrics.avoided, metrics.escalations) == (10, 1)
        assert metrics.acquires - acquires == 12 and metrics.peak_locks == 11
        assert db.locks.holders_of(("table", "t")) == {
            session.txn.id: LockMode.S}
        # Covered by the table lock now: its reads are requests, but
        # nothing is taken, so nothing is avoided and — with another
        # reader's six entries in the locklist — the peak must not move.
        other = db.session("RS")
        yield from other.execute("SELECT a FROM t WHERE a >= 12 AND a < 17")
        assert db.locks.total_locks == 1 + 6
        yield from session.execute("SELECT a FROM t WHERE a >= 0 AND a < 8")
        assert metrics.avoided == 10 and metrics.peak_locks == 11
        assert metrics.acquires - acquires == 12 + 6 + 9
        assert session.txn.lock_count == 1
        yield from session.commit()
        yield from other.commit()

    sim.run_process(reader())


def test_table_scan_over_the_threshold_escalates_at_the_same_row():
    totals = []
    for oracle in (False, True):
        sim = Simulator()
        with per_row_oracle() if oracle else nullcontext():
            db = escalating_db(sim)

            def reader():
                session = db.session("CS")
                rows = yield from session.execute(
                    "SELECT a FROM t WHERE v = 0")
                held = lock_table(db)
                yield from session.commit()
                return len(rows), held

            totals.append((sim.run_process(reader()),
                           {n: getattr(db.locks.metrics, n)
                            for n in COUNTERS}))
    assert totals[0] == totals[1]
    assert totals[0][1]["escalations"] == 1
    assert totals[0][1]["peak_locks"] == 11


def test_rows_other_transactions_hold_count_against_the_locklist():
    """Locklist of 19: the writer holds 1 + 8 entries, the reader's
    intent is the 10th, so a 9-row scan of free rows fits exactly and a
    10-row scan would overflow it — it must escalate on the same request
    as the row-by-row path."""
    sim = Simulator()
    db = make_db(sim, locklist_size=19, maxlocks_fraction=1.0)
    metrics = db.locks.metrics

    def go():
        writer = db.session("RR")
        yield from writer.execute(
            "UPDATE t SET v = 1 WHERE a >= 10 AND a < 18")
        assert db.locks.total_locks == 9
        reader = db.session("CS")
        yield from reader.execute("SELECT a FROM t WHERE a >= 0 AND a < 9")
        assert (metrics.avoided, metrics.peak_locks) == (9, 19)
        yield from reader.execute("SELECT a FROM t WHERE a >= 0 AND a < 10")
        yield from writer.rollback()
        yield from reader.rollback()

    sim.spawn(go())
    sim.run(until=1.0)
    # The overflowing scan locked row by row: the reader now waits for
    # table S behind the writer's IX, its nine row locks in the table.
    assert metrics.avoided == 9
    assert len(db.locks.waiting_txns()) == 1
    assert db.locks.total_locks == 9 + 1 + 9


def test_armed_lock_rule_fires_on_the_same_arrival():
    """``lock.acquire:<db>`` counts every request: with an injector
    enabled a scan locks row by row, so the rule's ``skip`` lands on the
    same row it always did."""
    injector = FaultInjector(FaultPlan([
        FaultRule("lock.acquire:avoid", "lock_timeout", skip=4)]))
    sim = Simulator(injector=injector)
    injector.enabled = False
    db = make_db(sim)
    injector.enabled = True

    def reader():
        session = db.session("CS")
        with pytest.raises(LockTimeoutError):
            # arrivals: table intent, a=2, a=3, a=4, then a=5 is the victim
            yield from session.execute(
                "SELECT a FROM t WHERE a >= 2 AND a < 9")
        return db.locks.metrics.acquires

    before = db.locks.metrics.acquires
    assert sim.run_process(reader()) - before == 5
    assert db.locks.metrics.avoided == 0 and db.locks.metrics.timeouts == 1
    assert len(injector.fired) == 1 and db.locks.heads == {}


@pytest.mark.parametrize("isolation, sql, held_after", [
    ("RR", "SELECT a FROM t WHERE a >= 2 AND a < 9", 8),
    ("RS", "SELECT a FROM t WHERE a >= 2 AND a < 9", 8),
    ("CS", "SELECT a FROM t WHERE a >= 2 AND a < 9 FOR UPDATE", 8),
    ("CS", "UPDATE t SET v = 1 WHERE a >= 2 AND a < 9", 8),
])
def test_only_plain_cs_selects_are_avoided(isolation, sql, held_after):
    sim = Simulator()
    db = make_db(sim)

    def go():
        session = db.session(isolation)
        yield from session.execute(sql)
        held = db.locks.total_locks
        yield from session.commit()
        return held

    assert sim.run_process(go()) == held_after
    assert db.locks.metrics.avoided == 0


def test_precheck_is_side_effect_free_and_needs_an_active_intent_holder():
    sim = Simulator()
    db = make_db(sim)
    locks = db.locks
    rids = [(page, slot) for page in range(2) for slot in range(4)]

    def go():
        txn = db.begin("CS")
        assert not locks.reads_unobserved(txn, "t", rids)   # no intent yet
        yield from locks.acquire(txn, ("table", "t"), LockMode.IS)
        other = db.begin("RR")
        yield from locks.acquire(other, ("row", "t", (0, 1)), LockMode.S)
        before = (set(locks.heads), dict(vars(locks.metrics)))
        assert not locks.reads_unobserved(txn, "t", rids)   # a head exists
        locks.release(other, ("row", "t", (0, 1)))
        txn.mark_rollback_only("timeout")
        assert not locks.reads_unobserved(txn, "t", rids)   # not active
        assert dict(vars(locks.metrics)) == before[1]
        assert set(locks.heads) == before[0] - {("row", "t", (0, 1))}
        txn.rollback_only = False
        assert locks.reads_unobserved(txn, "t", rids)
        assert locks.metrics.acquires == before[1]["acquires"] + 8
        assert locks.metrics.avoided == 8
        assert locks.metrics.peak_locks == locks.total_locks + 8 == 10
        assert set(locks.heads) == {("table", "t")}

    sim.run_process(go())
