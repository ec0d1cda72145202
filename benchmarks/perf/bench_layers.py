"""Per-layer micro-benchmarks of the interpreter clock (ROADMAP item 3).

First slice: the three hot spots the end-to-end profile named — the SI
index probe, the uncontended lock, the B+tree point probe — plus the
statement they add up to. ``pytest benchmarks/perf/bench_layers.py
--benchmark-only`` prints the timings; the assertions are about *shape*
only (how cost scales, what gets allocated), so they hold on any
machine and also run with ``--benchmark-disable``:

* an SI point probe costs the same whether the table has 0 or 1 000
  live version chains, as long as their index entries never moved
  (≤ 2× allowed; a sweep over every chain is > 20×);
* an uncontended row-lock acquire + cursor-stability release builds no
  wait-queue request and no kernel event;
* a cursor-stability range or table scan nobody can observe builds no
  lock head for any row (DESIGN §9, lock avoidance) — and the same range
  with one row X-held by someone else locks row by row: the reader
  blocks with real S locks on the rows before it.
"""

import time

import pytest

from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb import locks as locks_module
from repro.minidb.btree import BTree, encode_key
from repro.minidb.locks import LockManager, LockMode
from repro.minidb.txn import TransactionTable

ROWS = 2_000
BATCH = 200


def make_db(live_chains: int):
    """A 2 000-row table with a unique index; ``live_chains`` of its rows
    carry a version chain (non-key update, pinned by a held snapshot)."""
    sim = Simulator(seed=1)
    db = Database(sim, "layers", DBConfig())

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v INT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(ROWS):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, 0)", (k,))
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
        pin = db.begin("SI")          # keeps the chains below alive
        if live_chains:
            yield from session.execute(
                "UPDATE t SET v = 1 WHERE k < ?", (live_chains,))
            yield from session.commit()
        return pin

    pin = sim.run_process(setup())
    assert db.live_chains() == live_chains
    return sim, db, pin


def si_probe(db):
    """BATCH point probes through the SI access path, as one callable."""
    txn = db.begin("SI")
    access = db.get_plan("SELECT v FROM t WHERE k = ?").access
    assert access.kind == "index_scan"
    scan = db.executor._scan_snapshot
    keys = [(k * 7919) % ROWS for k in range(BATCH)]

    def run():
        for k in keys:
            rows = scan(txn, access, (k,), {})
        return rows
    return run


def best_of(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.parametrize("live_chains", [0, 100, 1_000])
def test_si_point_probe(benchmark, live_chains):
    _, db, _pin = make_db(live_chains)
    rows = benchmark(si_probe(db))
    assert len(rows) == 1


def test_si_probe_cost_does_not_scale_with_live_chains():
    _, bare, _pin0 = make_db(0)
    _, chained, _pin1 = make_db(1_000)
    probe_bare, probe_chained = si_probe(bare), si_probe(chained)
    probe_bare(), probe_chained()                          # warm up
    before = chained.metrics.snapshot_candidates
    slow, fast = best_of(probe_chained), best_of(probe_bare)
    # One candidate per probe: the tree match, none of the 1 000 chains.
    assert chained.metrics.snapshot_candidates - before == 5 * BATCH
    assert slow <= 2.0 * fast, (slow, fast)


def lock_pairs(sim, locks, txn):
    row = ("row", "t", (0, 0))

    def work():
        for _ in range(BATCH):
            yield from locks.acquire(txn, row, LockMode.S)
            locks.release(txn, row)
    return lambda: sim.run_process(work())


def test_uncontended_row_lock_acquire_release(benchmark):
    sim = Simulator()
    locks = LockManager(sim, DBConfig())
    txn = TransactionTable().begin("CS", 0.0)
    benchmark(lock_pairs(sim, locks, txn))
    assert locks.total_locks == 1          # the table intent stays


def test_uncontended_lock_pair_allocates_no_request_or_event(monkeypatch):
    sim = Simulator()
    locks = LockManager(sim, DBConfig())
    txn = TransactionTable().begin("CS", 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("the uncontended path built a wait object")
    monkeypatch.setattr(locks_module, "_Request", forbidden)
    monkeypatch.setattr(locks_module, "Event", forbidden)
    lock_pairs(sim, locks, txn)()
    assert locks.metrics.acquires == BATCH and locks.metrics.waits == 0
    assert list(locks.heads) == [("table", "t")]


def test_btree_point_probe_at_full_leaf_fanout(benchmark):
    tree = BTree("ix", "t", ("k",), unique=True, order=64)
    tree.bulk_load((encode_key((k,)), (k // 50, k % 50))
                   for k in range(50_000))
    # The last entry of a full leaf: the worst case for a leaf walk.
    keys = [(leaf * 64 + 63,) for leaf in range(BATCH)]

    def run():
        for key in keys:
            found = tree.search_eq(key)
        return found
    assert benchmark(run) == [(12799 // 50, 12799 % 50)]


def test_cs_point_select_by_unique_index(benchmark):
    sim, db, _pin = make_db(0)
    session = db.session("CS")

    def work():
        for k in range(BATCH):
            row = yield from session.query_one(
                "SELECT v FROM t WHERE k = ?", ((k * 7919) % ROWS,))
        yield from session.commit()
        return row
    assert benchmark(lambda: sim.run_process(work())) == (0,)


# ------------------------------------------------ CS scans, lock avoidance

RANGE = ("SELECT COUNT(*) FROM t WHERE k >= ? AND k < ?", (1_000, 1_050))
SCAN_ROWS = 200
TABLE_SCAN = ("SELECT COUNT(*) FROM s WHERE v = ?", (0,))


def make_scan_db():
    """``make_db(0)`` plus an unindexed 200-row table ``s``."""
    sim, db, _pin = make_db(0)

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE s (k INT, v INT)")
        for k in range(SCAN_ROWS):
            yield from session.execute(
                "INSERT INTO s (k, v) VALUES (?, 0)", (k,))
        yield from session.commit()

    sim.run_process(setup())
    assert db.get_plan(RANGE[0]).access.kind == "index_scan"
    assert db.get_plan(TABLE_SCAN[0]).access.kind == "table_scan"
    return sim, db


def cs_counts(sim, db, query, repeats):
    sql, params = query
    session = db.session("CS")

    def work():
        for _ in range(repeats):
            count = yield from session.query_one(sql, params)
        yield from session.commit()
        return count
    return lambda: sim.run_process(work())


def test_cs_index_range_count_50_rows(benchmark):
    sim, db = make_scan_db()
    assert benchmark(cs_counts(sim, db, RANGE, 20)) == (50,)
    avoided = db.locks.metrics.avoided       # every row of every round
    assert avoided > 0 and avoided % (20 * 50) == 0


def test_cs_table_scan_200_rows(benchmark):
    sim, db = make_scan_db()
    assert benchmark(cs_counts(sim, db, TABLE_SCAN, 5)) == (SCAN_ROWS,)


def test_unobserved_cs_scans_build_no_row_lock_head(monkeypatch):
    sim, db = make_scan_db()
    built = []

    def forbidden(*args, **kwargs):
        raise AssertionError("an unobserved scan built a wait object")

    class RecordingHead(locks_module._LockHead):
        def __init__(self, resource):
            built.append(resource)
            super().__init__(resource)
    monkeypatch.setattr(locks_module, "_Request", forbidden)
    monkeypatch.setattr(locks_module, "Event", forbidden)
    monkeypatch.setattr(locks_module, "_LockHead", RecordingHead)
    before = db.locks.metrics.acquires
    assert cs_counts(sim, db, RANGE, 1)() == (50,)
    assert cs_counts(sim, db, TABLE_SCAN, 1)() == (SCAN_ROWS,)
    assert built == [("table", "t"), ("table", "s")]
    # Still 250 row requests + 2 intents on the books, 250 of them avoided.
    assert db.locks.metrics.acquires - before == 50 + SCAN_ROWS + 2
    assert db.locks.metrics.avoided == 50 + SCAN_ROWS
    assert db.locks.metrics.waits == 0 and db.locks.heads == {}


def contended_range(sim, db):
    """One round: a writer X-holds k=1025, the CS reader runs the range
    into it, the writer commits, the reader finishes. Returns what the
    lock table looked like while the reader was blocked."""
    writer, reader = db.session("RR"), db.session("CS")
    state = {}

    def read():
        state["count"] = yield from reader.query_one(*RANGE)
        yield from reader.commit()

    def work():
        yield from writer.execute("UPDATE t SET v = v + 1 WHERE k = 1025")
        sim.spawn(read())
        yield Timeout(1.0)
        state["waiting"] = db.locks.waiting_txns()
        state["held"] = reader.txn.lock_count
        yield from writer.commit()

    def run():
        sim.run_process(work())
        sim.run()
        return state
    return run


def test_cs_index_range_with_one_row_x_held(benchmark):
    sim, db = make_scan_db()
    assert benchmark(contended_range(sim, db))["count"] == (50,)


def test_contended_cs_range_blocks_holding_real_row_locks():
    sim, db = make_scan_db()
    state = contended_range(sim, db)()
    assert state["count"] == (50,)
    assert len(state["waiting"]) == 1
    # The intent plus S on k = 1000..1024, taken one by one before it
    # blocked on 1025; nothing was avoided.
    assert state["held"] == 1 + 25
    assert db.locks.metrics.waits == 1 and db.locks.metrics.avoided == 0
    assert db.locks.heads == {}
