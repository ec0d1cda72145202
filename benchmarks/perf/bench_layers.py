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
  wait-queue request and no kernel event.
"""

import time

import pytest

from repro.kernel import Simulator
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
