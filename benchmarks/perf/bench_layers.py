"""Per-layer micro-benchmarks of the interpreter clock (ROADMAP item 3).

First slice: the hot spots the end-to-end profile named — the
uncontended lock, the B+tree point probe — plus the statement they add
up to. ``pytest benchmarks/perf/bench_layers.py
--benchmark-only`` prints the timings; the assertions are about *shape*
only (how cost scales, what gets allocated), so they hold on any
machine and also run with ``--benchmark-disable``:

* an uncontended row-lock acquire + cursor-stability release builds no
  wait-queue request and no kernel event;
* a cursor-stability range or table scan nobody can observe builds no
  lock head for any row (DESIGN §9, lock avoidance) — and the same range
  with one row X-held by someone else locks row by row: the reader
  blocks with real S locks on the rows before it.

Second slice, the write path's fixed cost (DESIGN §9):

* deleting one entry from, or inserting one into, a run of N duplicates
  of its key bisects once per tree level whether N is 1 000 or 100 000
  — no walk along the leaves of the run;
* an index key comes from the extractor the catalog built with the
  index, and a one-column key is still a 1-tuple;
* a sleep, a rendezvous wake and a spawn put the process itself on the
  kernel's heap: no ``Timer`` and no function object per suspension;
* an uncontended X row lock asks ``_should_escalate`` nothing while one
  more lock is within both the locklist and the per-transaction share,
  and asks at the first lock past either;
* a WAL record is slotted (no ``__dict__``).
"""

import gc
import types

import pytest

from repro.kernel import Event, Simulator, Timeout
from repro.kernel import sim as sim_module
from repro.minidb import Database, DBConfig
from repro.minidb import btree as btree_module
from repro.minidb import locks as locks_module
from repro.minidb import wal as wal_module
from repro.minidb.btree import BTree, encode_key
from repro.minidb.catalog import Catalog, ColumnDef
from repro.minidb.locks import LockManager, LockMode
from repro.minidb.txn import TransactionTable
from repro.minidb.wal import LogManager

ROWS = 2_000
BATCH = 200


def make_db():
    """A 2 000-row table with a unique index."""
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

    sim.run_process(setup())
    return sim, db


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
    sim, db = make_db()
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
    """``make_db()`` plus an unindexed 200-row table ``s``."""
    sim, db = make_db()

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


# ------------------------------------------- the write path's fixed cost

def duplicate_run(n: int) -> BTree:
    """A non-unique index whose ``n`` entries all carry the same key —
    ``dfm_file (dbid, unlink_txn)`` after a day of link-inserts."""
    tree = BTree("ix", "t", ("dbid", "unlink_txn"), unique=False, order=64)
    ekey = encode_key((1, None))
    tree.bulk_load((ekey, (k // 50, k % 50)) for k in range(n))
    return tree


def levels(tree: BTree) -> int:
    """Height of ``tree``: one descent bisects once per level."""
    node, height = tree._root, 1
    while type(node) is btree_module._Inner:
        node, height = node.children[0], height + 1
    return height


def run_delete_insert(tree: BTree, n: int):
    """Delete and re-insert BATCH entries spread over the whole run."""
    rids = [((k * 7919) % n // 50, (k * 7919) % n % 50)
            for k in range(BATCH)]

    def run():
        for rid in rids:
            assert tree.delete((1, None), rid)
            tree.insert((1, None), rid)
    return run


@pytest.mark.parametrize("duplicates", [1_000, 100_000])
def test_btree_delete_insert_inside_a_duplicate_run(benchmark, duplicates):
    tree = duplicate_run(duplicates)
    benchmark(run_delete_insert(tree, duplicates))
    assert len(tree) == duplicates
    assert list(tree.items()) == sorted(tree.items())


def test_btree_write_into_a_duplicate_run_bisects_once_per_level(
        monkeypatch):
    calls = {"bisect": 0}

    def counting(fn):
        def wrapper(*args):
            calls["bisect"] += 1
            return fn(*args)
        return wrapper
    for name in ("bisect_left", "bisect_right", "insort"):
        monkeypatch.setattr(btree_module, name,
                            counting(getattr(btree_module, name)))
    for duplicates in (1_000, 100_000):
        tree = duplicate_run(duplicates)
        calls["bisect"] = 0
        run_delete_insert(tree, duplicates)()
        # One bisect per level for the delete, the same for the insert:
        # the 1 563 leaves of the 100 000-entry run are never walked.
        assert calls["bisect"] == BATCH * 2 * levels(tree), duplicates


def two_column_index():
    catalog = Catalog()
    catalog.create_table("f", [ColumnDef(name, "INT") for name in
                               ("a", "dbid", "b", "unlink_txn", "c")])
    pair = catalog.create_index("f_du", "f", ("dbid", "unlink_txn"), False)
    single = catalog.create_index("f_b", "f", ("b",), False)
    return pair, single


def test_index_key_extract_and_encode_two_columns(benchmark):
    pair, _ = two_column_index()
    rows = [(k, 1, k * 3, None if k % 2 else k, "x") for k in range(BATCH)]

    def run():
        for row in rows:
            ekey = encode_key(pair.key_of(row))
        return ekey
    assert benchmark(run) == ((1, 1), (0, 0))


def test_index_key_extractor_matches_the_column_positions():
    pair, single = two_column_index()
    row = (10, 11, 12, None, 14)
    assert pair.key_of(row) == (11, None)
    assert single.key_of(row) == (12,)          # one column: still a tuple
    assert encode_key(single.key_of(row)) == ((1, 12),)
    with pytest.raises(TypeError, match="unindexable value"):
        encode_key((object(),))


SLEEPERS = 200


def sleeper(rounds: int):
    for _ in range(rounds):
        yield Timeout(1.0)


def sleepers(sim, rounds: int):
    for _ in range(SLEEPERS):
        sim.spawn(sleeper(rounds))


def test_kernel_sleeps(benchmark):
    def run():
        sim = Simulator()
        sleepers(sim, 10)
        sim.run()
        return sim.now
    assert benchmark(run) == 10.0


def rendezvous(sim, rounds: int):
    """Two processes waking each other ``rounds`` times, no timeouts."""
    ping, pong = Event(sim), Event(sim)

    def server():
        for _ in range(rounds):
            yield ping.wait()
            pong.trigger("pong")

    def client():
        for _ in range(rounds):
            ping.trigger("ping")
            reply = yield pong.wait()
        return reply
    sim.spawn(server())
    return sim.spawn(client())


def test_kernel_rendezvous_wakes(benchmark):
    def run():
        sim = Simulator()
        client = rendezvous(sim, 10 * BATCH)
        sim.run()
        return client.result
    assert benchmark(run) == "pong"


def live_functions() -> int:
    return sum(type(obj) is types.FunctionType for obj in gc.get_objects())


def test_sleeps_wakes_and_spawns_build_no_timer_and_no_function(
        monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a plain suspension built a Timer")
    warm = Simulator()
    sleepers(warm, 1), rendezvous(warm, 1), warm.run()
    gc.collect()
    monkeypatch.setattr(sim_module, "Timer", forbidden)
    before = live_functions()
    sim = Simulator()
    sleepers(sim, 2)
    client = rendezvous(sim, BATCH)
    sim.run(until=0.5)      # everyone started; every sleeper is asleep
    # A callback per pending sleep would be SLEEPERS live closures here.
    assert live_functions() == before
    assert len(sim._heap) == SLEEPERS
    assert all(type(target) is sim_module.Process
               for _, _, target, _ in sim._heap)
    sim.run()
    assert sim.now == 2.0 and client.result == "pong"


def x_locks(sim, locks, txn, rows):
    def work():
        for n in rows:
            yield from locks.acquire(txn, ("row", "t", (0, n)), LockMode.X)
    return lambda: sim.run_process(work())


def test_uncontended_x_row_lock_grant(benchmark):
    sim = Simulator()
    locks = LockManager(sim, DBConfig())
    txns = TransactionTable()

    def run():
        txn = txns.begin("RR", 0.0)
        x_locks(sim, locks, txn, range(BATCH))()
        held = txn.lock_count
        locks.release_all(txn)
        return held
    assert benchmark(run) == BATCH + 1


@pytest.mark.parametrize("config, first_checked, escalates_at", [
    # 20 % of 100: the per-transaction share is the tighter bound. The
    # intent lock is entry 1, so row 18 would be entry 20 (still inside)
    # and row 19 entry 21: checked, 20 row locks is not yet over 20, so
    # granted; row 20 makes 21 and escalates.
    (DBConfig(locklist_size=100, maxlocks_fraction=0.2), 19, 20),
    # The lock manager takes its config as given: with a share above 1
    # only the locklist itself can be the bound that is hit.
    (DBConfig(locklist_size=20, maxlocks_fraction=1.5), 19, 19),
])
def test_escalation_is_checked_only_at_the_bounds(monkeypatch, config,
                                                  first_checked,
                                                  escalates_at):
    sim = Simulator()
    locks = LockManager(sim, config)
    txn = TransactionTable().begin("RR", 0.0)
    asked = []
    original = LockManager._should_escalate

    def recording(self, txn, table):
        asked.append(txn.row_lock_count(table))
        return original(self, txn, table)
    monkeypatch.setattr(LockManager, "_should_escalate", recording)
    x_locks(sim, locks, txn, range(first_checked))()
    assert asked == [] and locks.metrics.escalations == 0
    x_locks(sim, locks, txn, range(first_checked, escalates_at + 1))()
    # Asked once per lock from the first one at a bound onward ...
    assert asked == list(range(first_checked, escalates_at + 1))
    # ... and the answer is the one the unconditional check gives.
    assert locks.metrics.escalations == 1
    assert locks.holders_of(("table", "t")) == {txn.id: LockMode.X}
    assert txn.lock_count == 1 and locks.total_locks == 1


class _Txn:
    id, last_lsn, first_lsn = 7, None, None


def test_wal_append(benchmark):
    row = (1, "file", 3, None, "x")

    def run():
        wal, txn = LogManager(capacity=10 * BATCH), _Txn()
        for n in range(BATCH):
            record = wal.append(wal_module.INSERT, txn, table="t",
                                rid=(n // 50, n % 50), before=None,
                                after=row)
        return record
    record = benchmark(run)
    assert record.lsn == BATCH and record.prev_page_lsn == BATCH - 1
    assert not hasattr(record, "__dict__")
