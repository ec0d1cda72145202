"""Concurrent SQL behaviour: isolation, next-key locking, blocking writes.

These tests exercise the exact engine mechanics that the paper's lessons
(and our experiments E3/E4/E5) are built on.
"""


import math

import pytest

from repro.errors import TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig


def make_db(sim, **cfg):
    config = DBConfig(**cfg)
    db = Database(sim, "t", config)

    def setup():
        session = db.session()
        yield from session.execute(
            "CREATE TABLE f (id INT, name TEXT, state TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX f_name ON f (name)")
        yield from session.execute("CREATE INDEX f_state ON f (state)")
        for i in range(20):
            yield from session.execute(
                "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
                (i, f"n{i:03d}", "linked"))
        yield from session.commit()
        # Hand-craft statistics the way tuned DLFM does (E4): otherwise the
        # optimizer would pick table scans on this small table and every
        # statement would serialize behind full-table row locks.
        db.set_table_stats("f", card=1_000_000,
                           colcard={"name": 1_000_000, "state": 5})

    sim.run_process(setup())
    return db


def test_writer_blocks_reader_until_commit():
    sim = Simulator()
    db = make_db(sim)
    trace = []

    def writer():
        session = db.session()
        yield from session.execute(
            "UPDATE f SET state = 'x' WHERE name = 'n005'")
        yield Timeout(5.0)
        yield from session.commit()
        trace.append(("committed", sim.now))

    def reader():
        session = db.session()
        yield Timeout(1.0)
        result = yield from session.execute(
            "SELECT state FROM f WHERE name = 'n005'")
        yield from session.commit()
        trace.append(("read", result.scalar(), sim.now))

    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    assert trace == [("committed", 5.0), ("read", "x", 5.0)]


def test_no_dirty_read_of_rolled_back_update():
    sim = Simulator()
    db = make_db(sim)
    seen = {}

    def writer():
        session = db.session()
        yield from session.execute(
            "UPDATE f SET state = 'dirty' WHERE name = 'n003'")
        yield Timeout(3.0)
        yield from session.rollback()

    def reader():
        session = db.session()
        yield Timeout(1.0)
        result = yield from session.execute(
            "SELECT state FROM f WHERE name = 'n003'")
        yield from session.commit()
        seen["state"] = result.scalar()

    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    assert seen["state"] == "linked"


def test_rr_readers_block_writer():
    sim = Simulator()
    db = make_db(sim, isolation="RR")
    trace = []

    def reader():
        session = db.session("RR")
        yield from session.execute("SELECT * FROM f WHERE name = 'n001'")
        yield Timeout(4.0)  # RR: S lock held until commit
        yield from session.commit()

    def writer():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute("DELETE FROM f WHERE name = 'n001'")
        yield from session.commit()
        trace.append(("deleted", sim.now))

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    assert trace == [("deleted", 4.0)]


def test_cs_readers_release_locks_at_statement_end():
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    trace = []

    def reader():
        session = db.session("CS")
        yield from session.execute("SELECT * FROM f WHERE name = 'n001'")
        yield Timeout(4.0)  # CS: read locks already released
        yield from session.commit()

    def writer():
        session = db.session("CS")
        yield Timeout(1.0)
        yield from session.execute("DELETE FROM f WHERE name = 'n001'")
        yield from session.commit()
        trace.append(("deleted", sim.now))

    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    assert trace == [("deleted", 1.0)]


def test_rr_phantom_protection_blocks_insert_into_scanned_range():
    """Next-key locking under RR prevents phantoms (when enabled)."""
    sim = Simulator()
    db = make_db(sim, isolation="RR", next_key_locking=True)
    trace = []

    def scanner():
        session = db.session("RR")
        result = yield from session.execute(
            "SELECT COUNT(*) FROM f WHERE name > 'n005' AND name < 'n010'")
        yield Timeout(5.0)
        again = yield from session.execute(
            "SELECT COUNT(*) FROM f WHERE name > 'n005' AND name < 'n010'")
        yield from session.commit()
        trace.append(("counts", result.scalar(), again.scalar()))

    def inserter():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute(
            "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
            (100, "n007x", "linked"))
        yield from session.commit()
        trace.append(("inserted", sim.now))

    sim.spawn(scanner())
    sim.spawn(inserter())
    sim.run()
    counts = next(t for t in trace if t[0] == "counts")
    assert counts[1] == counts[2]  # repeatable read held
    inserted = next(t for t in trace if t[0] == "inserted")
    assert inserted[1] >= 5.0  # insert waited for scanner commit


def test_nkl_off_allows_phantoms_under_rr():
    sim = Simulator()
    db = make_db(sim, isolation="RR", next_key_locking=False)
    trace = []

    def scanner():
        session = db.session("RR")
        first = yield from session.execute(
            "SELECT COUNT(*) FROM f WHERE name > 'n005' AND name < 'n010'")
        yield Timeout(5.0)
        second = yield from session.execute(
            "SELECT COUNT(*) FROM f WHERE name > 'n005' AND name < 'n010'")
        yield from session.commit()
        trace.append((first.scalar(), second.scalar()))

    def inserter():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute(
            "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
            (100, "n007x", "linked"))
        yield from session.commit()

    sim.spawn(scanner())
    sim.spawn(inserter())
    sim.run()
    first, second = trace[0]
    assert second == first + 1  # phantom appeared — NKL was off


def test_nkl_on_concurrent_adjacent_inserts_can_deadlock():
    """Lesson E3's mechanism: multi-index next-key X locks collide."""
    sim = Simulator()
    db = make_db(sim, next_key_locking=True)
    outcomes = []

    def inserter(name, state, delay):
        session = db.session()
        yield Timeout(delay)
        try:
            # Two statements → two opportunities to interleave next-key
            # locks in f_name and f_state in opposite orders.
            yield from session.execute(
                "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
                (200 + delay, name, state))
            yield Timeout(0.2)
            yield from session.execute(
                "UPDATE f SET state = ? WHERE name = ?", (state + "2", name))
            yield from session.commit()
            outcomes.append("ok")
        except TransactionAborted as err:
            outcomes.append(err.reason)

    sim.spawn(inserter("n0005", "linked", 0))
    sim.spawn(inserter("n0006", "linked", 0))
    sim.run()
    # With NKL on, adjacent keys share next-key locks: at least one
    # transaction blocks; depending on order one may die.
    assert len(outcomes) == 2


def test_nkl_off_concurrent_adjacent_inserts_proceed():
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)
    outcomes = []

    def inserter(name):
        session = db.session()
        yield from session.execute(
            "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
            (300, name, "linked"))
        yield from session.commit()
        outcomes.append("ok")

    sim.spawn(inserter("p001"))
    sim.spawn(inserter("p002"))
    sim.run()
    assert outcomes == ["ok", "ok"]
    assert db.locks.metrics.deadlocks == 0


def test_deadlock_via_sql_updates_opposite_order():
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)
    outcomes = []

    def txn(first, second, delay):
        session = db.session()
        try:
            yield from session.execute(
                "UPDATE f SET state = 'a' WHERE name = ?", (first,))
            yield Timeout(1.0 + delay)
            yield from session.execute(
                "UPDATE f SET state = 'b' WHERE name = ?", (second,))
            yield from session.commit()
            outcomes.append("ok")
        except TransactionAborted as err:
            outcomes.append(err.reason)

    sim.spawn(txn("n001", "n002", 0.0))
    sim.spawn(txn("n002", "n001", 0.1))
    sim.run()
    assert sorted(outcomes) == ["deadlock", "ok"]
    assert db.metrics.aborts_by_reason.get("deadlock") == 1


def _read_then_update(select_sql: str):
    """Two RR transactions read row n001 (holding their locks), pause,
    then both update it."""
    sim = Simulator()
    db = make_db(sim, isolation="RR", next_key_locking=False)
    outcomes = []

    def txn(value):
        session = db.session()
        try:
            yield from session.execute(select_sql)
            yield Timeout(1.0)
            yield from session.execute(
                "UPDATE f SET state = ? WHERE name = 'n001'", (value,))
            yield from session.commit()
            outcomes.append("ok")
        except TransactionAborted as error:
            outcomes.append(error.reason)
            yield from session.rollback()

    sim.spawn(txn("a"))
    sim.spawn(txn("b"))
    sim.run()
    return sorted(outcomes), db


def test_plain_read_then_update_conversion_deadlock():
    """Both readers hold S, both convert to X: a conversion deadlock."""
    outcomes, db = _read_then_update(
        "SELECT state FROM f WHERE name = 'n001'")
    assert outcomes == ["deadlock", "ok"]
    assert db.locks.metrics.deadlocks == 1


def test_for_update_with_x_also_avoids_deadlock_but_blocks_readers():
    """FOR UPDATE takes X up front: the second cursor waits for the
    first's commit instead of deadlocking with it..."""
    outcomes, db = _read_then_update(
        "SELECT state FROM f WHERE name = 'n001' FOR UPDATE")
    assert outcomes == ["ok", "ok"]
    assert db.locks.metrics.deadlocks == 0


def test_for_update_cursor_blocks_plain_readers():
    """...and a plain reader waits out the cursor's whole transaction."""
    sim = Simulator()
    db = make_db(sim, isolation="CS", next_key_locking=False)
    done = {}

    def cursor_holder():
        session = db.session()
        yield from session.execute(
            "SELECT state FROM f WHERE name = 'n001' FOR UPDATE")
        yield Timeout(10.0)   # think before deciding to update
        yield from session.commit()

    def reader():
        session = db.session()
        yield Timeout(1.0)
        yield from session.execute("SELECT state FROM f WHERE name = 'n001'")
        yield from session.commit()
        done["at"] = sim.now

    sim.spawn(cursor_holder())
    sim.spawn(reader())
    sim.run()
    assert done["at"] == 10.0


def test_lock_timeout_via_sql():
    sim = Simulator()
    db = make_db(sim, lock_timeout=3.0, next_key_locking=False)
    outcomes = []

    def holder():
        session = db.session()
        yield from session.execute(
            "UPDATE f SET state = 'z' WHERE name = 'n001'")
        yield Timeout(100.0)
        yield from session.commit()

    def victim():
        session = db.session()
        yield Timeout(1.0)
        try:
            yield from session.execute(
                "UPDATE f SET state = 'y' WHERE name = 'n001'")
        except TransactionAborted as err:
            outcomes.append((err.reason, sim.now))

    sim.spawn(holder())
    sim.spawn(victim())
    sim.run(until=50.0)
    assert outcomes == [("timeout", 4.0)]


def test_unique_check_race_closed_without_nkl():
    """Two concurrent inserts of the same key: one wins, one gets the
    duplicate error (the unique-index race closure DLFM relies on)."""
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)
    outcomes = []

    def inserter():
        from repro.errors import DuplicateKeyError
        session = db.session()
        try:
            yield from session.execute(
                "INSERT INTO f (id, name, state) VALUES (?, ?, ?)",
                (400, "same-name", "linked"))
            yield from session.commit()
            outcomes.append("ok")
        except DuplicateKeyError:
            yield from session.rollback()
            outcomes.append("dup")

    sim.spawn(inserter())
    sim.spawn(inserter())
    sim.run()
    assert sorted(outcomes) == ["dup", "ok"]

    def count():
        session = db.session()
        result = yield from session.execute(
            "SELECT COUNT(*) FROM f WHERE name = 'same-name'")
        yield from session.commit()
        return result.scalar()

    assert sim.run_process(count()) == 1


def test_escalation_under_sql_table_scan_blocks_everyone():
    sim = Simulator()
    db = make_db(sim, locklist_size=30, maxlocks_fraction=0.3,
                 lock_timeout=5.0, isolation="RR")
    outcomes = []

    def big_scanner():
        session = db.session("RR")
        # 20 rows > 9-lock threshold → escalates to table S
        yield from session.execute("SELECT * FROM f")
        yield Timeout(20.0)
        yield from session.commit()

    def writer():
        session = db.session()
        yield Timeout(1.0)
        try:
            yield from session.execute(
                "UPDATE f SET state = 'w' WHERE name = 'n001'")
            outcomes.append(("ok", sim.now))
        except TransactionAborted as err:
            outcomes.append((err.reason, sim.now))

    sim.spawn(big_scanner())
    sim.spawn(writer())
    sim.run(until=60.0)
    assert db.locks.metrics.escalations >= 1
    assert outcomes[0][0] == "timeout"


# ------------------------------------------------------------- the slot rule

def _rid_of(db, name):
    return next(rid for rid, row in db.heaps["f"].scan() if row[1] == name)


@pytest.mark.parametrize("end", ["commit", "rollback"])
def test_insert_does_not_queue_for_an_uncommitted_deleters_slot(end):
    """The lowest free slot belongs to a DELETE that has not committed:
    an INSERT lands on the next free slot at once instead of waiting out
    somebody else's commit for space (DB2 never reuses space freed by an
    uncommitted delete). The deleter's ROLLBACK finds its slot untouched;
    once it has committed, the slot is reused as before."""
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)   # as the DLFM runs it
    heap = db.heaps["f"]
    freed = _rid_of(db, "n005")
    original = heap.fetch(freed)
    at = {}

    def deleter():
        session = db.session()
        yield from session.execute("DELETE FROM f WHERE name = 'n005'")
        yield Timeout(5.0)
        yield from getattr(session, end)()

    def inserter(name, start):
        session = db.session()
        yield Timeout(start)
        yield from session.execute(
            "INSERT INTO f (id, name, state) VALUES (99, ?, 'linked')",
            (name,))
        at[name] = (sim.now, _rid_of(db, name))
        yield from session.commit()

    sim.spawn(deleter())
    sim.spawn(inserter("early", 1.0))
    sim.spawn(inserter("late", 6.0))
    sim.run()
    assert db.locks.metrics.waits == 0
    assert at["early"][0] == 1.0 and at["early"][1] != freed
    if end == "rollback":
        assert heap.fetch(freed) == original          # byte for byte
        assert at["late"][1] not in (freed, at["early"][1])
    else:
        assert at["late"] == (6.0, freed)             # committed: reused
    assert heap.nrows == (22 if end == "rollback" else 21)


def test_an_insert_reuses_the_slot_its_own_transaction_freed():
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)   # as the DLFM runs it
    freed = _rid_of(db, "n005")

    def go():
        session = db.session()
        yield from session.execute("DELETE FROM f WHERE name = 'n005'")
        yield from session.execute(
            "INSERT INTO f (id, name, state) VALUES (99, 'mine', 'linked')")
        yield from session.commit()

    sim.run_process(go())
    assert _rid_of(db, "mine") == freed


def test_churn_under_the_slot_rule_does_not_grow_the_heap():
    """10 000 insert/delete pairs from 8 sessions whose deletes stay
    uncommitted while the others insert: skipped slots are reused as
    soon as their deleter commits, so the heap never needs more than the
    live rows plus one slot per session — and stays within a page of
    that."""
    sim = Simulator()
    db = make_db(sim, next_key_locking=False)   # as the DLFM runs it
    heap = db.heaps["f"]
    sessions, pairs = 8, 1_250
    peak = {"pages": 0, "rows": 0}

    def churn(cid):
        session = db.session()
        for n in range(pairs):
            name = f"c{cid}-{n}"
            yield from session.execute(
                "INSERT INTO f (id, name, state) VALUES (?, ?, 'linked')",
                (n, name))
            yield from session.commit()
            yield Timeout(0.001 * (cid + 1))
            yield from session.execute(
                "DELETE FROM f WHERE name = ?", (name,))
            yield Timeout(0.003)       # the others insert meanwhile
            yield from session.commit()
            peak["pages"] = max(peak["pages"], heap.npages)
            peak["rows"] = max(peak["rows"], heap.nrows)

    for cid in range(sessions):
        sim.spawn(churn(cid))
    sim.run()
    assert heap.nrows == 20 and db.metrics.rows_inserted >= sessions * pairs
    need = math.ceil((peak["rows"] + sessions) / heap.rows_per_page)
    assert peak["pages"] <= need + 1
    assert db.locks.metrics.waits == 0
