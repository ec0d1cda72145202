"""RR vs RS vs CS isolation semantics, the FOR SHARE fence, plus DROP
INDEX and the measured Fig-4 claim that SQL commit acquires no locks."""

import pytest

from repro.errors import CatalogError, SQLTypeError, TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.locks import LockMode


def make_db(sim, **cfg):
    db = Database(sim, "iso", DBConfig(**cfg))

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


def test_rr_blocks_phantoms_rs_and_cs_do_not():
    outcomes = {}
    for isolation in ("RR", "RS", "CS"):
        sim = Simulator()
        db = make_db(sim, isolation=isolation, next_key_locking=True)
        result = {}

        def scanner():
            session = db.session(isolation)
            first = yield from session.execute(
                "SELECT COUNT(*) FROM t WHERE k >= 20 AND k <= 30")
            yield Timeout(5.0)
            second = yield from session.execute(
                "SELECT COUNT(*) FROM t WHERE k >= 20 AND k <= 30")
            yield from session.commit()
            result["counts"] = (first.scalar(), second.scalar())

        def inserter():
            session = db.session()
            yield Timeout(1.0)
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (25, 0)")
            yield from session.commit()
            result["inserted_at"] = sim.now

        sim.spawn(scanner())
        sim.spawn(inserter())
        sim.run()
        outcomes[isolation] = result

    # RR: phantom prevented — both scans equal, inserter waited
    assert outcomes["RR"]["counts"][0] == outcomes["RR"]["counts"][1]
    assert outcomes["RR"]["inserted_at"] >= 5.0
    # RS / CS: the phantom appears; the inserter was never blocked
    for isolation in ("RS", "CS"):
        first, second = outcomes[isolation]["counts"]
        assert second == first + 1
        assert outcomes[isolation]["inserted_at"] == 1.0


def test_rs_holds_read_locks_cs_does_not():
    outcomes = {}
    for isolation in ("RS", "CS"):
        sim = Simulator()
        db = make_db(sim, isolation=isolation, next_key_locking=False)
        result = {}

        def reader():
            session = db.session(isolation)
            yield from session.execute("SELECT v FROM t WHERE k = 3")
            yield Timeout(5.0)
            yield from session.commit()

        def writer():
            session = db.session()
            yield Timeout(1.0)
            yield from session.execute("UPDATE t SET v = 9 WHERE k = 3")
            yield from session.commit()
            result["written_at"] = sim.now

        sim.spawn(reader())
        sim.spawn(writer())
        sim.run()
        outcomes[isolation] = result["written_at"]

    assert outcomes["RS"] == 5.0   # read lock held to commit
    assert outcomes["CS"] == 1.0   # read lock released at statement end


def test_sql_commit_acquires_no_locks_measured():
    """Figure 4, measured: between the last statement and the end of
    commit, the lock manager sees zero new acquire calls."""
    sim = Simulator()
    db = make_db(sim)

    def go():
        session = db.session()
        yield from session.execute("UPDATE t SET v = 1 WHERE k = 1")
        before = db.locks.metrics.acquires
        yield from session.commit()
        return db.locks.metrics.acquires - before

    assert sim.run_process(go()) == 0


def test_drop_index_removes_access_path():
    sim = Simulator()
    db = make_db(sim)
    assert db.explain("SELECT v FROM t WHERE k = 1")["access"] == \
        "index_scan"

    def drop():
        session = db.session()
        yield from session.execute("DROP INDEX t_k")

    sim.run_process(drop())
    assert db.explain("SELECT v FROM t WHERE k = 1")["access"] == \
        "table_scan"
    with pytest.raises(CatalogError):
        db.catalog.require_index("t_k")


def test_drop_unknown_index_raises():
    sim = Simulator()
    db = make_db(sim)

    def drop():
        session = db.session()
        with pytest.raises(CatalogError):
            yield from session.execute("DROP INDEX nope")
        return True

    assert sim.run_process(drop()) is True


@pytest.mark.parametrize("scan", [
    "SELECT k FROM t WHERE v = 99",
    "UPDATE t SET v = 1 WHERE v = 99",
    "DELETE FROM t WHERE v = 99",
])
def test_cs_scan_keeps_the_transactions_own_write_lock(scan):
    """A CS scan unlocks the non-qualifying rows *it* locked — never a
    row the transaction had already written: the table scan examines
    k=3 (v=7, does not qualify) and must leave its X lock alone."""
    sim = Simulator()
    db = make_db(sim, isolation="CS", next_key_locking=False)
    seen = {}

    def writer():
        session = db.session("CS")
        yield from session.execute("UPDATE t SET v = 7 WHERE k = 3")
        held = [r for r in db.locks.heads if r[0] == "row"]
        assert db.explain(scan)["access"] == "table_scan"
        yield from session.execute(scan)
        assert [r for r in db.locks.heads if r[0] == "row"] == held
        assert db.locks.holders_of(held[0]) == {session.txn.id: LockMode.X}
        yield Timeout(5.0)
        yield from session.rollback()

    def reader():
        session = db.session("CS")
        yield Timeout(1.0)
        seen["v"] = yield from session.query_one("SELECT v FROM t WHERE k = 3")
        seen["at"] = sim.now
        yield from session.commit()

    sim.spawn(writer())
    sim.spawn(reader())
    sim.run()
    assert seen == {"v": (0,), "at": 5.0}    # never the dirty 7


@pytest.mark.parametrize("statement", [
    "UPDATE s SET b = b + 10 WHERE b IN (0, 1, a + 0)",
    "DELETE FROM s WHERE b IN (0, 1, a + 0)"])
def test_cs_write_that_fails_midway_keeps_x_and_earlier_locks(statement):
    """Rows 0 and 1 qualify and are X-locked before ``a + 0`` raises on
    row 2 (the IN list stops at the first option that matches, so rows
    0 and 1 never reach it): the statement is undone but strict 2PL
    keeps those X locks,
    and the X lock an earlier statement took on row 4 stays too — only
    the scan's own S locks on rows 2 and 3 go."""
    sim = Simulator()
    db = Database(sim, "iso", DBConfig(isolation="CS"))

    def go():
        session = db.session()
        yield from session.execute("CREATE TABLE s (a TEXT, b INT)")
        for b in range(5):
            yield from session.execute(
                "INSERT INTO s (a, b) VALUES (?, ?)", (f"a{b}", b))
        yield from session.commit()
        yield from session.execute("UPDATE s SET b = b WHERE b = 4")
        held = {r for r in session.txn._locks if r[0] == "row"}
        assert len(held) == 1
        with pytest.raises(SQLTypeError, match="arithmetic on str/int"):
            yield from session.execute(statement)
        rows = {r for r in session.txn._locks if r[0] == "row"}
        assert len(rows) == 3 and held < rows
        assert all(db.locks.holders_of(r)[session.txn.id] == LockMode.X
                   for r in rows - held)
        assert sorted(db.table_rows("s")) == [
            (f"a{b}", b) for b in range(5)]          # statement undone
        yield from session.commit()
        assert db.locks.heads == {}

    sim.run_process(go())


@pytest.mark.parametrize("contended", [False, True])
def test_cs_select_that_fails_releases_its_scan_locks(contended):
    """``a = 1`` with ``a TEXT`` raises on the first row examined; the
    rows the scan had S-locked must not stay locked until commit — for a
    SELECT, and for an UPDATE or DELETE whose loop never got to them.
    ``contended``: another reader holds S on a row, so the scan really
    takes its locks one by one (no avoidance, DESIGN §9)."""
    for statement, intent in (
            ("SELECT b FROM s WHERE a = 1", LockMode.IS),
            ("UPDATE s SET b = 9 WHERE a = 1", LockMode.IX),
            ("DELETE FROM s WHERE a = 1", LockMode.IX)):
        sim = Simulator()
        db = Database(sim, "iso", DBConfig(isolation="CS"))

        def go():
            session = db.session()
            yield from session.execute("CREATE TABLE s (a TEXT, b INT)")
            for b in range(5):
                yield from session.execute(
                    "INSERT INTO s (a, b) VALUES (?, ?)", (f"a{b}", b))
            yield from session.commit()
            other = db.session("RS")
            others = 0
            if contended:
                yield from other.execute("SELECT b FROM s WHERE b = 2")
                others = other.txn.lock_count
            with pytest.raises(SQLTypeError,
                               match="cannot compare str = int"):
                yield from session.execute(statement)
            assert session.txn.lock_count == 1, statement  # table intent
            assert db.locks.holders_of(("table", "s"))[session.txn.id] \
                == intent
            assert db.locks.total_locks == others + 1
            yield from session.commit()
            yield from other.commit()
            assert db.locks.heads == {}

        sim.run_process(go())


# ------------------------------------------------- FOR SHARE: the shared fence

SHARE = "SELECT v FROM t WHERE k = 6 FOR SHARE"


def _row_holders(db):
    """txn id → mode over every held row lock of ``t``."""
    return {txn: mode for resource in db.locks.heads
            if resource[:2] == ("row", "t")
            for txn, mode in db.locks.holders_of(resource).items()}


def test_for_share_readers_overlap_and_a_writer_waits_for_both():
    """Two fence holders never wait for each other; a writer of the row
    waits for the last of them (with FOR UPDATE the second reader would
    read at t=5; with an S lock dropped at statement end the writer
    would be done at t=2)."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    at = {}

    def reader(name, start):
        session = db.session()
        yield Timeout(start)
        row = yield from session.execute(SHARE)
        at[name] = (sim.now, row.scalar())
        yield Timeout(5.0)
        yield from session.commit()

    def writer():
        session = db.session()
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


def test_for_share_is_a_current_read_behind_an_earlier_writer():
    """A writer that got there first is waited for, and both fence
    holders see what it committed and are granted together. A fence
    that arrives behind a *waiting* writer queues behind it (FIFO): no
    stream of linkers starves a dropper."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    at = {}

    def writer(name, start, value, hold):
        session = db.session()
        yield Timeout(start)
        yield from session.execute("UPDATE t SET v = ? WHERE k = 6",
                                   (value,))
        at[name] = sim.now
        yield Timeout(hold)
        yield from session.commit()

    def reader(name, start):
        session = db.session()
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


@pytest.mark.parametrize("end", ["commit", "rollback"])
def test_for_share_lock_outlives_the_statement_not_the_transaction(end):
    sim = Simulator()
    db = make_db(sim, isolation="CS")
    seen = []

    def go():
        session = db.session()
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


def test_fence_holder_that_writes_the_row_upgrades_and_commits():
    """Link into a group, then drop it, in one transaction: S -> X is an
    ordinary conversion. Two holders converting at once deadlock like
    any conversion pair; the victim's abort is retriable."""
    sim = Simulator()
    db = make_db(sim, isolation="CS")

    def alone():
        session = db.session()
        yield from session.execute(SHARE)
        yield from session.execute("UPDATE t SET v = 1 WHERE k = 6")
        held = _row_holders(db)
        yield from session.commit()
        return held

    assert set(sim.run_process(alone()).values()) == {LockMode.X}
    outcomes = []

    def converter(value):
        session = db.session()
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
