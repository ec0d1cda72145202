"""Database.explain: report access paths without executing."""

import pytest

from repro.minidb import Database, DBConfig


@pytest.fixture
def db(sim):
    db = Database(sim, "ex", DBConfig())

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (a INT, b TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_a ON t (a)")
        for i in range(10):
            yield from session.execute(
                "INSERT INTO t (a, b) VALUES (?, 'x')", (i,))
        yield from session.commit()

    sim.run_process(setup())
    return db


def test_explain_select_reports_plan(db):
    info = db.explain("SELECT * FROM t WHERE a = 1")
    assert info["kind"] == "select"
    assert info["access"] == "table_scan"   # default stats: card=0
    assert info["cost"] is not None


def test_explain_reflects_statistics(db):
    db.set_table_stats("t", card=1_000_000, colcard={"a": 1_000_000})
    info = db.explain("SELECT * FROM t WHERE a = 1")
    assert info["access"] == "index_scan"
    assert info["index"] == "t_a"


def test_explain_update_and_delete(db):
    assert db.explain("UPDATE t SET b = 'y' WHERE a = 1")["kind"] == "update"
    assert db.explain("DELETE FROM t WHERE a = 1")["kind"] == "delete"


def test_explain_insert(db):
    info = db.explain("INSERT INTO t (a, b) VALUES (99, 'z')")
    assert info == {"kind": "insert"}   # no access path


def test_explain_does_not_execute(db):
    db.explain("DELETE FROM t")
    def count():
        session = db.session()
        result = yield from session.execute("SELECT COUNT(*) FROM t")
        yield from session.commit()
        return result.scalar()
    assert db.sim.run_process(count()) == 10  # nothing was deleted


def test_explain_takes_no_locks(db):
    db.explain("SELECT * FROM t WHERE a = 1")
    assert db.locks.heads == {}
    assert not db.txns.active   # no transaction even began
