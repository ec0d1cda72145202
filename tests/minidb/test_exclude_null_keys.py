"""``CREATE INDEX … EXCLUDE NULL KEYS``: a key with a NULL column gets
no entry, on every path that adds, removes or rebuilds entries, and
only a probe that binds every key column reads such an index."""

import pytest

from repro.dlfm import schema
from repro.errors import CatalogError, SQLSyntaxError
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb.btree import encode_key
from repro.sql.parser import parse

from tests.conftest import run_until_clean


def make_db(**cfg):
    db = Database(Simulator(seed=5), "nulls", DBConfig(**cfg))
    run(db, "CREATE TABLE t (id INT, a TEXT, b INT)",
        "CREATE UNIQUE INDEX t_id ON t (id)",
        "CREATE INDEX t_ab ON t (a, b) EXCLUDE NULL KEYS")
    return db


def run(db, *statements, commit=True):
    """Run ``statements`` (text or ``(text, params)``) in one transaction."""
    def go():
        session = db.session()
        for statement in statements:
            sql, params = (statement if isinstance(statement, tuple)
                           else (statement, ()))
            yield from session.execute(sql, params)
        if commit:
            yield from session.commit()
        else:
            yield from session.rollback()
    db.sim.run_process(go())


def insert(i, b):
    return ("INSERT INTO t (id, a, b) VALUES (?, ?, ?)", (i, "x", b))


def entries(db, name="t_ab"):
    return sorted(db.btrees[name].items())


def expected(db, name="t_ab"):
    """The entries the index must hold: one per row whose key has no
    NULL column."""
    index = db.catalog.indexes[name]
    return sorted((encode_key(key), rid)
                  for rid, row in db.heaps[index.table].scan()
                  if (key := index.key_of(row)) is not None)


def test_statement_maintenance_adds_no_entry_for_a_null_key():
    db = make_db()
    run(db, insert(1, None), insert(2, 7), insert(3, None))
    assert len(entries(db)) == 1 and entries(db) == expected(db)
    assert len(db.btrees["t_id"]) == 3          # other indexes unchanged
    run(db, ("UPDATE t SET b = ? WHERE id = ?", (5, 1)),    # NULL → key
        ("UPDATE t SET b = NULL WHERE id = ?", (2,)))       # key → NULL
    assert entries(db) == expected(db) and len(entries(db)) == 1
    run(db, ("DELETE FROM t WHERE id = ?", (3,)),
        ("DELETE FROM t WHERE id = ?", (1,)))
    assert entries(db) == [] == expected(db)


def test_rollback_and_statement_undo_leave_no_null_entry():
    db = make_db()
    run(db, insert(1, None), insert(2, 4))
    run(db, insert(3, None), ("UPDATE t SET b = NULL WHERE id = ?", (2,)),
        ("DELETE FROM t WHERE id = ?", (1,)), commit=False)
    assert entries(db) == expected(db) and len(entries(db)) == 1

    def failing_statement():
        session = db.session()
        yield from session.execute(*insert(4, None))
        with pytest.raises(Exception):     # t_id: duplicate key
            yield from session.execute(*insert(2, 9))
        yield from session.execute(
            "UPDATE t SET b = NULL WHERE id = ?", (2,))
        session.savepoint("s")
        yield from session.execute(
            "UPDATE t SET b = ? WHERE id = ?", (6, 4))
        session.rollback_to_savepoint("s")
        yield from session.commit()

    db.sim.run_process(failing_statement())
    assert entries(db) == [] == expected(db)


def test_load_defers_and_merges_only_real_keys():
    db = make_db(next_key_locking=False)
    run(db, insert(1, None), insert(2, 3))
    db.begin_bulk_load("t")
    run(db, *(insert(i, None if i % 2 else i) for i in range(10, 20)))
    run(db, insert(30, None), insert(31, 31), commit=False)  # undone
    assert len(entries(db)) == 1            # the loaded rows wait
    db.sim.run_process(db.end_bulk_load("t"))
    assert entries(db) == expected(db) and len(entries(db)) == 6


def test_create_index_backfills_only_real_keys():
    db = make_db()
    run(db, insert(1, None), insert(2, 8), insert(3, None))
    db.ddl(parse("CREATE INDEX t_b ON t (b) EXCLUDE NULL KEYS"))
    assert entries(db, "t_b") == expected(db, "t_b")
    assert len(entries(db, "t_b")) == 1


@pytest.mark.parametrize("image", [False, True],
                         ids=["log-only", "checkpoint-image"])
def test_restart_repairs_the_index_without_null_entries(image):
    db = make_db()
    run(db, insert(1, None), insert(2, 2))
    if image:
        db.checkpoint()
        run_until_clean(db)
    run(db, insert(3, None), insert(4, 4),
        ("UPDATE t SET b = NULL WHERE id = ?", (2,)),
        ("UPDATE t SET b = ? WHERE id = ?", (1, 1)))
    run(db, insert(5, None), insert(6, 6), commit=False)   # a loser too
    db.crash()
    db.restart()
    run_until_clean(db)
    assert entries(db) == expected(db) and len(entries(db)) == 2


def test_only_a_probe_binding_every_key_column_reads_the_index():
    db = make_db()
    db.set_table_stats("t", card=1_000_000, npages=40_000,
                       colcard={"a": 1_000_000, "b": 1_000_000})
    run(db, insert(1, None), insert(2, 2))
    assert db.explain("SELECT id FROM t WHERE a = ? AND b = ?")["index"] \
        == "t_ab"
    assert db.explain("SELECT id FROM t WHERE a = ?")["access"] \
        == "table_scan"

    def by_a():
        session = db.session()
        result = yield from session.execute(
            "SELECT id FROM t WHERE a = ?", ("x",))
        yield from session.commit()
        return sorted(result.rows)

    assert db.sim.run_process(by_a()) == [(1,), (2,)]


def test_the_clause_is_for_non_unique_indexes_only():
    db = make_db()
    with pytest.raises(CatalogError):
        db.ddl(parse("CREATE UNIQUE INDEX u ON t (a) EXCLUDE NULL KEYS"))
    with pytest.raises(SQLSyntaxError):
        parse("CREATE INDEX u ON t (a) EXCLUDE NULL")


def test_a_dfm_file_text_binding_only_dbid_never_reads_the_unlink_index():
    """Even where a ``dbid`` prefix probe would be cheapest, the DLFM's
    NULL-free index is not its path, and the linked rows (``unlink_txn``
    NULL) come back."""
    db = Database(Simulator(seed=5), "dlfm", DBConfig())
    schema.create_schema(db, db.sim)
    db.set_table_stats("dfm_file", card=1_000_000, npages=40_000,
                       colcard={"dbid": 1_000_000})
    columns = ("filename, dbid, grp_id, recovery_id, link_txn, state, "
               "check_flag")
    run(db, *((f"INSERT INTO dfm_file ({columns}) VALUES "
               "(?, ?, 1, ?, 7, ?, ?)",
               (f"/f{i}", "hostdb", f"r{i}", schema.ST_LINKED,
                schema.LINKED_FLAG)) for i in range(3)))
    assert len(entries(db, "dfm_file_unlink_txn")) == 0
    sql = "SELECT filename FROM dfm_file WHERE dbid = ?"
    assert db.explain(sql)["index"] != "dfm_file_unlink_txn"

    def by_dbid():
        session = db.session()
        result = yield from session.execute(sql, ("hostdb",))
        yield from session.commit()
        return sorted(result.rows)

    assert db.sim.run_process(by_dbid()) == [("/f0",), ("/f1",), ("/f2",)]
