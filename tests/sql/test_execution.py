"""End-to-end SQL execution through sessions (single client)."""

import pytest

from repro.errors import (DuplicateKeyError, SQLTypeError, TransactionAborted)
from repro.minidb import Database, DBConfig

from tests.conftest import setup_files_table


def run1(db, gen):
    return db.sim.run_process(gen)


@pytest.fixture
def loaded(sim):
    db = Database(sim, "t", DBConfig())

    def setup():
        yield from setup_files_table(db, rows=50)

    sim.run_process(setup())
    return db


def q(db, sql, params=()):
    def go():
        session = db.session()
        result = yield from session.execute(sql, params)
        yield from session.commit()
        return result
    return db.sim.run_process(go())


def test_select_star_returns_all_columns(loaded):
    result = q(loaded, "SELECT * FROM files WHERE id = 7")
    assert result.columns == ["id", "name", "size", "state"]
    assert result.rows == [(7, "file-00007", 70, "free")]


def test_select_projection_order(loaded):
    result = q(loaded, "SELECT size, id FROM files WHERE id = 3")
    assert result.rows == [(30, 3)]


def test_where_with_params(loaded):
    result = q(loaded, "SELECT id FROM files WHERE name = ?", ("file-00010",))
    assert result.scalar() == 10


def test_missing_param_raises(loaded):
    with pytest.raises(SQLTypeError):
        q(loaded, "SELECT id FROM files WHERE name = ?")


def test_in_and_between(loaded):
    """IN, and BETWEEN's two-sided form ``>= ? AND <= ?``."""
    result = q(loaded, "SELECT id FROM files WHERE id IN (1, 2, 99)")
    assert sorted(r[0] for r in result) == [1, 2]
    result = q(loaded, "SELECT id FROM files WHERE id >= ? AND id <= ?",
               (47, 48))
    assert sorted(r[0] for r in result) == [47, 48]


def test_null_comparison_is_unknown_not_match(loaded):
    def go():
        session = loaded.session()
        yield from session.execute(
            "INSERT INTO files (id, name, size, state) VALUES (?, ?, ?, ?)",
            (999, "nullsize", None, "free"))
        result = yield from session.execute(
            "SELECT COUNT(*) FROM files WHERE size < 100000")
        yield from session.commit()
        return result
    result = loaded.sim.run_process(go())
    assert result.scalar() == 50  # NULL row excluded


def test_order_by_desc_and_limit(loaded):
    result = q(loaded, "SELECT id FROM files ORDER BY id DESC LIMIT 3")
    assert [r[0] for r in result] == [49, 48, 47]


def test_order_by_text_column(loaded):
    result = q(loaded, "SELECT name FROM files ORDER BY name LIMIT 2")
    assert [r[0] for r in result] == ["file-00000", "file-00001"]


def test_aggregates(loaded):
    result = q(loaded, "SELECT COUNT(*) FROM files WHERE id < 20")
    assert (result.columns, result.rows) == (["count"], [(20,)])
    with pytest.raises(SQLTypeError, match="GROUP BY"):
        q(loaded, "SELECT COUNT(*), id FROM files")


def test_aggregate_on_empty_set(loaded):
    result = q(loaded, "SELECT COUNT(*) FROM files WHERE id > 1000")
    assert result.rows == [(0,)]


def test_update_rowcount_and_effect(loaded):
    count = q(loaded, "UPDATE files SET state = 'hot' WHERE id < 5")
    assert count == 5
    result = q(loaded, "SELECT COUNT(*) FROM files WHERE state = 'hot'")
    assert result.scalar() == 5


def test_delete_rowcount(loaded):
    count = q(loaded, "DELETE FROM files WHERE id >= 45")
    assert count == 5
    assert q(loaded, "SELECT COUNT(*) FROM files").scalar() == 45


def test_unique_index_violation_is_statement_error_not_txn_abort(loaded):
    def go():
        session = loaded.session()
        yield from session.execute(
            "INSERT INTO files (id, name, size, state) VALUES (?, ?, ?, ?)",
            (100, "newfile", 0, "free"))
        with pytest.raises(DuplicateKeyError):
            yield from session.execute(
                "INSERT INTO files (id, name, size, state) VALUES (?, ?, ?, ?)",
                (101, "file-00001", 0, "free"))  # duplicate name
        # transaction still usable; first insert survives
        result = yield from session.execute(
            "SELECT COUNT(*) FROM files WHERE name = 'newfile'")
        yield from session.commit()
        return result.scalar()
    assert loaded.sim.run_process(go()) == 1


def test_statement_rollback_undoes_partial_update(loaded):
    def go():
        session = loaded.session()
        # size = size + 1 works for rows until it hits the TEXT misuse row
        yield from session.execute(
            "INSERT INTO files (id, name, size, state) VALUES (?, ?, ?, ?)",
            (777, "texty", 5, "free"))
        with pytest.raises(SQLTypeError):
            yield from session.execute(
                "UPDATE files SET size = name WHERE id < 10")
        result = yield from session.execute(
            "SELECT id, size FROM files WHERE id < 10")
        yield from session.commit()
        return sorted(result.rows)
    assert loaded.sim.run_process(go()) == [(i, 10 * i) for i in range(10)]


def test_rollback_undoes_everything(loaded):
    def go():
        session = loaded.session()
        yield from session.execute("DELETE FROM files WHERE id < 25")
        yield from session.rollback()
        result = yield from session.execute("SELECT COUNT(*) FROM files")
        yield from session.commit()
        return result.scalar()
    assert loaded.sim.run_process(go()) == 50


def test_savepoint_partial_rollback(loaded):
    def go():
        session = loaded.session()
        yield from session.execute("DELETE FROM files WHERE id = 0")
        session.savepoint("sp1")
        yield from session.execute("DELETE FROM files WHERE id = 1")
        session.rollback_to_savepoint("sp1")
        result = yield from session.execute("SELECT COUNT(*) FROM files")
        yield from session.commit()
        return result.scalar()
    assert loaded.sim.run_process(go()) == 49  # only id=0 gone


def test_except_difference(loaded):
    def go():
        session = loaded.session()
        yield from session.execute("CREATE TABLE expected (name TEXT)")
        for i in range(3):
            yield from session.execute(
                "INSERT INTO expected (name) VALUES (?)", (f"file-{i:05d}",))
        result = yield from session.execute(
            "SELECT name FROM expected EXCEPT SELECT name FROM files")
        yield from session.commit()
        return result
    result = loaded.sim.run_process(go())
    assert result.rows == []  # every expected name exists in files


def test_except_finds_missing(loaded):
    def go():
        session = loaded.session()
        yield from session.execute("CREATE TABLE expected (name TEXT)")
        yield from session.execute(
            "INSERT INTO expected (name) VALUES ('ghost')")
        result = yield from session.execute(
            "SELECT name FROM expected EXCEPT SELECT name FROM files")
        yield from session.commit()
        return result
    assert loaded.sim.run_process(go()).rows == [("ghost",)]


def test_query_one(loaded):
    def go():
        session = loaded.session()
        row = yield from session.query_one(
            "SELECT id FROM files WHERE name = ?", ("file-00002",))
        missing = yield from session.query_one(
            "SELECT id FROM files WHERE name = ?", ("nope",))
        yield from session.commit()
        return row, missing
    assert loaded.sim.run_process(go()) == ((2,), None)


def test_typecheck_on_insert(loaded):
    with pytest.raises(SQLTypeError):
        q(loaded, "INSERT INTO files (id, name, size, state) "
                  "VALUES ('notint', 'x', 0, 'free')")


def test_select_after_txn_abort_raises(loaded):
    """Once aborted, the transaction id must not be reused for work."""
    def go():
        session = loaded.session()
        txn = session._require_txn()
        txn.mark_rollback_only("test")
        with pytest.raises(TransactionAborted):
            yield from session.execute("SELECT COUNT(*) FROM files")
        # session recovers with a fresh transaction afterwards
        result = yield from session.execute("SELECT COUNT(*) FROM files")
        yield from session.commit()
        return result.scalar()
    assert loaded.sim.run_process(go()) == 50


def test_column_vs_operand_closure_equals_the_general_form():
    """``column <op> ?|literal`` compiles to one direct closure; the
    mirrored ``? <op'> column`` still takes the general nested form and
    is the oracle: same value, NULL → unknown, same error class."""
    from repro.minidb.catalog import ColumnDef, TableDef
    from repro.sql import ast
    from repro.sql.expr import compile_expr

    table = TableDef("t", [ColumnDef("c", "INT")])
    column = ast.ColumnRef("c")
    mirror = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
    values = [None, 0, 1, 2.5, True, "a", "b"]

    def outcome(compiled, row, params):
        try:
            return compiled(row, params)
        except SQLTypeError as error:
            return type(error), "supplied" in str(error)

    for op, mirrored in mirror.items():
        general = compile_expr(
            ast.Comparison(mirrored, ast.Param(0), column), table)
        direct = compile_expr(ast.Comparison(op, column, ast.Param(0)), table)
        assert direct.__name__ == "run_cmp_column"
        assert general.__name__ == "run_cmp"
        for a in values:
            row = (a,)
            assert outcome(direct, row, ()) == outcome(general, row, ())
            for b in values:
                expected = outcome(general, row, (b,))
                assert outcome(direct, row, (b,)) == expected, (a, op, b)
                literal = compile_expr(
                    ast.Comparison(op, column, ast.Literal(b)), table)
                assert outcome(literal, row, ()) == expected, (a, op, b)
