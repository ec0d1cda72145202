"""Parser tests over the SQL subset."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.parser import parse


def test_select_star():
    stmt = parse("SELECT * FROM files")
    assert isinstance(stmt, ast.Select)
    assert stmt.items is None
    assert stmt.table == ast.TableRef("files", None)


def test_select_columns_with_alias():
    stmt = parse("SELECT name, size AS s FROM files")
    assert [i.alias for i in stmt.items] == [None, "s"]


def test_select_where_comparison():
    stmt = parse("SELECT * FROM f WHERE id = 5")
    assert stmt.where == ast.Comparison("=", ast.ColumnRef("id"),
                                        ast.Literal(5))


def test_where_precedence_or_binds_weaker_than_and():
    stmt = parse("SELECT * FROM f WHERE a = 1 AND b = 2 OR c = 3")
    assert isinstance(stmt.where, ast.Or)
    assert isinstance(stmt.where.items[0], ast.And)


def test_parenthesized_predicate():
    stmt = parse("SELECT * FROM f WHERE a = 1 AND (b = 2 OR c = 3)")
    assert isinstance(stmt.where, ast.And)
    assert isinstance(stmt.where.items[1], ast.Or)


def test_not_between_in_isnull():
    stmt = parse("SELECT * FROM f WHERE NOT a IN (1, 2) AND b BETWEEN 1 AND 9"
                 " AND c IS NOT NULL")
    conj = stmt.where.items
    assert isinstance(conj[0], ast.Not)
    assert isinstance(conj[0].item, ast.InList)
    assert isinstance(conj[1], ast.Between)
    assert conj[2] == ast.IsNull(ast.ColumnRef("c"), negated=True)


def test_params_numbered_in_order():
    stmt = parse("SELECT * FROM f WHERE a = ? AND b = ?")
    assert stmt.where.items[0].right == ast.Param(0)
    assert stmt.where.items[1].right == ast.Param(1)


def test_qualified_columns_and_join():
    stmt = parse("SELECT f.name FROM f JOIN g ON f.id = g.fid WHERE g.x = 1")
    assert stmt.join.table.name == "g"
    assert stmt.join.on == ast.Comparison(
        "=", ast.ColumnRef("id", "f"), ast.ColumnRef("fid", "g"))


def test_table_alias():
    stmt = parse("SELECT t.name FROM files t")
    assert stmt.table == ast.TableRef("files", "t")


def test_order_by_asc_desc_and_limit():
    stmt = parse("SELECT * FROM f ORDER BY a DESC, b ASC LIMIT 10")
    assert stmt.order_by[0].descending is True
    assert stmt.order_by[1].descending is False
    assert stmt.limit == ast.Literal(10)


def test_limit_param():
    stmt = parse("SELECT * FROM f LIMIT ?")
    assert stmt.limit == ast.Param(0)


def test_for_update():
    stmt = parse("SELECT * FROM f WHERE id = 1 FOR UPDATE")
    assert stmt.lock == "update"
    assert parse("SELECT * FROM f WHERE id = 1 FOR SHARE").lock == "share"
    assert parse("SELECT * FROM f WHERE id = 1").lock is None
    for tail in ("FOR", "FOR DELETE", "FOR SHARE UPDATE", "FOR share_x"):
        with pytest.raises(SQLSyntaxError):
            parse(f"SELECT * FROM f WHERE id = 1 {tail}")


def test_except():
    stmt = parse("SELECT a FROM f EXCEPT SELECT a FROM g")
    assert stmt.except_select is not None
    assert stmt.except_select.table.name == "g"


def test_aggregates():
    stmt = parse("SELECT COUNT(*), MAX(id), MIN(id), SUM(size) FROM f")
    names = [item.expr.name for item in stmt.items]
    assert names == ["COUNT", "MAX", "MIN", "SUM"]
    assert stmt.items[0].expr.arg is None


def test_insert():
    stmt = parse("INSERT INTO f (a, b) VALUES (1, 'x')")
    assert stmt == ast.Insert("f", ("a", "b"),
                              (ast.Literal(1), ast.Literal("x")))


def test_insert_arity_mismatch_raises():
    with pytest.raises(SQLSyntaxError):
        parse("INSERT INTO f (a, b) VALUES (1)")


def test_insert_multi_row():
    stmt = parse("INSERT INTO f (a, b) VALUES (1, 'x'), (2, 'y'), (?, ?)")
    assert stmt.values == (ast.Literal(1), ast.Literal("x"))
    assert stmt.more_rows == (
        (ast.Literal(2), ast.Literal("y")),
        (ast.Param(0), ast.Param(1)),
    )
    assert len(stmt.rows) == 3


def test_insert_multi_row_arity_mismatch_raises():
    with pytest.raises(SQLSyntaxError):
        parse("INSERT INTO f (a, b) VALUES (1, 'x'), (2)")


def test_update_with_arithmetic():
    stmt = parse("UPDATE f SET n = n + 1 WHERE id = ?")
    (col, expr), = stmt.assignments
    assert col == "n"
    assert expr == ast.Arithmetic("+", ast.ColumnRef("n"), ast.Literal(1))


def test_delete():
    stmt = parse("DELETE FROM f WHERE state = 'deleted'")
    assert isinstance(stmt, ast.Delete)


def test_create_table_types_normalized():
    stmt = parse("CREATE TABLE f (a INTEGER, b VARCHAR, c REAL, d BOOLEAN)")
    assert stmt.columns == (("a", "INT"), ("b", "TEXT"), ("c", "FLOAT"),
                            ("d", "BOOL"))


def test_create_unique_index():
    stmt = parse("CREATE UNIQUE INDEX i ON f (a, b)")
    assert stmt == ast.CreateIndex("i", "f", ("a", "b"), True)


def test_drop_table():
    assert parse("DROP TABLE f") == ast.DropTable("f")


def test_negative_literal():
    stmt = parse("SELECT * FROM f WHERE a = -5")
    assert stmt.where.right == ast.Literal(-5)


def test_null_true_false_literals():
    stmt = parse("INSERT INTO f (a, b, c) VALUES (NULL, TRUE, FALSE)")
    assert stmt.values == (ast.Literal(None), ast.Literal(True),
                           ast.Literal(False))


def test_trailing_garbage_raises():
    with pytest.raises(SQLSyntaxError):
        parse("SELECT * FROM f garbage extra")


def test_missing_from_raises():
    with pytest.raises(SQLSyntaxError):
        parse("SELECT *")


def test_error_message_mentions_position():
    with pytest.raises(SQLSyntaxError, match="position"):
        parse("SELECT FROM")
