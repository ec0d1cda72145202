"""Parser tests over the SQL subset."""

import pytest

from repro.errors import SQLSyntaxError
from repro.host import DatalinkSpec
from repro.sql import ast
from repro.sql.parser import parse
from repro.system import System


def test_select_star():
    stmt = parse("SELECT * FROM files")
    assert isinstance(stmt, ast.Select)
    assert stmt.items is None
    assert stmt.table == "files"


def test_select_columns_and_expressions():
    stmt = parse("SELECT name, size + 1 FROM files")
    assert stmt.items == (ast.ColumnRef("name"), ast.Arithmetic(
        "+", ast.ColumnRef("size"), ast.Literal(1)))


def test_select_where_comparison():
    stmt = parse("SELECT * FROM f WHERE id = 5")
    assert stmt.where == ast.Comparison("=", ast.ColumnRef("id"),
                                        ast.Literal(5))


def test_parenthesized_predicate():
    stmt = parse("SELECT * FROM f WHERE a = 1 AND (b = 2 AND c = 3)")
    assert isinstance(stmt.where, ast.And)
    assert isinstance(stmt.where.items[1], ast.And)


def test_in_list_and_range_conjuncts():
    stmt = parse("SELECT * FROM f WHERE a IN (1, 2) AND b >= 1 AND b <= 9")
    conj = stmt.where.items
    assert conj[0] == ast.InList(ast.ColumnRef("a"),
                                 (ast.Literal(1), ast.Literal(2)))
    assert [c.op for c in conj[1:]] == [">=", "<="]


def test_params_numbered_in_order():
    stmt = parse("SELECT * FROM f WHERE a = ? AND b = ?")
    assert stmt.where.items[0].right == ast.Param(0)
    assert stmt.where.items[1].right == ast.Param(1)


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
    assert stmt.except_select.table == "g"


def test_aggregates():
    stmt = parse("SELECT COUNT(*) FROM f WHERE a = 1")
    assert stmt.items == (ast.CountStar(),)


def test_insert():
    stmt = parse("INSERT INTO f (a, b) VALUES (1, 'x')")
    assert stmt == ast.Insert("f", ("a", "b"),
                              (ast.Literal(1), ast.Literal("x")))


def test_insert_arity_mismatch_raises():
    with pytest.raises(SQLSyntaxError):
        parse("INSERT INTO f (a, b) VALUES (1)")


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
    """NULL is the one literal keyword; TRUE and FALSE are reserved words
    with no grammar rule, so neither can pass for a column."""
    stmt = parse("INSERT INTO f (a) VALUES (NULL)")
    assert stmt.values == (ast.Literal(None),)
    for word in ("TRUE", "FALSE"):
        with pytest.raises(SQLSyntaxError):
            parse(f"INSERT INTO f (a) VALUES ({word})")


def test_trailing_garbage_raises():
    with pytest.raises(SQLSyntaxError):
        parse("SELECT * FROM f garbage extra")


def test_missing_from_raises():
    with pytest.raises(SQLSyntaxError):
        parse("SELECT *")


def test_error_message_mentions_position():
    with pytest.raises(SQLSyntaxError, match="position"):
        parse("SELECT FROM")


#: One case per construct the subset dropped: none of the SQL the system
#: sends uses them (the census at the end of ``tools/reached.py``). Each
#: must fail in the parser, never later in the planner, the executor or
#: the host.
DELETED = {
    "join": "SELECT * FROM clips JOIN tags ON id = clip",
    "inner-join": "SELECT * FROM clips INNER JOIN tags ON id = clip",
    "table-alias": "SELECT id FROM clips c WHERE id = 1",
    "as": "SELECT id AS n FROM clips",
    "qualified-column": "SELECT clips.id FROM clips",
    "or": "SELECT id FROM clips WHERE id = 1 OR id = 2",
    "not": "DELETE FROM clips WHERE NOT id = 1",
    "between": "SELECT id FROM clips WHERE id BETWEEN 1 AND 2",
    "is-null": "UPDATE clips SET video = NULL WHERE title IS NULL",
    "is-not-null": "SELECT id FROM clips WHERE video IS NOT NULL",
    "max": "SELECT MAX(id) FROM clips",
    "min": "SELECT MIN(id) FROM clips",
    "sum": "SELECT SUM(id) FROM clips",
    "count-expr": "SELECT COUNT(id) FROM clips",
    "distinct": "SELECT DISTINCT title FROM clips",
    "multi-row-values": "INSERT INTO clips (id, title, video) "
                        "VALUES (1, 'a', NULL), (2, 'b', NULL)",
    "true": "SELECT id FROM clips WHERE title = TRUE",
    "false": "UPDATE clips SET title = FALSE WHERE id = 1",
    "explain": "EXPLAIN SELECT * FROM clips WHERE id = 1",
}


@pytest.mark.parametrize("sql", list(DELETED.values()), ids=list(DELETED))
def test_deleted_construct_is_a_syntax_error(sql):
    with pytest.raises(SQLSyntaxError):
        parse(sql)
    system = System(seed=7)
    session = system.host.session()

    def go():
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("title", "TEXT"), ("video", "TEXT")],
            {"video": DatalinkSpec()})
        with pytest.raises(SQLSyntaxError):
            yield from session.execute(sql)

    system.run(go())
