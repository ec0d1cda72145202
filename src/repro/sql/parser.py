"""Recursive-descent parser for the SQL subset.

The subset is the SQL the system itself issues (``tools/reached.py``
prints the census): one table per statement, a WHERE clause that is an
AND of comparisons and IN lists, ``+``/``-``, ``COUNT(*)``, ORDER BY
[ASC|DESC], EXCEPT, LIMIT, FOR SHARE / FOR UPDATE, single-row INSERT,
UPDATE, DELETE and DDL. Anything else is a syntax error.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize

_TYPE_MAP = {
    "INT": "INT", "INTEGER": "INT", "BIGINT": "INT",
    "FLOAT": "FLOAT", "REAL": "FLOAT",
    "TEXT": "TEXT", "VARCHAR": "TEXT",
    "BOOL": "BOOL", "BOOLEAN": "BOOL",
}


def parse(sql: str) -> ast.Statement:
    return _Parser(tokenize(sql), sql).parse_statement()


class _Parser:
    def __init__(self, tokens: list[Token], sql: str):
        self.tokens = tokens
        self.sql = sql
        self.pos = 0
        self.param_count = 0

    # -- token plumbing ---------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.cur
        self.pos += 1
        return token

    def check_kw(self, *words: str) -> bool:
        return self.cur.kind == "KEYWORD" and self.cur.value in words

    def accept_kw(self, *words: str) -> bool:
        if self.check_kw(*words):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            self.fail(f"expected {word}")

    def accept_op(self, op: str) -> bool:
        if self.cur.kind == "OP" and self.cur.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            self.fail(f"expected {op!r}")

    def expect_ident(self) -> str:
        if self.cur.kind == "IDENT":
            return self.advance().value
        self.fail("expected identifier")

    def fail(self, message: str) -> None:
        raise SQLSyntaxError(
            f"{message} at position {self.cur.pos} "
            f"(near {self.cur.value!r}) in: {self.sql!r}")

    # -- statements --------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt = self._statement()
        if self.cur.kind != "EOF":
            self.fail("trailing input")
        return stmt

    def _statement(self) -> ast.Statement:
        if self.check_kw("SELECT"):
            return self._select(allow_except=True)
        if self.accept_kw("INSERT"):
            return self._insert()
        if self.accept_kw("UPDATE"):
            return self._update()
        if self.accept_kw("DELETE"):
            return self._delete()
        if self.accept_kw("CREATE"):
            return self._create()
        if self.accept_kw("DROP"):
            if self.accept_kw("INDEX"):
                return ast.DropIndex(self.expect_ident())
            self.expect_kw("TABLE")
            return ast.DropTable(self.expect_ident())
        self.fail("expected a statement")

    def _select(self, allow_except: bool) -> ast.Select:
        self.expect_kw("SELECT")
        items: Optional[tuple[ast.Expr, ...]]
        if self.accept_op("*"):
            items = None
        else:
            parsed = [self._expr()]
            while self.accept_op(","):
                parsed.append(self._expr())
            items = tuple(parsed)
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self._expr() if self.accept_kw("WHERE") else None
        order_by: list[ast.SortKey] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by.append(self._sort_key())
            while self.accept_op(","):
                order_by.append(self._sort_key())
        limit = None
        if self.accept_kw("LIMIT"):
            if self.accept_op("?"):
                limit = ast.Param(self.param_count)
                self.param_count += 1
            else:
                token = self.advance()
                if token.kind != "NUMBER" or not isinstance(token.value, int):
                    self.fail("expected integer or ? LIMIT")
                limit = ast.Literal(token.value)
        lock = None
        if self.accept_kw("FOR"):
            lock = "share" if self.accept_kw("SHARE") else "update"
            if lock == "update":
                self.expect_kw("UPDATE")
        except_select = None
        if allow_except and self.accept_kw("EXCEPT"):
            except_select = self._select(allow_except=False)
        return ast.Select(items=items, table=table, where=where,
                          order_by=tuple(order_by), lock=lock,
                          except_select=except_select, limit=limit)

    def _sort_key(self) -> ast.SortKey:
        column = ast.ColumnRef(self.expect_ident())
        descending = self.accept_kw("DESC")
        if not descending:
            self.accept_kw("ASC")
        return ast.SortKey(column, descending)

    def _insert(self) -> ast.Insert:
        self.expect_kw("INTO")
        table = self.expect_ident()
        self.expect_op("(")
        columns = [self.expect_ident()]
        while self.accept_op(","):
            columns.append(self.expect_ident())
        self.expect_op(")")
        self.expect_kw("VALUES")
        self.expect_op("(")
        values = [self._expr()]
        while self.accept_op(","):
            values.append(self._expr())
        self.expect_op(")")
        if len(values) != len(columns):
            self.fail(f"{len(columns)} columns but {len(values)} values")
        return ast.Insert(table, tuple(columns), tuple(values))

    def _update(self) -> ast.Update:
        table = self.expect_ident()
        self.expect_kw("SET")
        assignments = [self._assignment()]
        while self.accept_op(","):
            assignments.append(self._assignment())
        where = self._expr() if self.accept_kw("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_ident()
        self.expect_op("=")
        return column, self._expr()

    def _delete(self) -> ast.Delete:
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self._expr() if self.accept_kw("WHERE") else None
        return ast.Delete(table, where)

    def _create(self) -> ast.Statement:
        unique = self.accept_kw("UNIQUE")
        if self.accept_kw("TABLE"):
            if unique:
                self.fail("UNIQUE TABLE is not a thing")
            return self._create_table()
        self.expect_kw("INDEX")
        name = self.expect_ident()
        self.expect_kw("ON")
        table = self.expect_ident()
        self.expect_op("(")
        columns = [self.expect_ident()]
        while self.accept_op(","):
            columns.append(self.expect_ident())
        self.expect_op(")")
        exclude_null = self.accept_kw("EXCLUDE")
        if exclude_null:
            self.expect_kw("NULL")
            self.expect_kw("KEYS")
        return ast.CreateIndex(name, table, tuple(columns), unique,
                               exclude_null)

    def _create_table(self) -> ast.CreateTable:
        name = self.expect_ident()
        self.expect_op("(")
        columns = [self._column_def()]
        while self.accept_op(","):
            columns.append(self._column_def())
        self.expect_op(")")
        return ast.CreateTable(name, tuple(columns))

    def _column_def(self) -> tuple[str, str]:
        name = self.expect_ident()
        if self.cur.kind != "TYPE":
            self.fail("expected a column type")
        return name, _TYPE_MAP[self.advance().value]

    # -- expressions (precedence: AND < predicate < additive) --------------------

    def _expr(self) -> ast.Expr:
        items = [self._predicate()]
        while self.accept_kw("AND"):
            items.append(self._predicate())
        return items[0] if len(items) == 1 else ast.And(tuple(items))

    def _predicate(self) -> ast.Expr:
        left = self._additive()
        if self.cur.kind == "OP" and self.cur.value in ("=", "<>", "!=", "<",
                                                        "<=", ">", ">="):
            op = self.advance().value
            if op == "!=":
                op = "<>"
            return ast.Comparison(op, left, self._additive())
        if self.accept_kw("IN"):
            self.expect_op("(")
            options = [self._additive()]
            while self.accept_op(","):
                options.append(self._additive())
            self.expect_op(")")
            return ast.InList(left, tuple(options))
        return left

    def _additive(self) -> ast.Expr:
        left = self._primary()
        while self.cur.kind == "OP" and self.cur.value in ("+", "-"):
            op = self.advance().value
            left = ast.Arithmetic(op, left, self._primary())
        return left

    def _primary(self) -> ast.Expr:
        token = self.cur
        if token.kind == "NUMBER" or token.kind == "STRING":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "OP" and token.value == "?":
            self.advance()
            param = ast.Param(self.param_count)
            self.param_count += 1
            return param
        if self.accept_kw("NULL"):
            return ast.Literal(None)
        if self.accept_kw("COUNT"):
            self.expect_op("(")
            self.expect_op("*")
            self.expect_op(")")
            return ast.CountStar()
        if token.kind == "IDENT":
            return ast.ColumnRef(self.advance().value)
        if self.accept_op("("):
            expr = self._expr()
            self.expect_op(")")
            return expr
        if self.accept_op("-"):
            inner = self._primary()
            if isinstance(inner, ast.Literal) and isinstance(
                    inner.value, (int, float)):
                return ast.Literal(-inner.value)
            return ast.Arithmetic("-", ast.Literal(0), inner)
        self.fail("expected an expression")
