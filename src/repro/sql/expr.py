"""Expression compilation to Python closures.

A statement reads one table, so an expression is compiled once at plan
time against that table's :class:`TableDef` — a column reference becomes
its position — to ``fn(row, params)``, evaluated on the row tuple
itself. SQL three-valued logic is approximated: comparisons involving
NULL evaluate to ``None`` (unknown), and filters treat ``None`` as
not-qualifying.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.errors import SQLTypeError
from repro.minidb.catalog import TableDef
from repro.sql import ast

Compiled = Callable[[tuple, tuple], object]

_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _position(ref: ast.ColumnRef, table: Optional[TableDef]) -> int:
    position = table.positions.get(ref.name) if table is not None else None
    if position is None:
        raise SQLTypeError(f"unknown column {ref.name!r}")
    return position


def _comparable(a, b) -> bool:
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric):
        return True
    return type(a) is type(b)


def _missing_param(index: int, params: tuple) -> SQLTypeError:
    return SQLTypeError(
        f"statement has parameter ?{index + 1} but only "
        f"{len(params)} values were supplied")


def _incomparable(a, display: str, b) -> SQLTypeError:
    return SQLTypeError(
        f"cannot compare {type(a).__name__} {display} {type(b).__name__}")


def compile_expr(expr: ast.Expr, table: Optional[TableDef]) -> Compiled:
    """Compile ``expr`` to ``fn(row, params) -> value`` over ``table``'s
    rows (None: no columns in scope, as in INSERT ... VALUES)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value

    if isinstance(expr, ast.Param):
        index = expr.index
        def run_param(row, params):
            if index >= len(params):
                raise _missing_param(index, params)
            return params[index]
        return run_param

    if isinstance(expr, ast.ColumnRef):
        pos = _position(expr, table)
        return lambda row, params: row[pos]

    if isinstance(expr, ast.Comparison):
        op = _CMP[expr.op]
        display = expr.op
        if (isinstance(expr.left, ast.ColumnRef)
                and isinstance(expr.right, (ast.Param, ast.Literal))):
            # ``column <op> ?`` / ``column <op> literal`` — the shape of
            # nearly every WHERE conjunct, evaluated once per scanned
            # row: one closure, no calls into sub-expressions. Same
            # evaluation order and errors as the general form below.
            pos = _position(expr.left, table)
            operand = expr.right
            index = operand.index if isinstance(operand, ast.Param) else None
            literal = None if index is not None else operand.value
            def run_cmp_column(row, params):
                a = row[pos]
                if index is None:
                    b = literal
                elif index < len(params):
                    b = params[index]
                else:
                    raise _missing_param(index, params)
                if a is None or b is None:
                    return None
                if type(a) is not type(b) and not _comparable(a, b):
                    raise _incomparable(a, display, b)
                return op(a, b)
            return run_cmp_column
        left = compile_expr(expr.left, table)
        right = compile_expr(expr.right, table)
        def run_cmp(row, params):
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            if not _comparable(a, b):
                raise _incomparable(a, display, b)
            return op(a, b)
        return run_cmp

    if isinstance(expr, ast.And):
        parts = [compile_expr(item, table) for item in expr.items]
        def run_and(row, params):
            unknown = False
            for part in parts:
                value = part(row, params)
                if value is None:
                    unknown = True
                elif not value:
                    return False
            return None if unknown else True
        return run_and

    if isinstance(expr, ast.InList):
        inner = compile_expr(expr.item, table)
        options = [compile_expr(o, table) for o in expr.options]
        def run_in(row, params):
            value = inner(row, params)
            if value is None:
                return None
            return any(option(row, params) == value for option in options)
        return run_in

    if isinstance(expr, ast.Arithmetic):
        left = compile_expr(expr.left, table)
        right = compile_expr(expr.right, table)
        op = operator.add if expr.op == "+" else operator.sub
        def run_arith(row, params):
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            if not (isinstance(a, (int, float))
                    and isinstance(b, (int, float))):
                raise SQLTypeError(
                    f"arithmetic on {type(a).__name__}/{type(b).__name__}")
            return op(a, b)
        return run_arith

    if isinstance(expr, ast.CountStar):
        raise SQLTypeError("COUNT(*) is only allowed in the select list")

    raise SQLTypeError(f"cannot compile {expr!r}")


def conjuncts(where: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten top-level ANDs (the optimizer's sargable-predicate pool)."""
    if where is None:
        return []
    if isinstance(where, ast.And):
        result = []
        for item in where.items:
            result.extend(conjuncts(item))
        return result
    return [where]


def expr_is_constant(expr: ast.Expr) -> bool:
    """True for literals/params — usable as index probe values at bind time."""
    return isinstance(expr, (ast.Literal, ast.Param))
