"""Expression resolution and compilation to Python closures.

Expressions are compiled once at plan time against a :class:`Scope`
(binding name → TableDef). At execution the environment is a dict mapping
binding names to the current row tuple. SQL three-valued logic is
approximated: comparisons involving NULL evaluate to ``None`` (unknown),
and filters treat ``None`` as not-qualifying.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.errors import SQLTypeError
from repro.minidb.catalog import TableDef
from repro.sql import ast

#: runtime environment: binding name → row tuple
Env = dict
Compiled = Callable[[Env, tuple], object]

_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Scope:
    """Name-resolution context for one statement."""

    def __init__(self, bindings: dict[str, TableDef]):
        self.bindings = bindings

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, int]:
        """Return (binding, column position) or raise."""
        if ref.qualifier is not None:
            table = self.bindings.get(ref.qualifier)
            if table is None:
                raise SQLTypeError(f"unknown table qualifier {ref.qualifier!r}")
            return ref.qualifier, table.position(ref.name)
        matches = [(binding, table.positions[ref.name])
                   for binding, table in self.bindings.items()
                   if ref.name in table.positions]
        if not matches:
            raise SQLTypeError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SQLTypeError(f"ambiguous column {ref.name!r}")
        return matches[0]


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


def compile_expr(expr: ast.Expr, scope: Scope) -> Compiled:
    """Compile ``expr`` to ``fn(env, params) -> value``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda env, params: value

    if isinstance(expr, ast.Param):
        index = expr.index
        def run_param(env, params):
            if index >= len(params):
                raise _missing_param(index, params)
            return params[index]
        return run_param

    if isinstance(expr, ast.ColumnRef):
        binding, pos = scope.resolve(expr)
        return lambda env, params: env[binding][pos]

    if isinstance(expr, ast.Comparison):
        op = _CMP[expr.op]
        display = expr.op
        if (isinstance(expr.left, ast.ColumnRef)
                and isinstance(expr.right, (ast.Param, ast.Literal))):
            # ``column <op> ?`` / ``column <op> literal`` — the shape of
            # nearly every WHERE conjunct, evaluated once per scanned
            # row: one closure, no calls into sub-expressions. Same
            # evaluation order and errors as the general form below.
            binding, pos = scope.resolve(expr.left)
            operand = expr.right
            index = operand.index if isinstance(operand, ast.Param) else None
            literal = None if index is not None else operand.value
            def run_cmp_column(env, params):
                a = env[binding][pos]
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
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        def run_cmp(env, params):
            a = left(env, params)
            b = right(env, params)
            if a is None or b is None:
                return None
            if not _comparable(a, b):
                raise _incomparable(a, display, b)
            return op(a, b)
        return run_cmp

    if isinstance(expr, ast.And):
        parts = [compile_expr(item, scope) for item in expr.items]
        def run_and(env, params):
            unknown = False
            for part in parts:
                value = part(env, params)
                if value is None:
                    unknown = True
                elif not value:
                    return False
            return None if unknown else True
        return run_and

    if isinstance(expr, ast.Or):
        parts = [compile_expr(item, scope) for item in expr.items]
        def run_or(env, params):
            unknown = False
            for part in parts:
                value = part(env, params)
                if value is None:
                    unknown = True
                elif value:
                    return True
            return None if unknown else False
        return run_or

    if isinstance(expr, ast.Not):
        inner = compile_expr(expr.item, scope)
        def run_not(env, params):
            value = inner(env, params)
            return None if value is None else not value
        return run_not

    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.item, scope)
        if expr.negated:
            return lambda env, params: inner(env, params) is not None
        return lambda env, params: inner(env, params) is None

    if isinstance(expr, ast.InList):
        inner = compile_expr(expr.item, scope)
        options = [compile_expr(o, scope) for o in expr.options]
        def run_in(env, params):
            value = inner(env, params)
            if value is None:
                return None
            return any(option(env, params) == value for option in options)
        return run_in

    if isinstance(expr, ast.Between):
        inner = compile_expr(expr.item, scope)
        low = compile_expr(expr.low, scope)
        high = compile_expr(expr.high, scope)
        def run_between(env, params):
            value = inner(env, params)
            lo = low(env, params)
            hi = high(env, params)
            if value is None or lo is None or hi is None:
                return None
            return lo <= value <= hi
        return run_between

    if isinstance(expr, ast.Arithmetic):
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        op = operator.add if expr.op == "+" else operator.sub
        def run_arith(env, params):
            a = left(env, params)
            b = right(env, params)
            if a is None or b is None:
                return None
            if not (isinstance(a, (int, float))
                    and isinstance(b, (int, float))):
                raise SQLTypeError(
                    f"arithmetic on {type(a).__name__}/{type(b).__name__}")
            return op(a, b)
        return run_arith

    if isinstance(expr, ast.FuncCall):
        raise SQLTypeError(
            f"aggregate {expr.name} is only allowed in the select list")

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
