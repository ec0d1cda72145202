"""Cost-based access-path selection.

This is the optimizer whose behaviour the paper fights with:

* it costs plans purely from :class:`~repro.minidb.catalog.TableStats`;
  a freshly created table has ``card=0`` so a table scan (cost ≈ 1 page)
  beats any index scan (root-to-leaf traversal plus probe constant) — the
  "when the table size is small, the optimizer could still pick table
  scan even when an index is available" gotcha;
* it knows **nothing about lock contention** — the cost model contains no
  term for the row locks a table scan will take under a concurrent
  workload (lesson §4, experiment E4).

Plans record their chosen access path plus the estimated cost so tests
and benchmarks can assert which plan won and why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import SQLTypeError
from repro.minidb.catalog import Catalog, IndexDef, TableDef, TableStats
from repro.sql import ast
from repro.sql.expr import (Compiled, Scope, compile_expr, conjuncts,
                            expr_is_constant)

_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class IndexProbe:
    """Runtime recipe for probing one index."""

    index: IndexDef
    eq_exprs: list[Compiled]               # values for the leading columns
    lo: Optional[tuple[Compiled, bool]] = None  # (value, inclusive)
    hi: Optional[tuple[Compiled, bool]] = None


@dataclass
class AccessPath:
    kind: str                  # "table_scan" | "index_scan"
    table: str
    binding: str
    probe: Optional[IndexProbe]
    cost: float

    @property
    def index_name(self) -> Optional[str]:
        return self.probe.index.name if self.probe else None


@dataclass
class JoinPlan:
    access: AccessPath
    table: TableDef


@dataclass
class AggSpec:
    name: str
    arg: Optional[Compiled]
    label: str


@dataclass
class SelectPlan:
    access: AccessPath
    table: TableDef
    filter: Optional[Compiled]
    join: Optional[JoinPlan]
    join_filter: Optional[Compiled]
    columns: list[str]
    items: Optional[list[tuple[Compiled, str]]]   # None → star
    aggregates: Optional[list[AggSpec]]
    order_by: list[tuple[Compiled, bool]]
    lock: Optional[str]   # None | "share" | "update" (``ast.Select.lock``)
    limit: Optional[Compiled]
    except_plan: Optional["SelectPlan"]

    kind: str = "select"
    tables: tuple[str, ...] = ()


@dataclass
class InsertPlan:
    table: TableDef
    #: One compiled expression list per VALUES row, each by column
    #: position; None → NULL. Multi-row inserts carry several.
    rows: list[list[Optional[Compiled]]]

    kind: str = "insert"
    tables: tuple[str, ...] = ()


@dataclass
class UpdatePlan:
    table: TableDef
    access: AccessPath
    filter: Optional[Compiled]
    assignments: list[tuple[int, Compiled]]

    kind: str = "update"
    tables: tuple[str, ...] = ()


@dataclass
class DeletePlan:
    table: TableDef
    access: AccessPath
    filter: Optional[Compiled]

    kind: str = "delete"
    tables: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# cost model — note the absence of any concurrency/locking term
# ---------------------------------------------------------------------------

def cost_table_scan(stats: TableStats) -> float:
    return max(1.0, float(stats.npages)) + 0.05 * max(stats.card, 0)


def estimated_levels(stats: TableStats) -> int:
    if stats.card <= 1:
        return 1
    return 1 + max(1, math.ceil(math.log(stats.card, 100)))


#: System-R-flavoured default selectivities for range predicates.
RANGE_SELECTIVITY_ONE_SIDED = 1.0 / 3.0
RANGE_SELECTIVITY_BOUNDED = 0.01


def cost_index_scan(stats: TableStats, index: IndexDef, n_eq: int,
                    range_bounds: int) -> float:
    """``range_bounds``: 0 (no range), 1 (one-sided), 2 (lo and hi)."""
    selectivity = 1.0
    for column in index.columns[:n_eq]:
        selectivity /= stats.distinct(column)
    if range_bounds == 1:
        selectivity *= RANGE_SELECTIVITY_ONE_SIDED
    elif range_bounds >= 2:
        selectivity *= RANGE_SELECTIVITY_BOUNDED
    matching = selectivity * max(stats.card, 0)
    return estimated_levels(stats) + matching * 2.0 + 0.2


# ---------------------------------------------------------------------------
# sargable-predicate extraction
# ---------------------------------------------------------------------------

@dataclass
class _Sarg:
    column: str
    op: str               # = | < | <= | > | >=
    value: ast.Expr       # Literal/Param, or ColumnRef into another binding


def _extract_sargs(where: Optional[ast.Expr], binding: str,
                   table: TableDef,
                   outer_bindings: frozenset[str]) -> list[_Sarg]:
    """Conjuncts usable as index probes for ``binding``.

    ``outer_bindings`` are bindings whose rows are available when the
    probe runs (join outer side), so equality against their columns is
    sargable too (index nested-loop join).
    """
    sargs: list[_Sarg] = []
    for conjunct in conjuncts(where):
        if isinstance(conjunct, ast.Between):
            # col BETWEEN a AND b ≡ col >= a AND col <= b
            if (_is_local_column(conjunct.item, binding, table)
                    and expr_is_constant(conjunct.low)
                    and expr_is_constant(conjunct.high)):
                sargs.append(_Sarg(conjunct.item.name, ">=", conjunct.low))
                sargs.append(_Sarg(conjunct.item.name, "<=", conjunct.high))
            continue
        sarg = _sarg_from(conjunct, binding, table, outer_bindings)
        if sarg is not None:
            sargs.append(sarg)
    return sargs


def _sarg_from(conjunct: ast.Expr, binding: str, table: TableDef,
               outer_bindings: frozenset[str]) -> Optional[_Sarg]:
    if not isinstance(conjunct, ast.Comparison) or conjunct.op == "<>":
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if _is_local_column(right, binding, table) and not _is_local_column(
            left, binding, table):
        left, right = right, left
        op = _FLIP[op]
    if not _is_local_column(left, binding, table):
        return None
    if expr_is_constant(right):
        return _Sarg(left.name, op, right)
    if (isinstance(right, ast.ColumnRef) and right.qualifier is not None
            and right.qualifier in outer_bindings):
        return _Sarg(left.name, op, right)
    return None


def _is_local_column(expr: ast.Expr, binding: str, table: TableDef) -> bool:
    if not isinstance(expr, ast.ColumnRef):
        return False
    if expr.qualifier is not None:
        return expr.qualifier == binding
    return expr.name in table.positions


# ---------------------------------------------------------------------------
# access-path selection
# ---------------------------------------------------------------------------

def choose_access(catalog: Catalog, table: TableDef, binding: str,
                  where: Optional[ast.Expr], scope: Scope,
                  outer_bindings: frozenset[str] = frozenset()) -> AccessPath:
    stats = catalog.stats_for(table.name)
    sargs = _extract_sargs(where, binding, table, outer_bindings)
    best = AccessPath("table_scan", table.name, binding, None,
                      cost_table_scan(stats))
    for index in catalog.indexes_by_table.get(table.name, []):
        candidate = _index_candidate(index, sargs, stats, table, binding,
                                     scope)
        if candidate is not None and candidate.cost < best.cost:
            best = candidate
    return best


def _index_candidate(index: IndexDef, sargs: list[_Sarg], stats: TableStats,
                     table: TableDef, binding: str,
                     scope: Scope) -> Optional[AccessPath]:
    eq_by_col = {s.column: s for s in sargs if s.op == "="}
    eq_exprs: list[Compiled] = []
    n_eq = 0
    for column in index.columns:
        sarg = eq_by_col.get(column)
        if sarg is None:
            break
        eq_exprs.append(compile_expr(sarg.value, scope))
        n_eq += 1
    lo = hi = None
    if n_eq < len(index.columns):
        range_col = index.columns[n_eq]
        for sarg in sargs:
            if sarg.column != range_col:
                continue
            compiled = compile_expr(sarg.value, scope)
            if sarg.op in (">", ">=") and lo is None:
                lo = (compiled, sarg.op == ">=")
            elif sarg.op in ("<", "<=") and hi is None:
                hi = (compiled, sarg.op == "<=")
    range_bounds = (lo is not None) + (hi is not None)
    if n_eq == 0 and range_bounds == 0:
        return None
    cost = cost_index_scan(stats, index, n_eq, range_bounds)
    probe = IndexProbe(index, eq_exprs, lo, hi)
    return AccessPath("index_scan", table.name, binding, probe, cost)


# ---------------------------------------------------------------------------
# statement planning
# ---------------------------------------------------------------------------

def plan_statement(catalog: Catalog, stmt: ast.Statement):
    if isinstance(stmt, ast.Select):
        return _plan_select(catalog, stmt)
    if isinstance(stmt, ast.Insert):
        return _plan_insert(catalog, stmt)
    if isinstance(stmt, ast.Update):
        return _plan_update(catalog, stmt)
    if isinstance(stmt, ast.Delete):
        return _plan_delete(catalog, stmt)
    raise SQLTypeError(f"not plannable: {stmt!r}")


def _plan_select(catalog: Catalog, stmt: ast.Select) -> SelectPlan:
    outer = catalog.require_table(stmt.table.name)
    bindings = {stmt.table.binding: outer}
    inner_def = None
    if stmt.join is not None:
        inner_def = catalog.require_table(stmt.join.table.name)
        if stmt.join.table.binding in bindings:
            raise SQLTypeError("duplicate table binding in join")
        bindings[stmt.join.table.binding] = inner_def
    scope = Scope(bindings)

    # Outer access: sargs come only from WHERE (no outer rows available).
    outer_scope = Scope({stmt.table.binding: outer})
    access = choose_access(catalog, outer, stmt.table.binding, stmt.where,
                           outer_scope)

    join_plan = None
    join_filter = None
    if stmt.join is not None:
        combined = _and_exprs(stmt.join.on, stmt.where)
        inner_access = choose_access(
            catalog, inner_def, stmt.join.table.binding, combined, scope,
            outer_bindings=frozenset({stmt.table.binding}))
        join_plan = JoinPlan(inner_access, inner_def)
        join_filter = compile_expr(stmt.join.on, scope)

    where_filter = (compile_expr(stmt.where, scope)
                    if stmt.where is not None else None)

    columns: list[str] = []
    items: Optional[list[tuple[Compiled, str]]] = None
    aggregates: Optional[list[AggSpec]] = None
    if stmt.items is None:
        columns = [f"{stmt.table.binding}.{c}" if inner_def else c
                   for c in outer.column_names]
        if inner_def is not None:
            columns += [f"{stmt.join.table.binding}.{c}"
                        for c in inner_def.column_names]
            items = _star_items(stmt, scope, outer, inner_def)
    else:
        agg_items = [item for item in stmt.items
                     if isinstance(item.expr, ast.FuncCall)]
        if agg_items:
            if len(agg_items) != len(stmt.items):
                raise SQLTypeError(
                    "mixing aggregates and plain columns needs GROUP BY, "
                    "which this subset does not support")
            aggregates = []
            for item in stmt.items:
                func: ast.FuncCall = item.expr
                arg = (compile_expr(func.arg, scope)
                       if func.arg is not None else None)
                label = item.alias or func.name.lower()
                aggregates.append(AggSpec(func.name, arg, label))
                columns.append(label)
        else:
            items = []
            for i, item in enumerate(stmt.items):
                label = item.alias or _default_label(item.expr, i)
                items.append((compile_expr(item.expr, scope), label))
                columns.append(label)

    order_by = [(compile_expr(o.expr, scope), o.descending)
                for o in stmt.order_by]
    limit = (compile_expr(stmt.limit, scope)
             if stmt.limit is not None else None)

    except_plan = (_plan_select(catalog, stmt.except_select)
                   if stmt.except_select is not None else None)

    tables = (outer.name,) + ((inner_def.name,) if inner_def else ())
    return SelectPlan(access=access, table=outer, filter=where_filter,
                      join=join_plan, join_filter=join_filter,
                      columns=columns, items=items, aggregates=aggregates,
                      order_by=order_by, lock=stmt.lock,
                      limit=limit, except_plan=except_plan,
                      tables=tables)


def _star_items(stmt: ast.Select, scope: Scope, outer: TableDef,
                inner: TableDef) -> list[tuple[Compiled, str]]:
    items = []
    for binding, table in ((stmt.table.binding, outer),
                           (stmt.join.table.binding, inner)):
        for column in table.column_names:
            ref = ast.ColumnRef(column, qualifier=binding)
            items.append((compile_expr(ref, scope), f"{binding}.{column}"))
    return items


def _default_label(expr: ast.Expr, position: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return f"col{position + 1}"


def _and_exprs(a: Optional[ast.Expr],
               b: Optional[ast.Expr]) -> Optional[ast.Expr]:
    if a is None:
        return b
    if b is None:
        return a
    return ast.And((a, b))


def _plan_insert(catalog: Catalog, stmt: ast.Insert) -> InsertPlan:
    table = catalog.require_table(stmt.table)
    scope = Scope({})
    rows: list[list[Optional[Compiled]]] = []
    for values in stmt.rows:
        row_exprs: list[Optional[Compiled]] = [None] * len(table.columns)
        for column, value in zip(stmt.columns, values):
            row_exprs[table.position(column)] = compile_expr(value, scope)
        rows.append(row_exprs)
    return InsertPlan(table, rows, tables=(table.name,))


def _plan_update(catalog: Catalog, stmt: ast.Update) -> UpdatePlan:
    table = catalog.require_table(stmt.table)
    scope = Scope({stmt.table: table})
    access = choose_access(catalog, table, stmt.table, stmt.where, scope)
    where_filter = (compile_expr(stmt.where, scope)
                    if stmt.where is not None else None)
    assignments = [(table.position(column), compile_expr(value, scope))
                   for column, value in stmt.assignments]
    return UpdatePlan(table, access, where_filter, assignments,
                      tables=(table.name,))


def _plan_delete(catalog: Catalog, stmt: ast.Delete) -> DeletePlan:
    table = catalog.require_table(stmt.table)
    scope = Scope({stmt.table: table})
    access = choose_access(catalog, table, stmt.table, stmt.where, scope)
    where_filter = (compile_expr(stmt.where, scope)
                    if stmt.where is not None else None)
    return DeletePlan(table, access, where_filter, tables=(table.name,))
