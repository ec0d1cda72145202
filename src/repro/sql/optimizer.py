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
from repro.sql.expr import Compiled, compile_expr, conjuncts, expr_is_constant

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
    probe: Optional[IndexProbe]
    cost: float

    @property
    def index_name(self) -> Optional[str]:
        return self.probe.index.name if self.probe else None


@dataclass
class SelectPlan:
    access: AccessPath
    table: TableDef
    filter: Optional[Compiled]
    columns: list[str]
    items: Optional[list[Compiled]]   # None → star (and COUNT(*))
    count: bool                       # every item is COUNT(*)
    order_by: list[tuple[Compiled, bool]]
    lock: Optional[str]   # None | "share" | "update" (``ast.Select.lock``)
    limit: Optional[Compiled]
    except_plan: Optional["SelectPlan"]

    kind: str = "select"
    tables: tuple[str, ...] = ()


@dataclass
class InsertPlan:
    table: TableDef
    #: The VALUES row as compiled expressions by column position;
    #: None → NULL.
    values: list[Optional[Compiled]]

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
    value: ast.Expr       # Literal or Param


def _extract_sargs(where: Optional[ast.Expr],
                   table: TableDef) -> list[_Sarg]:
    """Conjuncts usable as index probes: ``column <op> constant``."""
    sargs: list[_Sarg] = []
    for conjunct in conjuncts(where):
        if not isinstance(conjunct, ast.Comparison) or conjunct.op == "<>":
            continue
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, ast.ColumnRef):
            left, right, op = right, left, _FLIP[op]
        if (isinstance(left, ast.ColumnRef) and left.name in table.positions
                and expr_is_constant(right)):
            sargs.append(_Sarg(left.name, op, right))
    return sargs


# ---------------------------------------------------------------------------
# access-path selection
# ---------------------------------------------------------------------------

def choose_access(catalog: Catalog, table: TableDef,
                  where: Optional[ast.Expr]) -> AccessPath:
    stats = catalog.stats_for(table.name)
    sargs = _extract_sargs(where, table)
    best = AccessPath("table_scan", table.name, None, cost_table_scan(stats))
    for index in catalog.indexes_by_table.get(table.name, []):
        candidate = _index_candidate(index, sargs, stats, table)
        if candidate is not None and candidate.cost < best.cost:
            best = candidate
    return best


def _index_candidate(index: IndexDef, sargs: list[_Sarg], stats: TableStats,
                     table: TableDef) -> Optional[AccessPath]:
    eq_by_col = {s.column: s for s in sargs if s.op == "="}
    eq_exprs: list[Compiled] = []
    n_eq = 0
    for column in index.columns:
        sarg = eq_by_col.get(column)
        if sarg is None:
            break
        eq_exprs.append(compile_expr(sarg.value, table))
        n_eq += 1
    lo = hi = None
    if n_eq < len(index.columns):
        range_col = index.columns[n_eq]
        for sarg in sargs:
            if sarg.column != range_col:
                continue
            compiled = compile_expr(sarg.value, table)
            if sarg.op in (">", ">=") and lo is None:
                lo = (compiled, sarg.op == ">=")
            elif sarg.op in ("<", "<=") and hi is None:
                hi = (compiled, sarg.op == "<=")
    range_bounds = (lo is not None) + (hi is not None)
    if n_eq == 0 and range_bounds == 0:
        return None
    if index.exclude_null and n_eq < len(index.columns):
        # Rows with a NULL key column are not in the index: only an
        # equality on every key column (never true of NULL) is sure to
        # want none of them.
        return None
    cost = cost_index_scan(stats, index, n_eq, range_bounds)
    probe = IndexProbe(index, eq_exprs, lo, hi)
    return AccessPath("index_scan", table.name, probe, cost)


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
    table = catalog.require_table(stmt.table)
    access = choose_access(catalog, table, stmt.where)
    where_filter = (compile_expr(stmt.where, table)
                    if stmt.where is not None else None)

    items: Optional[list[Compiled]] = None
    count = False
    if stmt.items is None:
        columns = table.column_names
    elif any(isinstance(item, ast.CountStar) for item in stmt.items):
        if not all(isinstance(item, ast.CountStar) for item in stmt.items):
            raise SQLTypeError(
                "mixing COUNT(*) and plain columns needs GROUP BY, "
                "which this subset does not support")
        columns = ["count"] * len(stmt.items)
        count = True
    else:
        items = [compile_expr(item, table) for item in stmt.items]
        columns = [item.name if isinstance(item, ast.ColumnRef)
                   else f"col{i + 1}" for i, item in enumerate(stmt.items)]

    order_by = [(compile_expr(o.expr, table), o.descending)
                for o in stmt.order_by]
    limit = (compile_expr(stmt.limit, None)
             if stmt.limit is not None else None)

    except_plan = (_plan_select(catalog, stmt.except_select)
                   if stmt.except_select is not None else None)

    return SelectPlan(access=access, table=table, filter=where_filter,
                      columns=columns, items=items, count=count,
                      order_by=order_by, lock=stmt.lock,
                      limit=limit, except_plan=except_plan,
                      tables=(table.name,))


def _plan_insert(catalog: Catalog, stmt: ast.Insert) -> InsertPlan:
    table = catalog.require_table(stmt.table)
    values: list[Optional[Compiled]] = [None] * len(table.columns)
    for column, value in zip(stmt.columns, stmt.values):
        values[table.position(column)] = compile_expr(value, None)
    return InsertPlan(table, values, tables=(table.name,))


def _plan_update(catalog: Catalog, stmt: ast.Update) -> UpdatePlan:
    table = catalog.require_table(stmt.table)
    access = choose_access(catalog, table, stmt.where)
    where_filter = (compile_expr(stmt.where, table)
                    if stmt.where is not None else None)
    assignments = [(table.position(column), compile_expr(value, table))
                   for column, value in stmt.assignments]
    return UpdatePlan(table, access, where_filter, assignments,
                      tables=(table.name,))


def _plan_delete(catalog: Catalog, stmt: ast.Delete) -> DeletePlan:
    table = catalog.require_table(stmt.table)
    access = choose_access(catalog, table, stmt.where)
    where_filter = (compile_expr(stmt.where, table)
                    if stmt.where is not None else None)
    return DeletePlan(table, access, where_filter, tables=(table.name,))
