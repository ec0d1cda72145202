"""Render parsed SQL expressions back to text.

The datalink engine rewrites application DML (shadow recovery-id columns,
pre-image SELECTs sharing the original WHERE clause); since plans are
bound from SQL text, the engine needs to turn AST fragments back into
SQL. Parameters stay as ``?`` so the original parameter tuple is reused.
"""

from __future__ import annotations

from repro.errors import DataLinkError
from repro.sql import ast


def render_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Literal):
        return render_literal(expr.value)
    if isinstance(expr, ast.Param):
        return "?"
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Comparison):
        return (f"({render_expr(expr.left)} {expr.op} "
                f"{render_expr(expr.right)})")
    if isinstance(expr, ast.And):
        return "(" + " AND ".join(render_expr(i) for i in expr.items) + ")"
    if isinstance(expr, ast.InList):
        options = ", ".join(render_expr(o) for o in expr.options)
        return f"({render_expr(expr.item)} IN ({options}))"
    if isinstance(expr, ast.Arithmetic):
        return (f"({render_expr(expr.left)} {expr.op} "
                f"{render_expr(expr.right)})")
    raise DataLinkError(f"cannot render expression {expr!r}")


def render_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def count_params(expr: ast.Expr) -> int:
    """Number of ``?`` placeholders inside ``expr`` (for slicing the
    original parameter tuple when reusing a WHERE clause)."""
    count = 0

    def walk(node):
        nonlocal count
        if isinstance(node, ast.Param):
            count += 1
        elif isinstance(node, (ast.Comparison, ast.Arithmetic)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.And):
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.InList):
            walk(node.item)
            for option in node.options:
                walk(option)

    walk(expr)
    return count
