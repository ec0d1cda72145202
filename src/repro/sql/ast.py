"""Abstract syntax tree for the SQL subset: one table per statement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str | None


@dataclass(frozen=True)
class Param:
    index: int  # 0-based position of the `?` in the statement


@dataclass(frozen=True)
class ColumnRef:
    name: str  # a column of the statement's one table


@dataclass(frozen=True)
class Comparison:
    op: str  # = | <> | < | <= | > | >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class And:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class InList:
    item: "Expr"
    options: tuple["Expr", ...]


@dataclass(frozen=True)
class Arithmetic:
    op: str  # + | -
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class CountStar:
    """``COUNT(*)`` — the one aggregate, allowed only in the select list."""


Expr = Union[Literal, Param, ColumnRef, Comparison, And, InList, Arithmetic,
             CountStar]


# -- statements ---------------------------------------------------------------

@dataclass(frozen=True)
class SortKey:
    expr: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: Optional[tuple[Expr, ...]]  # None means `*`
    table: str
    where: Optional[Expr] = None
    order_by: tuple[SortKey, ...] = ()
    #: ``FOR SHARE`` / ``FOR UPDATE``: a locking current read at every level.
    lock: Optional[str] = None  # None | "share" | "update"
    except_select: Optional["Select"] = None
    limit: Optional[Expr] = None  # Literal int or Param


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[tuple[str, str], ...]  # (name, type)


@dataclass(frozen=True)
class CreateIndex:
    index: str
    table: str
    columns: tuple[str, ...]
    unique: bool
    #: ``EXCLUDE NULL KEYS`` (DB2 LUW; non-unique indexes only): a row
    #: whose key has a NULL column gets no entry.
    exclude_null: bool = False


@dataclass(frozen=True)
class DropTable:
    table: str


@dataclass(frozen=True)
class DropIndex:
    index: str


Statement = Union[Select, Insert, Update, Delete, CreateTable, CreateIndex,
                  DropTable, DropIndex]
