"""Abstract syntax tree for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str | bool | None


@dataclass(frozen=True)
class Param:
    index: int  # 0-based position of the `?` in the statement


@dataclass(frozen=True)
class ColumnRef:
    name: str
    qualifier: Optional[str] = None  # table name or alias

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Comparison:
    op: str  # = | <> | < | <= | > | >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class And:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Not:
    item: "Expr"


@dataclass(frozen=True)
class IsNull:
    item: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    item: "Expr"
    options: tuple["Expr", ...]


@dataclass(frozen=True)
class Between:
    item: "Expr"
    low: "Expr"
    high: "Expr"


@dataclass(frozen=True)
class Arithmetic:
    op: str  # + | -
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class FuncCall:
    name: str  # COUNT | MAX | MIN | SUM
    arg: Optional["Expr"]  # None for COUNT(*)


Expr = Union[Literal, Param, ColumnRef, Comparison, And, Or, Not, IsNull,
             InList, Between, Arithmetic, FuncCall]


# -- statements ---------------------------------------------------------------

@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class Join:
    table: TableRef
    on: Expr


@dataclass(frozen=True)
class Select:
    items: Optional[tuple[SelectItem, ...]]  # None means `*`
    table: TableRef
    join: Optional[Join] = None
    where: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    #: ``FOR SHARE`` / ``FOR UPDATE``: a locking current read at every level.
    lock: Optional[str] = None  # None | "share" | "update"
    except_select: Optional["Select"] = None
    limit: Optional[Expr] = None  # Literal int or Param


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    values: tuple[Expr, ...]
    #: Additional value tuples of a multi-row ``VALUES (...), (...)``
    #: insert; ``values`` stays the first (and usually only) row so
    #: single-row consumers keep working unchanged.
    more_rows: tuple[tuple[Expr, ...], ...] = ()

    @property
    def rows(self) -> tuple[tuple[Expr, ...], ...]:
        """Every value tuple, first row included."""
        return (self.values,) + self.more_rows


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


@dataclass(frozen=True)
class DropTable:
    table: str


@dataclass(frozen=True)
class DropIndex:
    index: str


@dataclass(frozen=True)
class Explain:
    """EXPLAIN <statement>: report the chosen access path, don't run it."""
    statement: "Statement"


Statement = Union[Select, Insert, Update, Delete, CreateTable, CreateIndex,
                  DropTable, DropIndex, Explain]
