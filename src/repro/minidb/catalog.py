"""System catalog: table/index definitions and optimizer statistics.

Statistics are the lever of the paper's optimizer lesson (E4): plans are
costed from ``TableStats``, which starts at the DB2 default of zero rows
for a fresh table — so the optimizer prefers table scans until either
RUNSTATS runs or the statistics are *hand-crafted* with
:meth:`Catalog.set_stats` (the paper's utility). Every statistics change
bumps a version, which invalidates bound plans (packages) referencing the
table, forcing re-optimization — exactly the "user ran RUNSTATS and the
plan went bad again" failure mode DLFM guards against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from repro.errors import CatalogError


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str  # INT | FLOAT | TEXT | BOOL


@dataclass
class TableDef:
    name: str
    columns: list[ColumnDef]

    def __post_init__(self) -> None:
        self.positions = {c.name: i for i, c in enumerate(self.columns)}
        if len(self.positions) != len(self.columns):
            raise CatalogError(f"duplicate column in table {self.name}")

    def position(self, column: str) -> int:
        try:
            return self.positions[column]
        except KeyError:
            raise CatalogError(
                f"no column {column!r} in table {self.name}") from None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass
class IndexDef:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool
    #: ``row -> key values`` (always a tuple, also for one column),
    #: resolved from the column positions when the index is created: a
    #: table's columns never move, and every row pays this per index.
    #: None means the row has no entry in this index (``exclude_null``):
    #: every path that adds, removes, locks or rebuilds entries asks
    #: here, so the rule lives in this one function.
    key_of: Callable[[tuple], Optional[tuple]] = field(repr=False,
                                                        compare=False)
    #: ``EXCLUDE NULL KEYS``: a key with a NULL column gets no entry, so
    #: only a probe that binds every key column may read the index.
    exclude_null: bool = False


def _key_extractor(positions: list[int], exclude_null: bool
                   ) -> Callable[[tuple], Optional[tuple]]:
    if len(positions) == 1:
        position = positions[0]

        def values(row: tuple) -> tuple:
            return (row[position],)
    else:
        values = itemgetter(*positions)
    if not exclude_null:
        return values

    def key_of(row: tuple) -> Optional[tuple]:
        key = values(row)
        return None if None in key else key
    return key_of


@dataclass
class TableStats:
    """Optimizer's beliefs about a table — not necessarily the truth."""

    card: int = 0
    npages: int = 1
    colcard: dict[str, int] = field(default_factory=dict)
    manual: bool = False  # hand-crafted by the DLFM statistics utility

    def distinct(self, column: str) -> int:
        return max(1, self.colcard.get(column, max(1, self.card // 10 or 1)))


class Catalog:
    def __init__(self) -> None:
        self.tables: dict[str, TableDef] = {}
        self.indexes: dict[str, IndexDef] = {}
        self.indexes_by_table: dict[str, list[IndexDef]] = {}
        self.stats: dict[str, TableStats] = {}
        self._stats_versions: dict[str, int] = {}

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str, columns: list[ColumnDef]) -> TableDef:
        if name in self.tables:
            raise CatalogError(f"table {name} already exists")
        table = TableDef(name, columns)
        self.tables[name] = table
        self.indexes_by_table[name] = []
        self.stats[name] = TableStats()
        self._stats_versions[name] = 0
        return table

    def drop_table(self, name: str) -> None:
        self.require_table(name)
        del self.tables[name]
        for index in self.indexes_by_table.pop(name, []):
            del self.indexes[index.name]
        self.stats.pop(name, None)
        self._stats_versions.pop(name, None)

    def create_index(self, name: str, table: str, columns: tuple[str, ...],
                     unique: bool, exclude_null: bool = False) -> IndexDef:
        if name in self.indexes:
            raise CatalogError(f"index {name} already exists")
        if unique and exclude_null:
            raise CatalogError(f"index {name}: EXCLUDE NULL KEYS needs a "
                               "non-unique index")
        tdef = self.require_table(table)
        positions = [tdef.position(column) for column in columns]  # validates
        index = IndexDef(name, table, tuple(columns), unique,
                         _key_extractor(positions, exclude_null),
                         exclude_null)
        self.indexes[name] = index
        self.indexes_by_table[table].append(index)
        return index

    def require_table(self, name: str) -> TableDef:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no such table {name}") from None

    def require_index(self, name: str) -> IndexDef:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"no such index {name}") from None

    # -- statistics -----------------------------------------------------------------

    def stats_for(self, table: str) -> TableStats:
        self.require_table(table)
        return self.stats[table]

    def stats_version(self, table: str) -> int:
        return self._stats_versions.get(table, 0)

    def _bump(self, table: str) -> None:
        self._stats_versions[table] = self._stats_versions.get(table, 0) + 1

    def runstats(self, table: str, card: int, npages: int,
                 colcard: dict[str, int]) -> TableStats:
        """Refresh statistics from actual data (clears the manual flag)."""
        self.require_table(table)
        stats = TableStats(card=card, npages=max(1, npages),
                           colcard=dict(colcard), manual=False)
        self.stats[table] = stats
        self._bump(table)
        return stats

    def set_stats(self, table: str, card: int, npages: Optional[int] = None,
                  colcard: Optional[dict[str, int]] = None) -> TableStats:
        """Hand-craft statistics (the paper's catalog-poking utility)."""
        if card < 0:
            raise CatalogError("card must be non-negative")
        self.require_table(table)
        stats = TableStats(
            card=card,
            npages=max(1, npages if npages is not None else card // 32 + 1),
            colcard=dict(colcard or {}),
            manual=True)
        self.stats[table] = stats
        self._bump(table)
        return stats
