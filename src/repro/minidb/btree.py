"""B+tree secondary indexes.

Keys are tuples of column values, encoded so mixed types (and NULLs) have
a total order. Next-key lookup (:meth:`BTree.next_key_after`) is what the
lock manager's ARIES/KVL-style next-key locking hangs off — the feature
whose interaction with DLFM's multi-index tables caused the deadlocks of
lesson §3.2.1/§4 (experiment E3).

Indexes are memory-resident and rebuilt from the heap at restart, so index
maintenance needs no WAL records (documented substitution; DB2 logs index
pages, but recovery observable behaviour is the same).
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from repro.errors import DuplicateKeyError
from repro.minidb.storage import Rid

#: Sorts after every real key; the lock resource for "insert at end".
INFINITY_KEY = ((9, None),)


def encode_value(value) -> tuple:
    """Encode one column value so heterogeneous values totally order.

    NULL sorts lowest (rank 0); bools are ints in Python so they share the
    numeric rank.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, (tuple, list)):
        return (3, tuple(encode_value(v) for v in value))
    raise TypeError(f"unindexable value {value!r}")


def encode_key(values: tuple) -> tuple:
    return tuple(encode_value(v) for v in values)


class _Leaf:
    __slots__ = ("entries", "next")

    def __init__(self) -> None:
        self.entries: list[tuple[tuple, Rid]] = []  # sorted by (ekey, rid)
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list, children: list) -> None:
        self.keys = keys          # separator i = min key of children[i+1]
        self.children = children


class BTree:
    """One secondary index over a table."""

    def __init__(self, name: str, table: str, columns: tuple[str, ...],
                 unique: bool, order: int = 64):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self.order = order
        self._root: object = _Leaf()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- mutation ------------------------------------------------------------

    def insert(self, key_values: tuple, rid: Rid) -> None:
        ekey = encode_key(key_values)
        if self.unique and self._exists(ekey):
            raise DuplicateKeyError(
                f"duplicate key {key_values!r} in unique index {self.name}")
        split = self._insert(self._root, ekey, rid)
        if split is not None:
            sep, right = split
            self._root = _Inner([sep], [self._root, right])
        self._count += 1

    def delete(self, key_values: tuple, rid: Rid) -> bool:
        """Remove one (key, rid) entry; returns False if absent."""
        ekey = encode_key(key_values)
        leaf = self._leaf_for(ekey)
        while leaf is not None:
            idx = bisect.bisect_left(leaf.entries, (ekey, rid))
            if idx < len(leaf.entries) and leaf.entries[idx] == (ekey, rid):
                del leaf.entries[idx]
                self._count -= 1
                return True
            if leaf.entries and leaf.entries[0][0] > ekey:
                return False
            leaf = leaf.next
        return False

    # -- lookup ------------------------------------------------------------------

    def search_eq(self, key_values: tuple) -> list[Rid]:
        ekey = encode_key(key_values)
        return [rid for _, rid in self._scan_encoded(ekey, True, ekey, True)]

    def scan_range(self, lo: Optional[tuple], lo_inclusive: bool,
                   hi: Optional[tuple], hi_inclusive: bool
                   ) -> Iterator[tuple[tuple, Rid]]:
        """Yield ``(encoded_key, rid)`` for keys in the given bounds.

        Bounds are *prefix* key-value tuples (may cover only leading
        columns); ``None`` means unbounded on that side.
        """
        elo = encode_key(lo) if lo is not None else None
        ehi = encode_key(hi) if hi is not None else None
        yield from self._scan_encoded(elo, lo_inclusive, ehi, hi_inclusive)

    def next_key_after(self, key_values: Optional[tuple]) -> tuple:
        """Smallest encoded key strictly greater than ``key_values``.

        ``None`` asks for the smallest key overall. Returns
        :data:`INFINITY_KEY` when no such key exists — the lock manager
        uses it as the "end of index" lock resource.
        """
        ekey = encode_key(key_values) if key_values is not None else None
        for found, _ in self._scan_encoded(ekey, False, None, True):
            return found
        return INFINITY_KEY

    # -- internals ----------------------------------------------------------------

    def _exists(self, ekey: tuple) -> bool:
        for _ in self._scan_encoded(ekey, True, ekey, True):
            return True
        return False

    def _scan_encoded(self, elo, lo_inclusive, ehi, hi_inclusive):
        # Bounds are prefixes: a bound covering only leading columns
        # compares against the same-length prefix of each key (SQL range
        # semantics: ``a > 5`` excludes every key whose first column is 5).
        if elo is None:
            leaf, start = self._leftmost(), 0
        else:
            # Entries sort by (ekey, rid) and a prefix sorts before every
            # key it prefixes, so (elo,) bisects to the first entry whose
            # prefix is >= elo; from there on the low bound always holds,
            # except that an exclusive bound still skips its equal run.
            leaf = self._leaf_for(elo)
            start = bisect.bisect_left(leaf.entries, (elo,))
        skip_equal = elo is not None and not lo_inclusive
        while leaf is not None:
            for ekey, rid in leaf.entries[start:] if start else leaf.entries:
                if skip_equal:
                    if ekey[: len(elo)] == elo:
                        continue
                    skip_equal = False
                if ehi is not None:
                    prefix = ekey[: len(ehi)]
                    if prefix > ehi or (prefix == ehi and not hi_inclusive):
                        return
                yield ekey, rid
            leaf, start = leaf.next, 0

    def _leftmost(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        return node

    def _leaf_for(self, ekey: tuple) -> _Leaf:
        # bisect_left so a search key equal to a separator descends LEFT:
        # duplicates of the separator key may live in the left subtree.
        node = self._root
        while isinstance(node, _Inner):
            idx = bisect.bisect_left(node.keys, ekey)
            node = node.children[idx]
        return node

    def _insert(self, node, ekey: tuple, rid: Rid):
        if isinstance(node, _Leaf):
            bisect.insort(node.entries, (ekey, rid))
            if len(node.entries) > self.order:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, ekey)
        split = self._insert(node.children[idx], ekey, rid)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.entries) // 2
        right = _Leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.entries[0][0], right

    def _split_inner(self, node: _Inner):
        mid = len(node.children) // 2
        sep = node.keys[mid - 1]
        right = _Inner(node.keys[mid:], node.children[mid:])
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        return sep, right

    # -- maintenance ---------------------------------------------------------------

    def clear(self) -> None:
        self._root = _Leaf()
        self._count = 0

    def items(self) -> Iterator[tuple[tuple, Rid]]:
        """Every ``(encoded_key, rid)`` pair in key order.

        Used by checkpoints to snapshot the index image that instant
        recovery repairs from (DESIGN.md §11).
        """
        leaf = self._leftmost()
        while leaf is not None:
            yield from leaf.entries
            leaf = leaf.next

    def bulk_load(self, pairs) -> None:
        """Reload from ``(encoded_key, rid)`` pairs, in any order.

        Sorts the run once, then builds bottom-up: sequential leaf fills
        chained left-to-right, then inner levels over their minimum keys
        — the classic LOAD-style build, with no per-pair descent or
        splits. Duplicate keys are kept (entries are (key, rid) pairs);
        uniqueness is bypassed: callers pass checkpoint images or
        pre-checked LOAD runs that were consistent when taken.
        """
        entries = sorted((tuple(ekey), rid) for ekey, rid in pairs)
        self.clear()
        self._count = len(entries)
        if not entries:
            return
        level: list[tuple[tuple, object]] = []
        previous: Optional[_Leaf] = None
        for start in range(0, len(entries), self.order):
            leaf = _Leaf()
            leaf.entries = entries[start:start + self.order]
            if previous is not None:
                previous.next = leaf
            previous = leaf
            level.append((leaf.entries[0][0], leaf))
        while len(level) > 1:
            parents = []
            for start in range(0, len(level), self.order):
                group = level[start:start + self.order]
                node = _Inner([key for key, _ in group[1:]],
                              [child for _, child in group])
                parents.append((group[0][0], node))
            level = parents
        self._root = level[0][1]

    @property
    def nlevels(self) -> int:
        levels = 1
        node = self._root
        while isinstance(node, _Inner):
            levels += 1
            node = node.children[0]
        return levels
