"""B+tree secondary indexes.

Keys are tuples of column values, encoded so mixed types (and NULLs) have
a total order. Next-key lookup (:meth:`BTree.next_key_after`) is what the
lock manager's ARIES/KVL-style next-key locking hangs off — the feature
whose interaction with DLFM's multi-index tables caused the deadlocks of
lesson §3.2.1/§4 (experiment E3).

Indexes are memory-resident; restart repairs each from its checkpoint
image plus the log tail, so index maintenance needs no WAL records
(documented substitution; DB2 logs index pages, but recovery observable
behaviour is the same). The repaired tree is whole in host memory at
once; what restart defers is the simulated read of each image page,
billed through :attr:`BTree.cold_hook` when an access first meets it.

The tree is keyed by the whole entry ``(ekey, rid)``, separators
included: a separator is the first *entry* of its right subtree, so an
insert or a delete bisects its way to exactly one leaf however many
duplicates of ``ekey`` the index holds, and a scan descends by the
1-tuple ``(elo,)``, which sorts just before every entry whose key starts
with ``elo`` (``(elo + INFINITY_KEY,)`` sorts just after the last of
them). Entries are therefore globally sorted by ``(ekey, rid)``
whatever the insert history — the order :meth:`BTree.bulk_load` builds,
so a tree grown by inserts and the tree restart rebuilds from a
checkpoint image scan identically (DESIGN.md §9, §11).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, Optional

from repro.errors import DuplicateKeyError
from repro.minidb.storage import Rid

#: Sorts after every real key; the lock resource for "insert at end".
#: Appended to a key prefix it sorts after every key with that prefix.
INFINITY_KEY = ((9, None),)
#: Fanout of every index the engine builds (tests build smaller trees).
BTREE_ORDER = 64


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


_NULL = (0, 0)


def encode_key(values: tuple) -> tuple:
    """:func:`encode_value` over a key, the scalar cases written out."""
    return tuple([_NULL if v is None
                  else (1, v) if isinstance(v, (int, float))
                  else (2, v) if isinstance(v, str)
                  else encode_value(v) for v in values])


class _Leaf:
    __slots__ = ("entries", "next")

    def __init__(self) -> None:
        self.entries: list[tuple[tuple, Rid]] = []  # sorted by (ekey, rid)
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list, children: list) -> None:
        self.keys = keys          # separator i = min entry of children[i+1]
        self.children = children


class BTree:
    """One secondary index over a table."""

    def __init__(self, name: str, table: str, columns: tuple[str, ...],
                 unique: bool, order: int = BTREE_ORDER):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self.order = order
        self._root: object = _Leaf()
        self._count = 0
        #: ``hook(low, high)``, called with the entry bounds of every
        #: insert, delete and lookup (``None`` is unbounded) while a
        #: restart's checkpoint-image pages are still unread; it bills
        #: the pages the range meets (``recovery.ColdImagePages``). None
        #: otherwise — the common case pays one attribute test.
        self.cold_hook = None

    def __len__(self) -> int:
        return self._count

    # -- mutation ------------------------------------------------------------

    def insert(self, key_values: tuple, rid: Rid) -> None:
        ekey = encode_key(key_values)
        if self.unique and self._equal_run(ekey):
            raise DuplicateKeyError(
                f"duplicate key {key_values!r} in unique index {self.name}")
        entry = (ekey, rid)
        if self.cold_hook is not None:
            self.cold_hook(entry, entry)
        path = []
        node = self._root
        while type(node) is _Inner:
            idx = bisect_right(node.keys, entry)
            path.append((node, idx))
            node = node.children[idx]
        insort(node.entries, entry)
        self._count += 1
        if len(node.entries) <= self.order:
            return
        sep, right = self._split_leaf(node)
        while path:
            node, idx = path.pop()
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right)
            if len(node.children) <= self.order:
                return
            sep, right = self._split_inner(node)
        self._root = _Inner([sep], [self._root, right])

    def delete(self, key_values: tuple, rid: Rid) -> bool:
        """Remove one (key, rid) entry; returns False if absent."""
        entry = (encode_key(key_values), rid)
        if self.cold_hook is not None:
            self.cold_hook(entry, entry)
        entries = self._leaf_for(entry).entries
        idx = bisect_left(entries, entry)
        if idx < len(entries) and entries[idx] == entry:
            del entries[idx]
            self._count -= 1
            return True
        return False

    # -- lookup ------------------------------------------------------------------

    def search_eq(self, key_values: tuple) -> list[Rid]:
        return [rid for _, rid in self._equal_run(encode_key(key_values))]

    def scan_range(self, lo: Optional[tuple], lo_inclusive: bool,
                   hi: Optional[tuple], hi_inclusive: bool
                   ) -> Iterator[tuple[tuple, Rid]]:
        """Yield ``(encoded_key, rid)`` for keys in the given bounds.

        Bounds are *prefix* key-value tuples (may cover only leading
        columns) and compare against the same-length prefix of each key
        (SQL range semantics: ``a > 5`` excludes every key whose first
        column is 5); ``None`` means unbounded on that side. Equal bounds
        (an equality probe) are encoded once: equal values encode equal.
        """
        elo = encode_key(lo) if lo is not None else None
        if hi == lo:
            ehi = elo
        else:
            ehi = encode_key(hi) if hi is not None else None
        # As entry bounds: (e,) sorts just before every entry whose key
        # starts with e, (e + INFINITY_KEY,) just after the last of them.
        low = high = None
        if elo is not None:
            low = (elo,) if lo_inclusive else (elo + INFINITY_KEY,)
        if ehi is not None:
            high = (ehi + INFINITY_KEY,) if hi_inclusive else (ehi,)
        yield from self._run(low, high)

    def next_key_after(self, key_values: Optional[tuple]) -> tuple:
        """Smallest encoded key strictly greater than ``key_values``.

        ``None`` asks for the smallest key overall. Returns
        :data:`INFINITY_KEY` when no such key exists — the lock manager
        uses it as the "end of index" lock resource.
        """
        low = ((encode_key(key_values) + INFINITY_KEY,)
               if key_values is not None else None)
        leaf, idx = self._seek(low)
        found = None
        while leaf is not None:
            if idx < len(leaf.entries):
                found = leaf.entries[idx]
                break
            leaf, idx = leaf.next, 0
        if self.cold_hook is not None:
            self.cold_hook(low, found)
        return INFINITY_KEY if found is None else found[0]

    # -- internals ----------------------------------------------------------------

    def _equal_run(self, ekey: tuple) -> list:
        """Every entry whose key is, or starts with, ``ekey``."""
        return self._run((ekey,), (ekey + INFINITY_KEY,))

    def _run(self, low: Optional[tuple], high: Optional[tuple]) -> list:
        """Every entry ``e`` with ``low <= e < high``, in order (None is
        unbounded): one descent, then one bisect per leaf — no entry is
        compared one by one."""
        if self.cold_hook is not None:
            self.cold_hook(low, high)
        leaf, start = self._seek(low)
        found: list = []
        while leaf is not None:
            entries = leaf.entries
            stop = (len(entries) if high is None
                    else bisect_left(entries, high, start))
            found += entries[start:stop]
            if stop < len(entries):
                break
            leaf, start = leaf.next, 0
        return found

    def _seek(self, bound: Optional[tuple]):
        """``(leaf, index)`` of the first entry ``>= bound`` — possibly
        one past the leaf's end, when that entry opens the next leaf."""
        if bound is None:
            return self._leftmost(), 0
        leaf = self._leaf_for(bound)
        return leaf, bisect_left(leaf.entries, bound)

    def _leftmost(self) -> _Leaf:
        node = self._root
        while type(node) is _Inner:
            node = node.children[0]
        return node

    def _leaf_for(self, bound: tuple) -> _Leaf:
        """The one leaf ``bound`` belongs in: an entry ``(ekey, rid)``, or
        a scan's 1-tuple bound. Separators are entries, and an entry equal
        to a separator is the first of the right subtree."""
        node = self._root
        while type(node) is _Inner:
            node = node.children[bisect_right(node.keys, bound)]
        return node

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.entries) // 2
        right = _Leaf()
        right.entries = leaf.entries[mid:]
        leaf.entries = leaf.entries[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.entries[0], right

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

    def items(self) -> list[tuple[tuple, Rid]]:
        """A new list of every ``(encoded_key, rid)`` pair in key order.

        Used by checkpoints to snapshot the index image that instant
        recovery repairs from (DESIGN.md §11): one list extend per leaf.
        """
        pairs: list[tuple[tuple, Rid]] = []
        leaf = self._leftmost()
        while leaf is not None:
            pairs += leaf.entries
            leaf = leaf.next
        return pairs

    def bulk_load(self, pairs) -> None:
        """Reload from ``(encoded_key, rid)`` pairs, in any order.

        Sorts the run once, then builds bottom-up: sequential leaf fills
        chained left-to-right, then inner levels over their minimum
        entries — the classic LOAD-style build, with no per-pair descent
        or splits. Duplicate keys are kept (entries are (key, rid) pairs);
        uniqueness is bypassed: callers pass checkpoint images or
        pre-checked LOAD runs that were consistent when taken.
        """
        entries = sorted((tuple(ekey), rid) for ekey, rid in pairs)
        self.clear()
        self._count = len(entries)
        if not entries:
            return
        level: list[tuple[tuple, object]] = []  # (min entry, node)
        previous: Optional[_Leaf] = None
        for start in range(0, len(entries), self.order):
            leaf = _Leaf()
            leaf.entries = entries[start:start + self.order]
            if previous is not None:
                previous.next = leaf
            previous = leaf
            level.append((leaf.entries[0], leaf))
        while len(level) > 1:
            parents = []
            for start in range(0, len(level), self.order):
                group = level[start:start + self.order]
                node = _Inner([low for low, _ in group[1:]],
                              [child for _, child in group])
                parents.append((group[0][0], node))
            level = parents
        self._root = level[0][1]
