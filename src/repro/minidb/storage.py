"""Disk, buffer pool and heap files.

Storage is deliberately synchronous: the only blocking points inside the
engine are lock waits. I/O volume is *metered* here (buffer misses, page
writes, log forces) and converted into virtual time by the session layer
after each statement, which keeps the event count of big simulations low
without losing the timing behaviour.

Durability model: the :class:`Disk` holds immutable snapshots of pages;
the buffer pool is a write-back cache over it (steal/no-force). A crash
drops the buffer pool and the unforced log tail; restart redoes/undoes
from the log (see ``recovery.py``).

Every dirty frame carries its recLSN, the LSN of its oldest change not
yet on disk; checkpoints write no page, their truncation floor keeps
the log from the oldest recLSN on, and the database's background page
worker (``Database._page_worker``) writes the pages that hold the
floor. Every write obeys the WAL rule: a page goes to disk only once
the log covers its page LSN.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import DatabaseError
from repro.minidb.config import Unbilled

#: RID: (page number, slot number) within a table's heap.
Rid = tuple[int, int]


class HeapPage:
    """In-memory image of one heap page."""

    __slots__ = ("page_no", "slots", "page_lsn")

    def __init__(self, page_no: int, capacity: int,
                 slots: Optional[list] = None, page_lsn: int = 0):
        self.page_no = page_no
        self.slots: list[Optional[tuple]] = (
            list(slots) if slots is not None else [None] * capacity)
        self.page_lsn = page_lsn

    @property
    def free_slots(self) -> int:
        return sum(1 for slot in self.slots if slot is None)

    def first_free(self) -> Optional[int]:
        for i, slot in enumerate(self.slots):
            if slot is None:
                return i
        return None

    def free_rids(self) -> Iterator[tuple[int, int]]:
        return ((self.page_no, i) for i, slot in enumerate(self.slots)
                if slot is None)


class Disk:
    """Durable page store: table → page_no → (page_lsn, row snapshot).

    Also holds the checkpoint-time secondary-index images instant
    recovery repairs from (chain-driven per-index repair instead of a
    full-heap rebuild): index name → list of (encoded key, rid) pairs,
    written by ``Database.checkpoint`` and consumed by ``recovery.py``.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[int, tuple[int, tuple]]] = {}
        self._index_images: dict[str, list] = {}

    def write_page(self, table: str, page: HeapPage) -> None:
        self._tables.setdefault(table, {})[page.page_no] = (
            page.page_lsn, tuple(page.slots))

    def read_page(self, table: str, page_no: int,
                  capacity: int) -> Optional[HeapPage]:
        stored = self._tables.get(table, {}).get(page_no)
        if stored is None:
            return None
        page_lsn, slots = stored
        return HeapPage(page_no, capacity, slots=list(slots),
                        page_lsn=page_lsn)

    def page_numbers(self, table: str) -> list[int]:
        return sorted(self._tables.get(table, {}))

    def page_lsn(self, table: str, page_no: int) -> int:
        """Durable page LSN without a buffer-pool fetch (0 = no page)."""
        stored = self._tables.get(table, {}).get(page_no)
        return stored[0] if stored is not None else 0

    def page_lsns(self) -> Iterator[tuple[str, int, int]]:
        """Every durable page as ``(table, page_no, page LSN)``."""
        for table, pages in self._tables.items():
            for page_no, (page_lsn, _) in pages.items():
                yield table, page_no, page_lsn

    def drop_table(self, table: str) -> None:
        self._tables.pop(table, None)

    # -- index images (checkpoint ↔ instant recovery) -------------------------

    def store_index_image(self, name: str, pairs: list) -> None:
        self._index_images[name] = list(pairs)

    def load_index_image(self, name: str) -> Optional[list]:
        pairs = self._index_images.get(name)
        return list(pairs) if pairs is not None else None

    def drop_index_image(self, name: str) -> None:
        self._index_images.pop(name, None)


@dataclass
class BufferMetrics:
    hits: int = 0
    misses: int = 0
    #: Dirty pages written by a steal (an eviction).
    page_writes: int = 0
    #: Dirty pages written by the background page worker.
    cleaned: int = 0


class BufferPool:
    """Write-back LRU page cache over the :class:`Disk`.

    ``wal`` is the log whose ``flushed_upto`` the WAL rule reads, and
    ``force_log`` forces all of it when a steal finds no frame it
    covers; a pool without a log (storage unit tests) treats every page
    as covered.
    """

    def __init__(self, disk: Disk, capacity: int, rows_per_page: int,
                 unbilled: Unbilled, wal=None,
                 force_log: Optional[Callable[[], None]] = None):
        self.disk = disk
        self.capacity = capacity
        self.rows_per_page = rows_per_page
        self._frames: "OrderedDict[tuple[str, int], HeapPage]" = OrderedDict()
        #: Dirty frame → recLSN. A frame enters at its first change
        #: since it was last written, so insertion order is recLSN order
        #: (LSNs only grow) — except for pages restart replays, whose
        #: recLSN is the first record replayed.
        self._dirty: dict[tuple[str, int], int] = {}
        self.metrics = BufferMetrics()
        #: The database's accumulator: every miss and write is a page I/O.
        self.unbilled = unbilled
        self.wal = wal
        self.force_log = force_log

    def fetch(self, table: str, page_no: int, create: bool = False) -> HeapPage:
        key = (table, page_no)
        page = self._frames.get(key)
        if page is not None:
            self._frames.move_to_end(key)
            self.metrics.hits += 1
            return page
        page = self.disk.read_page(table, page_no, self.rows_per_page)
        if page is None:
            if not create:
                raise DatabaseError(f"missing page {table}:{page_no}")
            page = HeapPage(page_no, self.rows_per_page)
        else:
            self.metrics.misses += 1
            self.unbilled.pages += 1
        self._frames[key] = page
        self._evict_if_needed()
        return page

    def mark_dirty(self, table: str, page_no: int, lsn: int) -> None:
        """Note a change logged at ``lsn``; the first since the page was
        last written sets its recLSN."""
        self._dirty.setdefault((table, page_no), lsn)

    def _covered(self, page: HeapPage) -> bool:
        """WAL rule: may ``page`` go to disk now?"""
        return self.wal is None or page.page_lsn <= self.wal.flushed_upto

    def _evict_if_needed(self) -> None:
        """Evict the least recently used frame — but a dirty one only
        once the log covers it (WAL rule)."""
        frames, dirty = self._frames, self._dirty
        while len(frames) > self.capacity:
            victim = next(iter(frames))
            if victim in dirty and not self._covered(frames[victim]):
                victim = self._steal_victim()
            page = frames.pop(victim)
            if dirty.pop(victim, None) is not None:
                self._write(victim, page)
                self.metrics.page_writes += 1

    def _steal_victim(self) -> tuple[str, int]:
        """The least recently used frame the log covers, skipping those
        ahead of it; when every one is, force the log first, inside the
        statement, which pays one page I/O for the log page written. The
        frame just fetched is never the victim."""
        older = islice(self._frames.items(), len(self._frames) - 1)
        victim = next((key for key, page in older
                       if key not in self._dirty or self._covered(page)),
                      None)
        if victim is None:
            self.force_log()
            self.unbilled.pages += 1
            victim = next(iter(self._frames))
        return victim

    def _write(self, key: tuple[str, int], page: HeapPage) -> None:
        self.disk.write_page(key[0], page)
        self.unbilled.pages += 1

    # -- the page worker's view -------------------------------------------------

    def rec_lsn(self, key: tuple[str, int]) -> Optional[int]:
        """The dirty page's recLSN (None when ``key`` is clean)."""
        return self._dirty.get(key)

    def oldest_rec_lsn(self) -> Optional[int]:
        """The smallest recLSN of any dirty page (the log floor it sets)."""
        return min(self._dirty.values(), default=None)

    def dirty_below(self, lsn: int) -> list[tuple[str, int]]:
        """Dirty pages whose recLSN is below ``lsn``, oldest first."""
        dirty = self._dirty
        return sorted((key for key, rec in dirty.items() if rec < lsn),
                      key=dirty.__getitem__)

    def page_lsn(self, key: tuple[str, int]) -> int:
        """Page LSN of a resident frame (every dirty page is resident)."""
        return self._frames[key].page_lsn

    def clean(self, key: tuple[str, int]) -> None:
        """Write one dirty page (the page worker's step; the worker
        has made the log cover it)."""
        del self._dirty[key]
        self._write(key, self._frames[key])
        self.metrics.cleaned += 1

    def flush_all(self) -> int:
        """Write every dirty page the log covers; returns pages written.

        The engine never calls it: a checkpoint writes no page, and the
        page worker writes one page at a time (:meth:`clean`). It is
        kept for the tracers that hook the storage layer by this name.
        """
        covered = [key for key in self._dirty
                   if self._covered(self._frames[key])]
        for key in covered:
            self.clean(key)
        return len(covered)

    def drop_table(self, table: str) -> None:
        for key in [k for k in self._frames if k[0] == table]:
            del self._frames[key]
            self._dirty.pop(key, None)
        self.disk.drop_table(table)

    def clear(self) -> None:
        """Crash: lose all cached (including dirty) pages."""
        self._frames.clear()
        self._dirty.clear()


class Heap:
    """Slotted heap file for one table, accessed through the buffer pool."""

    def __init__(self, table: str, pool: BufferPool):
        self.table = table
        self.pool = pool
        self.rows_per_page = pool.rows_per_page
        self._page_count = 0
        self._free_pages: set[int] = set()
        #: Free-space hint: lazy min-heap mirror of ``_free_pages``. May
        #: hold stale or duplicate page numbers; they are popped on first
        #: contact. Keeps "lowest page with space" amortized O(log n)
        #: instead of scanning the whole free set per insert.
        self._free_heap: list[int] = []
        self._row_count = 0
        #: Instant-recovery replay gate: when set, called with a page
        #: number before ANY page access, replaying that page's pending
        #: log chain first (see ``Database.replay_page``). None outside
        #: of a lazy restart — the common case pays one attribute test.
        self.replay_hook = None

    # -- bootstrap --------------------------------------------------------------

    @classmethod
    def recover_lazy(cls, table: str, pool: BufferPool,
                     chain_pages: Iterable[int] = ()) -> "Heap":
        """Heap bookkeeping without reading a single page.

        ``chain_pages`` are pages named by pending per-page log chains
        (they may not exist on disk yet). The page count must be exact —
        it keeps fresh inserts off rid ranges the replay will fill — but
        the free-space map starts empty: new inserts land on fresh pages
        and ``_row_count`` only counts rows seen so far (documented
        deviation; statistics catch up via RUNSTATS or pinned stats).
        """
        heap = cls(table, pool)
        numbers = pool.disk.page_numbers(table)
        if numbers:
            heap._page_count = numbers[-1] + 1
        for page_no in chain_pages:
            heap._page_count = max(heap._page_count, page_no + 1)
        return heap

    # -- geometry (feeds optimizer statistics) -----------------------------------

    @property
    def npages(self) -> int:
        return self._page_count

    @property
    def nrows(self) -> int:
        return self._row_count

    # -- operations ---------------------------------------------------------------

    def free_rids(self) -> Iterator[Rid]:
        """Free slots in the order an insert prefers them: pages with
        space lowest first (a committed delete's space is reused before
        the heap grows), then the slots of a fresh page. The executor
        X-locks the first one nobody else holds *before* inserting, so a
        slot an uncommitted deleter still X-locks can neither expose
        dirty data nor make the insert queue (DESIGN §9).
        """
        lowest = self._first_page_with_space()
        if lowest is not None:
            yield from lowest.free_rids()
            for page_no in sorted(self._free_pages - {lowest.page_no}):
                yield from self._page_for(page_no).free_rids()
        for slot_no in range(self.rows_per_page):
            yield (self._page_count, slot_no)

    def is_free(self, rid: Rid) -> bool:
        if rid[0] >= self._page_count:
            return True
        page = self._page_for(rid[0])
        return page.slots[rid[1]] is None

    def insert(self, row: tuple, rid: Rid) -> Rid:
        """Place ``row`` at ``rid``, a free slot its caller chose (the
        executor from :meth:`free_rids`, undo and replay from the log)."""
        page = self._page_for(rid[0], create=True)
        if page.slots[rid[1]] is not None:
            raise DatabaseError(f"insert into occupied slot {rid}")
        page.slots[rid[1]] = row
        if page.free_slots == 0:
            self._free_pages.discard(page.page_no)
        else:
            self._note_free(page.page_no)
        self.pool.mark_dirty(self.table, page.page_no, page.page_lsn)
        self._row_count += 1
        return rid

    def delete(self, rid: Rid) -> tuple:
        page = self._page_for(rid[0])
        row = page.slots[rid[1]]
        if row is None:
            raise DatabaseError(f"delete of empty slot {self.table}:{rid}")
        page.slots[rid[1]] = None
        self._note_free(page.page_no)
        self.pool.mark_dirty(self.table, page.page_no, page.page_lsn)
        self._row_count -= 1
        return row

    def update(self, rid: Rid, new_row: tuple) -> tuple:
        page = self._page_for(rid[0])
        old = page.slots[rid[1]]
        if old is None:
            raise DatabaseError(f"update of empty slot {self.table}:{rid}")
        page.slots[rid[1]] = new_row
        self.pool.mark_dirty(self.table, page.page_no, page.page_lsn)
        return old

    def fetch(self, rid: Rid) -> Optional[tuple]:
        if rid[0] >= self._page_count:
            return None
        page = self._page_for(rid[0])
        return page.slots[rid[1]]

    def scan(self) -> Iterator[tuple[Rid, tuple]]:
        for page_no in range(self._page_count):
            page = self._page_for(page_no)
            for slot_no, row in enumerate(page.slots):
                if row is not None:
                    yield (page_no, slot_no), row

    def set_page_lsn(self, page_no: int, lsn: int) -> None:
        """Stamp the page with the record logged for a change to it,
        before the change is made: the first since the page was last
        written sets its recLSN."""
        page = self._page_for(page_no, create=True)
        self.pool.mark_dirty(self.table, page_no, lsn)
        page.page_lsn = max(page.page_lsn, lsn)

    def page_lsn(self, page_no: int) -> int:
        return self._page_for(page_no, create=True).page_lsn

    # -- internals -------------------------------------------------------------

    def _page_for(self, page_no: int, create: bool = False) -> HeapPage:
        if self.replay_hook is not None:
            # On-demand REDO: drain this page's pending log chain before
            # anyone sees the page. The hook removes the page from the
            # pending set before applying, so the replay's own accesses
            # pass straight through (no recursion).
            self.replay_hook(self.table, page_no)
        if page_no >= self._page_count:
            if not create:
                raise DatabaseError(
                    f"page {page_no} beyond heap {self.table}")
            for missing in range(self._page_count, page_no + 1):
                self._note_free(missing)
            self._page_count = page_no + 1
            return self.pool.fetch(self.table, page_no, create=True)
        return self.pool.fetch(self.table, page_no, create=True)

    def _note_free(self, page_no: int) -> None:
        if page_no not in self._free_pages:
            self._free_pages.add(page_no)
            heapq.heappush(self._free_heap, page_no)

    def _first_page_with_space(self) -> Optional[HeapPage]:
        """Lowest-numbered page with a free slot, via the hint heap.
        Stale entries (removed or refilled pages) pop lazily."""
        while self._free_heap:
            page_no = self._free_heap[0]
            if page_no not in self._free_pages:
                heapq.heappop(self._free_heap)
                continue
            page = self._page_for(page_no)
            if page.first_free() is None:
                self._free_pages.discard(page_no)
                heapq.heappop(self._free_heap)
                continue
            return page
        return None
