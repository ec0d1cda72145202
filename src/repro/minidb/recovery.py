"""Restart recovery: instant, REDO-only restart (Sauer & Härder).

Runs against the durable state only: disk page images plus the forced
prefix of the WAL.

Analysis reads only the durable tail since the last checkpoint (the
checkpoint payload carries the transaction table and the per-page
chain-head snapshot). REDO is *deferred*: each page's pending log chain
— the records above its durable page LSN, which may reach below the
checkpoint, since checkpoints are fuzzy and write no page; the log keeps
them from the oldest dirty page's recLSN on (``Database._log_floor``) —
is recorded in ``db.replay_pending`` and replayed on first touch through
the heap's replay gate (``Database.replay_page``) or by the database's
background page worker (``Database._page_worker``). Secondary indexes
are repaired from their checkpoint images plus the tail deltas instead
of a full-heap rebuild; the tree is rebuilt whole in host memory, but
each image page is *read* (billed) on demand too: by the first statement
whose key range meets it (:class:`ColdImagePages`) or by the same
worker.
Undo of loser transactions and prepared-transaction lock resurrection
stay eager, so the engine is transaction-consistent (and accepts new
work) the moment ``restart()`` returns, after tail-proportional work
only.

Undo writes CLRs so a crash during recovery is itself recoverable; the
closing checkpoint writes none of the pages undo dirtied and spawns the
page worker, which replays and reads what is still deferred and then
writes them, in the background. The
foreground I/O (the log-tail scan and undo's page reads) accumulates in
the database's unbilled pages and is converted, at the end of recovery,
into ``Database.traffic_open_at`` — a gate every new statement waits
out. That is how "time to first commit" materializes in simulated time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.minidb import wal as walmod
from repro.minidb.config import (INDEX_IMAGE_ENTRIES_PER_PAGE,
                                 LOG_RECORDS_PER_PAGE)
from repro.minidb.storage import Heap


def _close_traffic_gate(db) -> None:
    """Convert recovery's parked foreground I/O into a statement gate.

    Everything recovery read or wrote through the pool landed in the
    unbilled pages; draining them here (instead of letting whichever
    session touches the pool first pay) models the restart window during
    which the engine is genuinely unavailable to ALL traffic.
    """
    db.traffic_open_at = db.sim.now + db.unbilled.drain(entries=False)


class ColdImagePages:
    """The unread pages of one index's checkpoint image, and the
    tree's :attr:`~repro.minidb.btree.BTree.cold_hook` while any is left.

    The image is dense sorted ``(key, rid)`` runs, so page ``i`` holds
    the entries from ``firsts[i]`` up to ``firsts[i + 1]``. An access
    reads every unread page its entry range meets: one page I/O each
    into ``db.unbilled`` — the statement that touched it pays, as for a
    pool miss — and the page worker reads the rest.
    """

    __slots__ = ("btree", "db", "firsts", "unread")

    def __init__(self, db, btree):
        """Call right after ``btree.bulk_load(image)``: the tree's
        entries are then exactly the image, in sorted order."""
        self.db = db
        self.btree = btree
        self.firsts = btree.items()[::INDEX_IMAGE_ENTRIES_PER_PAGE]
        self.unread = set(range(
            -(-len(btree) // INDEX_IMAGE_ENTRIES_PER_PAGE)))

    def __call__(self, low: Optional[tuple], high: Optional[tuple]) -> None:
        """Read the pages that can hold an entry between ``low`` and
        ``high`` (entry bounds, ``None`` unbounded)."""
        firsts = self.firsts
        first = 0 if low is None else max(0, bisect_right(firsts, low) - 1)
        last = (len(firsts) - 1 if high is None
                else max(first, bisect_right(firsts, high) - 1))
        for page in range(first, last + 1):
            if page in self.unread:
                self.read(page)
                self.db.metrics.index_pages_read += 1

    def read(self, page: int) -> None:
        """Read one unread page; the last read takes the hook off."""
        self.unread.discard(page)
        self.db.unbilled.pages += 1
        if not self.unread:
            self.btree.cold_hook = None


class _RecoveryTxn:
    """Shim giving the WAL a chain head for recovery-time CLRs."""

    def __init__(self, txn_id: int, last_lsn: Optional[int]):
        self.id = txn_id
        self.last_lsn = last_lsn
        self.first_lsn = last_lsn


def recover(db) -> dict:
    """Bring ``db`` to a transaction-consistent state; returns a summary."""
    wal = db.wal
    ckpt = wal.last_checkpoint_lsn
    records = wal.since(ckpt)  # after crash(): durable records only
    losers, prepared, committed, last_lsn, first_lsn = _analyze(
        records, wal.record(ckpt).payload["txn_table"] if ckpt else {})
    # The log scan is foreground I/O for the traffic gate (pages, rounded up).
    db.unbilled.pages += -(-len(records) // LOG_RECORDS_PER_PAGE)
    redone = _redo(db, records)
    # The trees already hold crash-time state, so undo maintains them
    # (touched heap pages replay, and touched index-image pages are
    # read, before a before-image lands).
    undone = _undo_losers(db, losers)
    _resurrect_prepared(db, prepared, last_lsn, first_lsn)
    db.checkpoint()
    _close_traffic_gate(db)
    return {"redone": redone, "undone": undone,
            "losers": sorted(losers), "committed": sorted(committed),
            "prepared": sorted(prepared)}


def _analyze(records, txn_table: dict) -> tuple:
    """ARIES analysis of ``records`` on top of a checkpoint's transaction
    table (``{}`` when ``records`` is the whole log). Returns ``(losers,
    prepared, committed, last_lsn, first_lsn)``."""
    last_lsn: dict[int, int] = {}
    first_lsn: dict[int, int] = {}
    prepared: set[int] = set()
    for txn_id, info in txn_table.items():
        if info.get("last") is not None:
            last_lsn[txn_id] = info["last"]
            first_lsn[txn_id] = info.get("first") or info["last"]
        if info.get("prepared"):
            prepared.add(txn_id)
    ended: set[int] = set()
    committed: set[int] = set()
    for record in records:
        if record.txn_id == 0:
            continue
        if record.kind in (walmod.COMMIT, walmod.ABORT):
            ended.add(record.txn_id)
            prepared.discard(record.txn_id)
            if record.kind == walmod.COMMIT:
                committed.add(record.txn_id)
        else:
            if record.kind == walmod.PREPARE:
                prepared.add(record.txn_id)
            last_lsn[record.txn_id] = record.lsn
            first_lsn.setdefault(record.txn_id, record.lsn)
    # Prepared (XA indoubt) transactions are NOT losers: their outcome
    # belongs to the transaction manager.
    losers = {txn_id: lsn for txn_id, lsn in last_lsn.items()
              if txn_id not in ended and txn_id not in prepared}
    return losers, prepared, committed, last_lsn, first_lsn


def _redo(db, tail) -> int:
    """Defer REDO into per-page chains; repair indexes from image + tail,
    deferring the read of each image page."""
    wal = db.wal
    # ---- build the pending per-page replay chains -------------------------
    # Walk each chain head down until the durable page LSN catches it: the
    # records above the durable LSN are exactly the page's missing REDO
    # work. Pages of dropped tables are skipped (catalog is durable).
    pending: dict[tuple[str, int], list[int]] = {}
    for key in sorted(wal.page_heads):
        table, page_no = key
        if table not in db.catalog.tables:
            continue
        durable = db.disk.page_lsn(table, page_no)
        lsns: list[int] = []
        lsn: Optional[int] = wal.page_heads[key]
        while lsn is not None and lsn > durable:
            lsns.append(lsn)
            lsn = wal.record(lsn).prev_page_lsn
        if lsns:
            lsns.reverse()
            pending[key] = lsns
    redone = sum(len(lsns) for lsns in pending.values())

    # ---- heap bookkeeping without reading a single page -------------------
    chain_pages: dict[str, list[int]] = {}
    for table, page_no in pending:
        chain_pages.setdefault(table, []).append(page_no)
    for table in db.catalog.tables:
        db.heaps[table] = Heap.recover_lazy(table, db.pool,
                                            chain_pages.get(table, ()))
    db.replay_pending = pending
    for table in chain_pages:
        db.heaps[table].replay_hook = db.replay_page

    # ---- chain-driven per-index repair (no full-heap rebuild) -------------
    ckpt = wal.last_checkpoint_lsn
    for index in db.catalog.indexes.values():
        btree = db.btrees[index.name]
        image = db.disk.load_index_image(index.name)
        if image is None and (
                db.disk.page_numbers(index.table)
                or any(lsns[0] <= ckpt for (table, _), lsns in pending.items()
                       if table == index.table)):
            # No checkpoint image, but rows older than the tail exist (on
            # durable pages, or in chains a fuzzy checkpoint left): the
            # index was created after the last checkpoint. Fall back to a
            # heap scan — the replay gate makes the scan see crash-time
            # rows, at the price of replaying this one table eagerly.
            btree.clear()
            for rid, row in db.heaps[index.table].scan():
                key = index.key_of(row)
                if key is not None:
                    btree.insert(key, rid)
            continue
        cold = None
        if image is None:
            # No image and no durable pages: every row the index should
            # hold comes from tail records — replay deltas from empty.
            btree.clear()
        else:
            btree.bulk_load(image)
            cold = ColdImagePages(db, btree)
        for record in tail:
            if not record.redoable or record.table != index.table:
                continue
            old_key = (index.key_of(record.before)
                       if record.before is not None else None)
            if old_key is not None:
                btree.delete(old_key, record.rid)
            new_key = (index.key_of(record.after)
                       if record.after is not None else None)
            if new_key is not None:
                btree.insert(new_key, record.rid)
        # Installed after the deltas: replaying them reads nothing.
        if cold is not None and cold.unread:
            btree.cold_hook = cold
    return redone


def _undo_losers(db, losers: dict[int, int]) -> int:
    """Single backward pass over all losers, writing CLR chains.

    ``undone`` counts only undos actually *applied*; records of dropped
    tables apply nothing, but still get a CLR so a crash during recovery
    never re-examines them (the chain stays idempotent).
    """
    undone = 0
    shims = {txn_id: _RecoveryTxn(txn_id, lsn)
             for txn_id, lsn in losers.items()}
    cursors = dict(losers)  # txn id → next LSN to examine
    while cursors:
        txn_id = max(cursors, key=lambda t: cursors[t])
        lsn = cursors[txn_id]
        record = db.wal.record(lsn)
        shim = shims[txn_id]
        next_lsn: Optional[int]
        if record.kind == walmod.CLR:
            next_lsn = record.undo_next
        elif record.redoable:
            heap = db.heaps.get(record.table)
            clr = db.wal.append(
                walmod.CLR, shim, table=record.table, rid=record.rid,
                before=record.after, after=record.before,
                undo_next=record.prev_lsn)
            if heap is not None:
                heap.set_page_lsn(record.rid[0], clr.lsn)
                db._apply_state(record.table, record.rid, record.before)
                undone += 1
            next_lsn = record.prev_lsn
        else:  # BEGIN or foreign record kind
            next_lsn = record.prev_lsn
        if next_lsn is None:
            db.wal.append(walmod.ABORT, shim)
            del cursors[txn_id]
        else:
            cursors[txn_id] = next_lsn
    return undone


def _resurrect_prepared(db, prepared: set[int], last_lsn: dict[int, int],
                        first_lsn: dict[int, int]) -> None:
    """Re-admit in-doubt transactions with the X locks they held."""
    from repro.minidb.locks import LockMode
    from repro.minidb.txn import Transaction, TxnState
    for txn_id in sorted(prepared):
        # Stamped with the recovery-time clock: a 0.0 birth time would
        # make age-based lock-wait policies see an ancient transaction.
        txn = Transaction(txn_id, "RR", db.sim.now)
        txn.state = TxnState.PREPARED
        txn.last_lsn = last_lsn.get(txn_id)
        txn.first_lsn = first_lsn.get(txn_id, txn.last_lsn)
        # Reacquire X locks on every row the transaction touched so new
        # work cannot read or overwrite its undecided changes.
        cursor = txn.last_lsn
        while cursor is not None:
            record = db.wal.record(cursor)
            if record.kind == walmod.PREPARE:
                txn.payload = record.payload
            if record.redoable and record.table in db.heaps:
                db.locks.force_grant(
                    txn, ("row", record.table, record.rid), LockMode.X)
            cursor = record.prev_lsn
        db.txns._active[txn_id] = txn
