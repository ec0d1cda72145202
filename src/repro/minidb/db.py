"""The Database facade: what DLFM and the host engine see as "DB2".

Owns every engine component and exposes:

* :meth:`session` — SQL sessions (the only interface DLFM uses);
* transaction control (begin/commit/rollback/savepoints) as kernel
  generators, since commit forces the log and rollback may take locks;
  :meth:`Database.commit_lazy` commits without forcing and hands back a
  durability handle instead;
* plan binding with statistics-version invalidation (E4);
* RUNSTATS and hand-crafted statistics;
* :meth:`crash` / :meth:`restart` with ARIES-style recovery (E10);
* :meth:`checkpoint` — a fuzzy checkpoint that writes no page and
  truncates the log; the database's one background page worker
  (:meth:`_page_worker`) writes the dirty pages behind it, after
  finishing a restart's deferred page replay and index-image reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CatalogError, CrashedError, TransactionAborted
from repro.kernel.sim import Event, Simulator
from repro.minidb import wal as walmod
from repro.minidb.btree import BTree, encode_key
from repro.minidb.catalog import Catalog, ColumnDef
from repro.minidb.config import (BULK_INDEX_FACTOR, INDEX_ENTRY,
                                 ISOLATION_LEVELS, LOG_FORCE,
                                 LOG_RECORDS_PER_PAGE, PAGE_IO,
                                 RESTART_LOG_PAGES, DBConfig, Unbilled, bill)
from repro.minidb.locks import LockManager
from repro.minidb.storage import BufferPool, Disk, Heap
from repro.minidb.txn import Transaction, TransactionTable, TxnState
from repro.minidb.wal import LogManager
from repro.sql import ast
from repro.sql.executor import Executor
from repro.sql.optimizer import plan_statement
from repro.sql.parser import parse

#: Bound on the bound-plan cache's entries (LRU eviction beyond it).
PLAN_CACHE_SIZE = 512
#: Auto-RUNSTATS refreshes once mutations exceed ``threshold + fraction *
#: card`` — the PostgreSQL-autovacuum shape: cheap tables refresh eagerly,
#: million-row tables only after proportional churn.
AUTO_RUNSTATS_FRACTION = 0.2
#: Log records since the last checkpoint that trigger a soft one (DB2's
#: SOFTMAX): restart reads a tail bounded by log volume — at most
#: ``RESTART_LOG_PAGES`` pages — not by how fast transactions commit.
SOFT_CHECKPOINT_RECORDS = RESTART_LOG_PAGES * LOG_RECORDS_PER_PAGE


@dataclass
class DBMetrics:
    statements: int = 0
    commits: int = 0
    rollbacks: int = 0
    aborts_by_reason: dict = field(default_factory=dict)
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    table_scans: int = 0
    index_scans: int = 0
    plan_binds: int = 0
    plan_hits: int = 0
    plan_invalidations: int = 0
    plan_evictions: int = 0
    #: Auto-RUNSTATS refreshes triggered by mutation counters.
    auto_runstats_runs: int = 0
    recoveries: int = 0
    #: Pages whose pending log chain was replayed after a restart (on
    #: first touch or by the page worker), and records applied.
    pages_replayed: int = 0
    replay_records: int = 0
    #: Checkpoint-image index pages read after a restart by the first
    #: access meeting them (restart's undo or a statement); the page
    #: worker reads the rest.
    index_pages_read: int = 0
    #: Bulk LOAD: index entries whose maintenance was deferred to the
    #: end-of-load bottom-up build instead of per-row inserts.
    bulk_entries_deferred: int = 0

    def note_abort(self, reason: str) -> None:
        self.rollbacks += 1
        self.aborts_by_reason[reason] = (
            self.aborts_by_reason.get(reason, 0) + 1)


class _BulkIndexPending:
    """Deferred index entries for one index during a bulk LOAD.

    ``by_rid`` (rid → key values) makes undo of an aborted LOAD an O(1)
    removal; ``keys`` (key values → count) backs unique pre-checks,
    which become authoritative while the B-tree insert is deferred.
    """

    __slots__ = ("by_rid", "keys")

    def __init__(self) -> None:
        self.by_rid: dict = {}
        self.keys: dict = {}

    def add(self, rid, key) -> None:
        self.by_rid[rid] = key
        self.keys[key] = self.keys.get(key, 0) + 1

    def drop(self, rid) -> bool:
        key = self.by_rid.pop(rid, _ABSENT)
        if key is _ABSENT:
            return False
        count = self.keys.get(key, 0) - 1
        if count <= 0:
            self.keys.pop(key, None)
        else:
            self.keys[key] = count
        return True


_ABSENT = object()


class Database:
    def __init__(self, sim: Simulator, name: str = "db",
                 config: Optional[DBConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or DBConfig()
        self.config.validate()
        self.disk = Disk()
        self.catalog = Catalog()
        self.metrics = DBMetrics()
        self.crashed = False
        #: The background page worker (:meth:`_page_worker`), while it runs.
        self._worker = None
        self._build_volatile()

    def _build_volatile(self) -> None:
        """(Re)create everything lost in a crash."""
        #: Drained at statement end, into restart's traffic gate, and
        #: per page by the page worker.
        self.unbilled = Unbilled(self.config.timing)
        self.wal = getattr(self, "wal", None) or LogManager(
            self.config.wal_capacity)
        self.pool = BufferPool(self.disk, self.config.buffer_pool_pages,
                               self.config.rows_per_page, self.unbilled,
                               self.wal, self._force_log)
        self.locks = LockManager(self.sim, self.config, self.name)
        previous = getattr(self, "txns", None)
        self.txns = TransactionTable(
            start=(previous.highest_id + 1) if previous else 1)
        self.heaps: dict[str, Heap] = {}
        self.btrees: dict[str, BTree] = {}
        #: Instant recovery: (table, page_no) → ascending LSNs still to
        #: replay. Filled by ``recovery.py``, drained by
        #: :meth:`replay_page` (volatile; rebuilt from the WAL at restart).
        self.replay_pending: dict[tuple[str, int], list[int]] = {}
        #: Sim time before which new statements stall: recovery converts
        #: its foreground I/O (log-tail scan, undo's page reads) into this
        #: gate; page REDO and the reads of index-image pages are not in
        #: it (deferred to first touch or the page worker).
        self.traffic_open_at: float = 0.0
        self.executor = Executor(self)
        #: Bound-plan cache, LRU-ordered (oldest first); capped at
        #: ``PLAN_CACHE_SIZE``.
        self._plan_cache: OrderedDict[str, tuple] = OrderedDict()
        #: The log force in flight, ``(event, upto)``, or None; and the
        #: LSNs of committers queued for the next one. Volatile state.
        self._force: Optional[tuple[Event, int]] = None
        self._queued: set[int] = set()
        #: Lazy commits not yet durable: ``(lsn, handle)`` in LSN order
        #: (:meth:`commit_lazy`). Volatile state.
        self._unforced: list[tuple[int, Event]] = []
        #: Active bulk LOADs: table → {index name → _BulkIndexPending}.
        #: Volatile by design — a crash discards the deferral and restart
        #: rebuilds indexes from durable state as usual.
        self._bulk_loads: dict[str, dict[str, _BulkIndexPending]] = {}
        #: Auto-RUNSTATS bookkeeping: rows mutated per table since its
        #: statistics were last computed. Volatile by design — a crash
        #: loses the counters and staleness re-accumulates from zero,
        #: exactly like DB2's in-memory UDI counters.
        self.stats_mutations: dict[str, int] = {}
        for table in self.catalog.tables.values():
            self.heaps[table.name] = Heap(table.name, self.pool)
        for index in self.catalog.indexes.values():
            self.btrees[index.name] = BTree(
                index.name, index.table, index.columns, index.unique)

    # ------------------------------------------------------------------ sessions

    def session(self, isolation: Optional[str] = None) -> "Session":
        from repro.minidb.session import Session
        return Session(self, isolation or self.config.isolation)

    # ------------------------------------------------------------------ txn control

    def begin(self, isolation: Optional[str] = None) -> Transaction:
        self._ensure_up()
        level = isolation or self.config.isolation
        if level not in ISOLATION_LEVELS:
            raise ValueError(f"unknown isolation level {level!r}")
        return self.txns.begin(level, self.sim.now)

    def admit(self, txn: Transaction, verb: str) -> None:
        """Let ``txn`` take its next step (a statement, commit, prepare)
        only if this incarnation owns it. One that ended, or whose
        writes a crash took, is refused; a write-free one from before a
        crash is only an id (a utility transaction kept open across a
        restart) and is re-admitted under it."""
        self._ensure_up()
        if self.txns.owns(txn):
            return
        if txn.last_lsn is not None or txn.state is not TxnState.ACTIVE:
            raise TransactionAborted(
                f"txn {txn.id} is not live on {self.name} at {verb}",
                reason="ended")
        self.txns.readmit(txn)

    def _admit_end(self, txn: Transaction, verb: str):
        """Generator: :meth:`admit` ``txn`` to its end by ``verb``; one
        marked rollback-only is rolled back instead, and the caller
        told so."""
        self.admit(txn, verb)
        if txn.rollback_only:
            yield from self.rollback(txn)
            raise TransactionAborted(
                f"txn {txn.id} was rollback-only at {verb}",
                reason=txn.abort_reason or "error")

    def commit(self, txn: Transaction, payload=None):
        """Generator: commit — force the log, release locks.

        ``payload`` rides on the COMMIT record itself (the host's 2PC
        decision shares the commit's one WAL force). A
        payload forces a COMMIT record even for a write-free
        transaction — the decision must be durable regardless.
        """
        yield from self._admit_end(txn, "commit")
        if txn.last_lsn is not None or payload is not None:
            self.wal.append(walmod.COMMIT, txn, payload=payload,
                            active_floor=self.txns.active_floor())
            injector = self.sim.injector
            if injector.enabled:
                # Crash with the COMMIT record appended but NOT durable.
                injector.maybe_crash(f"wal.force.before:{self.name}",
                                     self.name)
            yield from self._force_wal(txn.last_lsn, txn, "commit")
            if injector.enabled:
                # Crash with the record durable but the ack never sent.
                injector.maybe_crash(f"wal.force.after:{self.name}",
                                     self.name)
        self._end_committed(txn)

    def commit_lazy(self, txn: Transaction):
        """Generator: commit WITHOUT forcing the log; returns the
        durability handle, or None when the transaction wrote nothing.

        The COMMIT record is appended, locks are released and the
        transaction ends at once; the record becomes durable with the
        next force of this log, whoever leads it. The handle is a
        latched event that triggers ``("ok", None)`` when that force
        completes, or ``("err", CrashedError)`` if the database crashes
        first (``kernel.rpc.wait_reply`` reads it). Only for work whose
        outcome another node holds durably and re-drives after a crash:
        DLFM phase 2, whose decision the host keeps until the handle
        completes.
        """
        yield from self._admit_end(txn, "commit")
        handle = None
        if txn.last_lsn is not None:
            self.wal.append(walmod.COMMIT, txn,
                            active_floor=self.txns.active_floor())
            handle = Event(self.sim, latch=True,
                           name=f"durable-{self.name}")
            self._unforced.append((txn.last_lsn, handle))
        self._end_committed(txn)
        return handle

    def harden(self):
        """Generator: make every lazy commit durable — one force to the
        newest of them, or a ride on the force in flight; nothing when
        none is waiting."""
        self._ensure_up()
        if self._unforced:
            yield from self._force_wal(self._unforced[-1][0], None,
                                       "harden")

    def _end_committed(self, txn: Transaction) -> None:
        self.locks.release_all(txn)
        self.txns.end(txn, TxnState.COMMITTED)
        self.metrics.commits += 1
        self._maybe_auto_runstats()
        self._maybe_soft_checkpoint()

    def prepare(self, txn: Transaction, payload=None):
        """Generator: XA phase 1 — harden the transaction, keep locks.

        From here on the transaction's outcome belongs to the external
        transaction manager: restart recovery neither redoes-away nor
        undoes it, and its write locks are reacquired (it stays indoubt
        until :meth:`commit` or :meth:`rollback` is called for it).
        ``payload`` rides on the PREPARE record — one force — and stays
        on the transaction as ``txn.payload``, after a restart too.
        """
        yield from self._admit_end(txn, "prepare")
        txn.ensure_active()
        self.wal.append(walmod.PREPARE, txn, payload=payload,
                        active_floor=self.txns.active_floor())
        txn.payload = payload
        injector = self.sim.injector
        if injector.enabled:
            injector.maybe_crash(f"wal.force.before:{self.name}", self.name)
        yield from self._force_wal(txn.last_lsn, txn, "prepare")
        if injector.enabled:
            injector.maybe_crash(f"wal.force.after:{self.name}", self.name)
        txn.state = TxnState.PREPARED

    def _force_wal(self, lsn: int, txn: Optional[Transaction], record: str):
        """Generator: make the log durable through ``lsn`` — ``txn``'s
        just-appended commit/prepare record, or (``txn`` None) the
        newest lazy commit.

        Pipelined group commit, with nothing to tune: a committer that
        finds no force in flight leads one at once, to the log tail.
        Committers that arrive while it is in flight queue behind it; the
        first of them to wake leads the next force for the whole queue,
        and the rest ride on it (``forces_saved``). Control never returns
        before the force covering the record has completed, so an
        acknowledgement cannot precede it: a crash fails every member of
        the in-flight group with CrashedError. A completed force also
        completes the handles of the lazy commits it covered.
        """
        txns, wal = self.txns, self.wal
        while self._force is not None:
            event, upto = self._force
            if upto >= lsn:
                wal.metrics.forces_saved += 1
            else:
                self._queued.add(lsn)
            yield event.wait()
            self._queued.discard(lsn)
            if self.crashed or self.txns is not txns:
                raise CrashedError(f"database {self.name} crashed before "
                                   f"the force covering LSN {lsn}")
            if upto >= lsn:
                return
        if lsn <= wal.flushed_upto:
            return
        if txn is not None and txn.rollback_only:
            # Aborted while queued (e.g. picked as a victim): a dead
            # transaction must not force its own commit record; the next
            # queued committer leads instead.
            raise TransactionAborted(
                f"txn {txn.id} aborted while queued for the log force",
                reason=txn.abort_reason or "error")
        force = self._force = (Event(self.sim, latch=True,
                                     name=f"group-force-{self.name}"),
                               wal.tail_lsn)
        injector = self.sim.injector
        if any(queued > wal.flushed_upto for queued in self._queued):
            wal.metrics.group_commits += 1
            if injector.enabled:
                # Crash with other committers' records in the unforced
                # tail: crash() must fail every member (never-ack).
                injector.maybe_crash(f"wal.group:leader:{self.name}",
                                     self.name)
        if injector.enabled and self._unforced:
            # Crash with lazy commits applied and acknowledged but not
            # durable: crash() must fail every handle, and their owners
            # re-drive the lost work.
            injector.maybe_crash(f"wal.unforced:{self.name}", self.name)
        wal.force(force[1])
        with self.sim.tracer.span("wal.force", db=self.name,
                                  txn=txn.id if txn is not None else None,
                                  record=record, lsn=force[1]):
            yield from self.config.timing.charge(LOG_FORCE)
        if self._force is not force:
            raise CrashedError(
                f"database {self.name} crashed during the log force")
        self._force = None
        force[0].trigger(None)
        self._harden_upto(force[1])

    def _harden_upto(self, upto: int) -> None:
        """Complete the handles of the lazy commits at or below ``upto``."""
        unforced = self._unforced
        done = 0
        while done < len(unforced) and unforced[done][0] <= upto:
            unforced[done][1].trigger(("ok", None))
            done += 1
        del unforced[:done]

    def indoubt_transactions(self) -> list[Transaction]:
        """Prepared transactions awaiting an outcome (after restart too)."""
        return [t for t in self.txns.active
                if t.state is TxnState.PREPARED]

    def rollback(self, txn: Transaction):
        """Generator: undo everything the transaction did, release locks.
        A transaction that already ended — or died in a crash, so its
        records are not in this log — has nothing left to undo."""
        self._ensure_up()
        if not self.txns.owns(txn):
            return
        self._undo_to(txn, upto_lsn=None)
        if txn.last_lsn is not None:
            self.wal.append(walmod.ABORT, txn,
                            active_floor=self.txns.active_floor())
        self.locks.release_all(txn)
        self.txns.end(txn, TxnState.ABORTED)
        self.metrics.note_abort(txn.abort_reason or "user")
        self._maybe_soft_checkpoint()
        return
        yield  # pragma: no cover — generator for interface symmetry

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        target = txn.savepoint_lsn(name)
        self._undo_to(txn, upto_lsn=target)
        txn.rollback_only = False
        txn.abort_reason = None

    # ------------------------------------------------------------------ undo

    def _undo_to(self, txn: Transaction, upto_lsn: Optional[int]) -> None:
        """Undo ``txn``'s records with LSN greater than ``upto_lsn``.

        Locks are already held (strict 2PL), so undo never blocks.
        """
        floor = upto_lsn or 0
        next_to_undo = txn.last_lsn
        while next_to_undo is not None and next_to_undo > floor:
            record = self.wal.record(next_to_undo)
            if record.kind == walmod.CLR:
                next_to_undo = record.undo_next
                continue
            if record.redoable:
                clr = self.wal.append(
                    walmod.CLR, txn, table=record.table, rid=record.rid,
                    before=record.after, after=record.before,
                    undo_next=record.prev_lsn,
                    active_floor=self.txns.active_floor())
                self.heaps[record.table].set_page_lsn(record.rid[0], clr.lsn)
                self._apply_state(record.table, record.rid, record.before)
            next_to_undo = record.prev_lsn

    def _apply_state(self, table: str, rid, desired: Optional[tuple]) -> None:
        """Force a heap slot (and index entries) to ``desired``."""
        heap = self.heaps[table]
        current = heap.fetch(rid)
        tdef = self.catalog.tables.get(table)
        if current is not None:
            heap.delete(rid)
            if tdef is not None:
                self.apply_index_delete(tdef, current, rid)
        if desired is not None:
            heap.insert(desired, rid=rid)
            if tdef is not None:
                self.apply_index_insert(tdef, desired, rid)

    # ------------------------------------------------------------------ lazy replay

    def replay_page(self, table: str, page_no: int) -> int:
        """On-demand REDO of one page's pending log chain (instant recovery).

        Called by the heap replay gate on first touch after a lazy
        restart, and by the page worker for cold pages. Pops
        the page from the pending set *before* applying, so the replay's
        own page accesses pass straight through the gate. Idempotent:
        each record is applied only when the page LSN is behind it.
        Returns the number of records applied.
        """
        lsns = self.replay_pending.pop((table, page_no), None)
        if lsns is None:
            return 0
        heap = self.heaps.get(table)
        applied = 0
        if heap is not None:
            for lsn in lsns:
                record = self.wal.record(lsn)
                if heap.page_lsn(page_no) >= lsn:
                    continue
                heap.set_page_lsn(page_no, lsn)
                current = heap.fetch(record.rid)
                if current is not None:
                    heap.delete(record.rid)
                if record.after is not None:
                    heap.insert(record.after, rid=record.rid)
                applied += 1
            self.metrics.pages_replayed += 1
            self.metrics.replay_records += applied
        if not self.replay_pending:
            # Replay complete: take the gate off the hot path entirely.
            for other in self.heaps.values():
                other.replay_hook = None
        return applied

    # ------------------------------------------------------------------ WAL hook

    def log_write(self, kind: str, txn: Transaction, table: str, rid,
                  before, after):
        record = self.wal.append(
            getattr(walmod, kind), txn, table=table, rid=rid, before=before,
            after=after, active_floor=self.txns.active_floor())
        self.heaps[table].set_page_lsn(rid[0], record.lsn)
        return record

    # ------------------------------------------------------------------ index maintenance

    def apply_index_insert(self, table, row: tuple, rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            key = index.key_of(row)
            if key is None:
                continue  # an excluded NULL key has no entry
            if pending is not None:
                pending[index.name].add(rid, key)
                self.metrics.bulk_entries_deferred += 1
            else:
                self.unbilled.entries += 1
                self.btrees[index.name].insert(key, rid)

    def apply_index_delete(self, table, row: tuple, rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            key = index.key_of(row)
            if key is None:
                continue
            if pending is not None and pending[index.name].drop(rid):
                continue  # entry was still deferred; undo is a dict pop
            self.unbilled.entries += 1
            self.btrees[index.name].delete(key, rid)

    def apply_index_update(self, table, old_row: tuple, new_row: tuple,
                           rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            old_key = index.key_of(old_row)
            new_key = index.key_of(new_row)
            if old_key == new_key:
                continue
            if pending is not None:
                p = pending[index.name]
                if old_key is not None and not p.drop(rid):
                    self.unbilled.entries += 1
                    self.btrees[index.name].delete(old_key, rid)
                if new_key is not None:
                    p.add(rid, new_key)
                    self.metrics.bulk_entries_deferred += 1
                continue
            btree = self.btrees[index.name]
            if old_key is not None:
                self.unbilled.entries += 1
                btree.delete(old_key, rid)
            if new_key is not None:
                self.unbilled.entries += 1
                btree.insert(new_key, rid)

    # ------------------------------------------------------------------ bulk LOAD

    def in_bulk_load(self, table: str) -> bool:
        return table in self._bulk_loads

    def bulk_pending_duplicate(self, table: str, index_name: str,
                               key: tuple) -> bool:
        """Does a deferred entry already carry ``key``? (unique pre-check)"""
        pending = self._bulk_loads.get(table)
        if pending is None:
            return False
        p = pending.get(index_name)
        return p is not None and key in p.keys

    def begin_bulk_load(self, table: str) -> None:
        """Defer per-row index maintenance for ``table`` (DB2 LOAD).

        While active, ``apply_index_*`` records pending entries instead
        of touching the B+trees, so index scans do not see the loaded
        rows until :meth:`end_bulk_load` folds them in with one sorted
        bottom-up build (DB2's "load pending" table state). Heap writes
        and WAL records are unchanged, so aborts undo normally (the
        deferred entry is dropped) and a crash simply discards the
        volatile deferral — restart rebuilds indexes from durable state.
        The loader is assumed to be the table's only writer (LOAD holds
        the DLFM file locks), so next-key locks are skipped meanwhile.
        """
        self._ensure_up()
        self.catalog.require_table(table)
        self._bulk_loads.setdefault(table, {
            index.name: _BulkIndexPending()
            for index in self.catalog.indexes_by_table.get(table, [])})

    def _merge_bulk_load(self, table: str) -> int:
        """Fold a table's deferred entries into its B+trees; returns count."""
        pending = self._bulk_loads.pop(table, None)
        if pending is None:
            return 0
        merged = 0
        for index_name, p in pending.items():
            btree = self.btrees.get(index_name)
            if btree is None or not p.by_rid:
                continue
            pairs = btree.items()
            pairs.extend((encode_key(key), rid)
                         for rid, key in p.by_rid.items())
            btree.bulk_load(pairs)
            merged += len(p.by_rid)
        return merged

    def end_bulk_load(self, table: str):
        """Generator: merge deferred entries, charging the sequential
        bottom-up build at ``BULK_INDEX_FACTOR`` of per-row cost."""
        merged = self._merge_bulk_load(table)
        yield from self.config.timing.charge(INDEX_ENTRY,
                                             merged * BULK_INDEX_FACTOR)
        return merged

    # ------------------------------------------------------------------ DDL

    def ddl(self, stmt) -> None:
        """DDL is applied immediately and is not transactional (documented)."""
        self._ensure_up()
        if isinstance(stmt, ast.CreateTable):
            columns = [ColumnDef(n, t) for n, t in stmt.columns]
            self.catalog.create_table(stmt.table, columns)
            self.heaps[stmt.table] = Heap(stmt.table, self.pool)
            touched = stmt.table
        elif isinstance(stmt, ast.CreateIndex):
            index = self.catalog.create_index(stmt.index, stmt.table,
                                              stmt.columns, stmt.unique,
                                              stmt.exclude_null)
            btree = BTree(index.name, index.table, index.columns,
                          index.unique)
            for rid, row in self.heaps[stmt.table].scan():
                key = index.key_of(row)
                if key is not None:
                    btree.insert(key, rid)
            self.btrees[index.name] = btree
            if stmt.table in self._bulk_loads:
                # Built from the heap, which already holds the loaded
                # rows; only entries deferred from here on concern it.
                self._bulk_loads[stmt.table][index.name] = (
                    _BulkIndexPending())
            touched = stmt.table
        elif isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.table)
            self.heaps.pop(stmt.table, None)
            for name in [n for n, b in self.btrees.items()
                         if b.table == stmt.table]:
                del self.btrees[name]
                self.disk.drop_index_image(name)
            self.pool.drop_table(stmt.table)
            self.wal.forget_table(stmt.table)
            self._bulk_loads.pop(stmt.table, None)
            for key in [k for k in self.replay_pending
                        if k[0] == stmt.table]:
                del self.replay_pending[key]
            touched = stmt.table
        elif isinstance(stmt, ast.DropIndex):
            index = self.catalog.require_index(stmt.index)
            self.catalog.indexes_by_table[index.table].remove(index)
            del self.catalog.indexes[stmt.index]
            del self.btrees[stmt.index]
            self.disk.drop_index_image(stmt.index)
            self._bulk_loads.get(index.table, {}).pop(stmt.index, None)
            touched = index.table
        else:
            raise CatalogError(f"not DDL: {stmt!r}")
        self._invalidate_plans(touched)

    # ------------------------------------------------------------------ plans

    def get_plan(self, sql: str):
        """Bound-plan lookup; stale statistics versions force a re-bind."""
        return self.bind_plan(sql)[0]

    def bind_plan(self, sql: str, stmt=None):
        """Bound-plan lookup returning ``(plan, hit)``.

        ``hit`` distinguishes a cache hit (no parse, no optimize — the
        prepared-statement fast path) from a fresh bind, which is what
        :class:`~repro.minidb.session.Session` charges ``compile_cpu``
        for. A cached plan whose statistics versions went stale counts
        as a miss: it re-parses, re-optimizes and pays compilation
        again. ``stmt`` (if given) is a pre-parsed AST reused on a miss,
        so ``Session.prepare`` parses exactly once.
        """
        cached = self._plan_cache.get(sql)
        if cached is not None:
            plan, versions = cached
            if all(self.catalog.stats_version(t) == v
                   for t, v in versions.items()):
                self._plan_cache.move_to_end(sql)
                self.metrics.plan_hits += 1
                return plan, True
            self.metrics.plan_invalidations += 1
        if stmt is None:
            stmt = parse(sql)
        plan = plan_statement(self.catalog, stmt)
        versions = {t: self.catalog.stats_version(t) for t in plan.tables}
        self._plan_cache[sql] = (plan, versions)
        self._plan_cache.move_to_end(sql)
        while len(self._plan_cache) > PLAN_CACHE_SIZE:
            self._plan_cache.popitem(last=False)
            self.metrics.plan_evictions += 1
        self.metrics.plan_binds += 1
        return plan, False

    def _invalidate_plans(self, table: Optional[str] = None) -> None:
        """Evict cached plans — all of them, or those touching ``table``.

        DDL passes the affected table so that e.g. CREATE INDEX evicts
        exactly the plans it could improve (an already-cached scan plan
        would otherwise keep running without the new index), without
        discarding every other statement's binding work.
        """
        if table is None:
            self._plan_cache.clear()
            return
        stale = [sql for sql, (plan, _) in self._plan_cache.items()
                 if table in plan.tables]
        for sql in stale:
            del self._plan_cache[sql]
            self.metrics.plan_evictions += 1

    def explain(self, sql: str) -> dict:
        """Access-path summary of ``sql``'s plan, for tests and benchmarks."""
        plan = self.get_plan(sql)
        info = {"kind": plan.kind}
        access = getattr(plan, "access", None)
        if access is not None:
            info["access"] = access.kind
            info["index"] = access.index_name
            info["cost"] = round(access.cost, 3)
        return info

    # ------------------------------------------------------------------ statistics

    def runstats(self, table: str) -> None:
        """Recompute true statistics (DB2 RUNSTATS); invalidates plans."""
        tdef = self.catalog.require_table(table)
        heap = self.heaps[table]
        distinct: dict[str, set] = {c.name: set() for c in tdef.columns}
        for _, row in heap.scan():
            for column, value in zip(tdef.columns, row):
                distinct[column.name].add(value)
        self.catalog.runstats(
            table, card=heap.nrows, npages=heap.npages,
            colcard={c: len(vals) for c, vals in distinct.items()})
        self.stats_mutations.pop(table, None)

    def set_table_stats(self, table: str, card: int,
                        npages: Optional[int] = None,
                        colcard: Optional[dict[str, int]] = None) -> None:
        """Hand-craft statistics (the paper's catalog-poking utility)."""
        self.catalog.set_stats(table, card, npages, colcard)
        self.stats_mutations.pop(table, None)

    def note_mutation(self, table: str, rows: int = 1) -> None:
        """Count mutated rows toward the table's auto-RUNSTATS trigger."""
        self.stats_mutations[table] = self.stats_mutations.get(table, 0) + rows

    def _auto_runstats_due(self, table: str) -> bool:
        stats = self.catalog.stats.get(table)
        if stats is None or stats.manual:
            # Dropped table, or hand-crafted statistics: the E4 pinning
            # guard always wins over the refresh daemon.
            return False
        due = (self.config.auto_runstats_threshold
               + AUTO_RUNSTATS_FRACTION * stats.card)
        return self.stats_mutations.get(table, 0) >= due

    def _maybe_auto_runstats(self) -> None:
        """Refresh statistics for tables whose mutation counters crossed
        the staleness threshold (runs inline at commit, like DB2's
        real-time statistics collection). The refresh bumps the stats
        version, so every cached plan on the table re-binds — the
        ``card=0`` table-scan cliff heals itself as tables grow."""
        if not self.config.auto_runstats or not self.stats_mutations:
            return
        for table in sorted(self.stats_mutations):
            if table in self._bulk_loads:
                continue  # LOAD pending: stats come after the build phase
            if not self._auto_runstats_due(table):
                continue
            injector = self.sim.injector
            if injector.enabled:
                # Crash with mutations applied but the refresh (and its
                # plan invalidation) not yet installed — restart must
                # leave plans consistent with whatever stats survived.
                injector.maybe_crash(f"runstats.refresh:{self.name}",
                                     self.name)
            self.runstats(table)
            self.metrics.auto_runstats_runs += 1

    # ------------------------------------------------------------------ checkpoint / crash

    def _maybe_soft_checkpoint(self) -> None:
        """Checkpoint once ``SOFT_CHECKPOINT_RECORDS`` were logged since
        the last one, or once the active window passes half the log's
        capacity (as DB2's automatic log truncation does: without it, one
        log-full event would poison the log forever)."""
        wal = self.wal
        if (wal.tail_lsn - wal.last_checkpoint_lsn > SOFT_CHECKPOINT_RECORDS
                or wal.window(self.txns.active_floor())
                > self.config.wal_capacity // 2):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Fuzzy checkpoint: snapshot volatile state, truncate the log.

        It writes no page (DB2's soft checkpoint): a dirty page's REDO is
        its per-page log chain above the durable page LSN, so the
        truncation floor keeps the log from the oldest recLSN on, and
        the page worker (:meth:`_page_worker`) writes them in the
        background and truncates again. The checkpoint spawns the worker
        when there is page work and none runs; one that runs picks the
        new dirty pages up itself.

        The payload carries what instant recovery's tail-only analysis
        needs: the transaction table (first/last LSN and prepared flag
        per active transaction — a prepared transaction may predate the
        checkpoint by an arbitrary margin) and the per-page chain-head
        table — nothing else. Secondary-index images go to the disk,
        keyed by index name, so restart repairs each index from image +
        tail deltas instead of a full-heap rebuild.
        """
        self._ensure_up()
        for name, btree in self.btrees.items():
            image = btree.items()
            for pending in self._bulk_loads.values():
                p = pending.get(name)
                if p is not None and p.by_rid:
                    # Deferred LOAD entries are durable heap rows whose
                    # WAL records may predate this checkpoint: the image
                    # must carry them or restart's image+tail repair
                    # would silently lose them.
                    image.extend((encode_key(key), rid)
                                 for rid, key in p.by_rid.items())
            self.disk.store_index_image(name, image)
        txn_table = {}
        for txn in self.txns.active:
            if (txn.last_lsn is not None and self.wal.record(
                    txn.last_lsn).kind in (walmod.COMMIT, walmod.ABORT)):
                # Ended: only its log force is still outstanding, and
                # the force below hardens that record too. Snapshotting
                # it as active would make tail-only analysis (which
                # never sees the pre-checkpoint COMMIT) undo it.
                continue
            txn_table[txn.id] = {
                "first": txn.first_lsn, "last": txn.last_lsn,
                "prepared": txn.state is TxnState.PREPARED}
        record = self.wal.append(
            walmod.CHECKPOINT, None,
            payload={"chain_heads": dict(self.wal.page_heads),
                     "txn_table": txn_table})
        self._force_log(checkpoint=True)
        self.wal.note_checkpoint(record.lsn)
        self.wal.truncate(self._log_floor())
        if self._worker is None and (self.replay_pending
                                     or self.cold_index_pages()
                                     or self.pool.oldest_rec_lsn() is not None):
            self._worker = self.sim.spawn(self._page_worker(),
                                          f"{self.name}-pages")

    def _log_floor(self) -> int:
        """The oldest LSN a restart can read. Besides the last checkpoint,
        four things reach further back: a transaction the checkpoint lists
        (undo and lock resurrection, even once it ended: a crash can lose
        its unforced ABORT or lazy COMMIT), an unforgotten 2PC decision
        (the host re-drives phase 2 from its COMMIT record), a page queued
        for lazy replay, and a dirty page (REDO walks down to its recLSN)."""
        ckpt = self.wal.last_checkpoint_lsn
        listed = self.wal.record(ckpt).payload["txn_table"] if ckpt else {}
        oldest_dirty = self.pool.oldest_rec_lsn()
        return min([
            ckpt, *self.wal.decisions.values(),
            *(entry["first"] or ckpt for entry in listed.values()),
            *(lsns[0] for lsns in self.replay_pending.values()),
            *([oldest_dirty] if oldest_dirty is not None else [])])

    def _page_worker(self):
        """Generator: the database's one background page process.

        In order: it replays every page a restart left pending (page
        order), reads every checkpoint index-image page no access has
        read, then writes every dirty page whose recLSN is below the
        last checkpoint, oldest recLSN first — a checkpoint meanwhile
        only adds pages to that last pass — and truncates the log to
        the floor those pages held. A cold page nobody touches would
        otherwise pin the log forever.

        Each page is one step, billed to the worker: at least one page
        I/O, or every I/O the step added; pages foreground statements
        counted before it stay theirs. WAL rule: a page whose page LSN
        is past the durable log waits for a force covering it — it
        rides the one in flight or leads one. A crash kills the worker;
        restart's closing checkpoint spawns it again.
        """
        pool, wal, unbilled = self.pool, self.wal, self.unbilled

        def step(work, *args):
            owed = unbilled.pages
            work(*args)
            pages, unbilled.pages = unbilled.pages - owed, owed
            return bill(self.config.timing.price(PAGE_IO, max(1, pages)),
                        always=True)

        def write(key) -> None:
            pool.clean(key)
            injector = self.sim.injector
            if injector.enabled:
                # Crash with the page just written: restart redoes the
                # pages not reached yet from their chains, and the tail
                # it loses holds no record this page needs.
                injector.maybe_crash(f"cleaner.write:{self.name}", self.name)

        def due(key) -> bool:
            # Not written by a steal meanwhile (and perhaps dirtied again).
            rec_lsn = pool.rec_lsn(key)
            return rec_lsn is not None and rec_lsn < checkpoint

        for key in sorted(self.replay_pending):
            if key in self.replay_pending:  # or a statement replayed it
                yield from step(self.replay_page, *key)
        for name in self.cold_index_pages():
            btree = self.btrees.get(name)
            cold = btree.cold_hook if btree is not None else None
            # Foreground traffic reads pages meanwhile, or drops the index.
            while (cold is not None and cold.unread
                   and self.btrees.get(name) is btree):
                yield from step(cold.read, min(cold.unread))
        while True:
            checkpoint = wal.last_checkpoint_lsn
            todo = pool.dirty_below(checkpoint)
            if not todo:
                break
            for key in todo:
                while due(key) and pool.page_lsn(key) > wal.flushed_upto:
                    yield from self._force_wal(pool.page_lsn(key), None,
                                               "clean")
                if due(key):
                    yield from step(write, key)
        self._worker = None
        wal.truncate(self._log_floor())

    def _force_log(self, checkpoint: bool = False) -> None:
        """Force the whole log now, inside the caller's step (a steal
        that found every frame ahead of the log, a checkpoint); the lazy
        commits it covered are durable."""
        self.wal.force(checkpoint=checkpoint)
        self._harden_upto(self.wal.flushed_upto)

    def crash(self) -> None:
        """Power failure: volatile state gone, durable state preserved."""
        self.crashed = True
        if self._worker is not None:
            self._worker.kill()
            self._worker = None
        force, self._force = self._force, None
        if force is not None:
            # Wake every member of the in-flight group into CrashedError:
            # none of them was acknowledged.
            force[0].trigger(None)
        unforced, self._unforced = self._unforced, []
        for _, handle in unforced:
            handle.trigger(("err", CrashedError(
                f"database {self.name} crashed before a lazy commit was "
                f"durable")))
        self.wal.crash()
        self.pool.clear()
        self.locks.clear()
        self.txns.clear()
        self.heaps.clear()
        self.btrees.clear()
        self.replay_pending.clear()
        self._plan_cache.clear()
        self._bulk_loads.clear()
        self.stats_mutations.clear()
        self.unbilled.entries = 0.0

    def restart(self) -> dict:
        """Restart after a crash; returns a recovery summary.

        Instant, REDO-only restart: tail analysis + eager undo run here,
        but page REDO is deferred into ``replay_pending`` and the read of
        each checkpoint index-image page into the tree's cold hook —
        done on first touch (:meth:`replay_page`,
        ``recovery.ColdImagePages``) or by the page worker
        (:meth:`_page_worker`) that recovery's closing checkpoint
        spawns; it then writes the pages replay and undo dirtied.
        """
        from repro.minidb.recovery import recover
        self.crashed = False
        self._build_volatile()
        summary = recover(self)
        self.metrics.recoveries += 1
        return summary

    def cold_index_pages(self) -> dict[str, int]:
        """Index name → checkpoint-image pages restart has not read yet."""
        return {name: len(btree.cold_hook.unread)
                for name, btree in sorted(self.btrees.items())
                if btree.cold_hook is not None}

    def _ensure_up(self) -> None:
        if self.crashed:
            raise CrashedError(f"database {self.name} is down (crashed)")

    # ------------------------------------------------------------------ backup images

    def backup_image(self) -> dict:
        """Full backup: checkpoint, then snapshot durables — log included.

        The checkpoint is fuzzy (the copied disk may hold open
        transactions' rows and lack committed changes still in the
        pool), so the image is only consistent together with the log
        that can undo and redo them: the retained log rides along, from
        the oldest LSN a restart still needs; records are immutable and
        are shared.
        """
        import copy
        self.checkpoint()
        return {
            "disk": copy.deepcopy(self.disk),
            "catalog": copy.deepcopy(self.catalog),
            "log": self.wal.durable_records(),
            "base": self.wal.base,
        }

    def restore_image(self, image: dict) -> None:
        """Point-in-time restore from :meth:`backup_image`: a restart at
        the image's closing checkpoint. Losers open then are undone, and
        new LSNs keep growing past the restored pages' LSNs."""
        import copy
        self.crash()
        self.disk = copy.deepcopy(image["disk"])
        self.catalog = copy.deepcopy(image["catalog"])
        self.wal = LogManager(self.config.wal_capacity)
        self.wal.records = list(image["log"])
        self.wal.base = image["base"]
        self.wal.flushed_upto = self.wal.last_checkpoint_lsn = (
            self.wal.tail_lsn)
        self.wal.crash()   # rebuilds page heads and decisions from there
        self.restart()

    # ------------------------------------------------------------------ convenience

    def table_rows(self, table: str) -> list[tuple]:
        """Unlocked debug read of a whole table (tests only)."""
        return [row for _, row in self.heaps[table].scan()]
