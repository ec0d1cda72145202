"""Write-ahead log with a bounded active window and per-page log chains.

The log is logical (row-level before/after images); secondary indexes
are repaired from checkpoint images plus the durable tail at restart
(see ``recovery.py``). The *active window* spans from the oldest
position still needed — the first LSN of the oldest in-flight
transaction, or the last checkpoint, whichever is older — to the tail.
When that window exceeds ``wal_capacity`` the appending transaction
gets :class:`~repro.errors.LogFullError`, exactly the DB2 "log full"
condition the paper's long-running utilities (load, reconcile,
delete-group) had to dodge with periodic local commits (lesson §4, E8).

The log forgets what no restart can read, as DB2 reuses the extents
below its oldest needed LSN: LSNs are monotone integers over
:attr:`LogManager.base`, and every checkpoint (and the page worker,
once it has written the pages a checkpoint left dirty) drops the records
below the oldest of five LSNs (``Database._log_floor``) — the
checkpoint, the first record of each transaction it lists as active,
the oldest 2PC decision not yet forgotten (:attr:`LogManager.decisions`),
the oldest record still queued for lazy replay, and the oldest dirty
page's recLSN (checkpoints write no page, so a dirty page's REDO is its
chain above the durable page LSN).

Per-page chains (Sauer & Härder instant recovery): every redoable
record carries ``prev_page_lsn``, the LSN of the previous redoable
record against the same heap page, and :attr:`LogManager.page_heads`
maps each page to its chain head. Checkpoints snapshot the head table
so a restart can find every page's chain without scanning the whole
log; :meth:`LogManager.crash` rebuilds the heads from the last durable
checkpoint plus the surviving tail (prev links only ever point
backward, so truncating the unforced tail cannot dangle a chain).

Three record kinds carry a ``payload`` — a fact that must be durable with
exactly that record and lives nowhere else: CHECKPOINT (transaction
table, chain heads), COMMIT (the host's 2PC decision: the participants
phase 2 must reach; a FORGET ends it once phase 2 is durable at every
one of them) and PREPARE (the XA branch: gtrid and participants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import LogFullError

# Log record kinds.
BEGIN = "BEGIN"
COMMIT = "COMMIT"
ABORT = "ABORT"
INSERT = "INSERT"
DELETE = "DELETE"
UPDATE = "UPDATE"
CLR = "CLR"
CHECKPOINT = "CHECKPOINT"
PREPARE = "PREPARE"  # XA: transaction hardened but outcome undecided
FORGET = "FORGET"    # 2PC decision (COMMIT-record payload) forgotten

_REDOABLE = frozenset({INSERT, DELETE, UPDATE, CLR})


@dataclass(slots=True)
class LogRecord:
    """One WAL entry. ``undo_next`` is only set for CLRs.

    ``prev_page_lsn`` threads the per-page log chain: for a redoable
    record it is the LSN of the previous redoable record against the
    same (table, page), or None at the chain's start.
    """

    lsn: int
    kind: str
    txn_id: int
    prev_lsn: Optional[int] = None
    table: Optional[str] = None
    rid: Optional[tuple[int, int]] = None
    before: Optional[tuple] = None
    after: Optional[tuple] = None
    undo_next: Optional[int] = None
    prev_page_lsn: Optional[int] = None
    #: CHECKPOINT snapshot, COMMIT 2PC decision, PREPARE XA branch (see
    #: the module docstring); a FORGET names the decision it ends.
    payload: Any = None

    @property
    def redoable(self) -> bool:
        return self.kind in _REDOABLE


@dataclass
class WalMetrics:
    appends: int = 0
    #: Billed log forces: commit, prepare, steal and page-cleaner forces.
    forces: int = 0
    #: A checkpoint's own force: unbilled, and no committer waits for it.
    checkpoint_forces: int = 0
    log_fulls: int = 0
    #: Group commit (``Database._force_wal``): forces that covered another
    #: committer's record, and commits/prepares that rode on someone
    #: else's force instead of paying their own.
    group_commits: int = 0
    forces_saved: int = 0


class LogManager:
    """Append-only log plus durability watermark.

    Records with ``lsn <= flushed_upto`` survive a crash; the tail is lost.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.records: list[LogRecord] = []
        #: LSN of the newest dropped record: ``records[0]`` is ``base + 1``.
        self.base = 0
        self.flushed_upto = 0  # highest durable LSN; LSNs start at 1
        self.last_checkpoint_lsn = 0
        #: (table, page_no) → LSN of the newest redoable record against
        #: that page (the per-page chain head).
        self.page_heads: dict[tuple[str, int], int] = {}
        #: 2PC decisions not yet forgotten: txn id → LSN of its COMMIT.
        self.decisions: dict[int, int] = {}
        self.metrics = WalMetrics()

    @property
    def tail_lsn(self) -> int:
        return self.base + len(self.records)

    def append(self, kind: str, txn, *, table: Optional[str] = None,
               rid: Optional[tuple[int, int]] = None,
               before: Optional[tuple] = None, after: Optional[tuple] = None,
               undo_next: Optional[int] = None, payload: Any = None,
               active_floor: Optional[int] = None) -> LogRecord:
        """Append one record for ``txn``; enforces the active-window bound.

        ``active_floor`` is the smallest first-LSN among in-flight
        transactions (computed by the caller, who owns the transaction
        table); ``None`` means no transaction is pinning the log.
        """
        floor = self.last_checkpoint_lsn
        if active_floor is not None:
            floor = min(floor, active_floor - 1)
        window = self.tail_lsn - floor
        if window >= self.capacity and kind not in (COMMIT, ABORT, CLR,
                                                    CHECKPOINT, PREPARE,
                                                    FORGET):
            # Ending records are always allowed so the pinning transaction
            # can be rolled back / finished; CLRs are its undo work.
            self.metrics.log_fulls += 1
            if txn is not None:
                txn.mark_rollback_only("logfull")
            raise LogFullError(
                f"active log window {window} reached capacity "
                f"{self.capacity} (txn {txn.id if txn else 0})")
        lsn = self.tail_lsn + 1
        prev_page_lsn = None
        if kind in _REDOABLE and table is not None and rid is not None:
            page_key = (table, rid[0])
            prev_page_lsn = self.page_heads.get(page_key)
            self.page_heads[page_key] = lsn
        record = LogRecord(lsn=lsn, kind=kind,
                           txn_id=txn.id if txn is not None else 0,
                           prev_lsn=txn.last_lsn if txn is not None else None,
                           table=table, rid=rid, before=before, after=after,
                           undo_next=undo_next, prev_page_lsn=prev_page_lsn,
                           payload=payload)
        self.records.append(record)
        self._note_decision(record)
        self.metrics.appends += 1
        if txn is not None:
            txn.last_lsn = lsn
            if txn.first_lsn is None:
                txn.first_lsn = lsn
        return record

    def force(self, upto: Optional[int] = None, *,
              checkpoint: bool = False) -> bool:
        """Make the log durable up to ``upto`` (default: tail).

        Returns True when a physical force was needed (caller charges I/O).
        A ``checkpoint`` force is counted apart: nobody pays for it.
        """
        target = self.tail_lsn if upto is None else upto
        if target <= self.flushed_upto:
            return False
        self.flushed_upto = target
        if checkpoint:
            self.metrics.checkpoint_forces += 1
        else:
            self.metrics.forces += 1
        return True

    def record(self, lsn: int) -> LogRecord:
        if lsn <= self.base:
            raise IndexError(f"LSN {lsn} was truncated (base {self.base})")
        return self.records[lsn - self.base - 1]

    def since(self, lsn: int) -> list[LogRecord]:
        """The retained records after ``lsn``."""
        return self.records[max(0, lsn - self.base):]

    def truncate(self, floor: int) -> None:
        """Drop every record below ``floor``: no restart can read them."""
        cut = floor - 1 - self.base
        if cut > 0:
            del self.records[:cut]
            self.base += cut

    def _note_decision(self, record: LogRecord) -> None:
        if record.kind == COMMIT and record.payload is not None:
            self.decisions[record.txn_id] = record.lsn
        elif record.kind == FORGET:
            self.decisions.pop(record.payload["txn"], None)

    def window(self, active_floor: Optional[int]) -> int:
        """Current active-log size in records."""
        floor = self.last_checkpoint_lsn
        if active_floor is not None:
            floor = min(floor, active_floor - 1)
        return self.tail_lsn - floor

    def note_checkpoint(self, lsn: int) -> None:
        self.last_checkpoint_lsn = lsn

    def forget_table(self, table: str) -> None:
        """Drop a table's per-page chains (non-transactional DROP TABLE)."""
        for key in [k for k in self.page_heads if k[0] == table]:
            del self.page_heads[key]

    # -- crash/restart support -------------------------------------------------

    def durable_records(self) -> list[LogRecord]:
        """The retained prefix of the log that survives a crash."""
        return self.records[: self.flushed_upto - self.base]

    def crash(self) -> None:
        """Discard the unforced tail, as a machine crash would.

        The chain-head table is volatile state: rebuild it from the last
        durable checkpoint's snapshot plus a forward scan of the records
        that survive — exactly what restart recovery may rely on. The
        open decisions are rebuilt from the retained records.
        """
        del self.records[self.flushed_upto - self.base:]
        self.decisions = {}
        for record in self.records:
            self._note_decision(record)
        if self.last_checkpoint_lsn > self.flushed_upto:
            # The noted checkpoint fell past the durability watermark
            # (test harnesses move flushed_upto backward): fall back to
            # the newest checkpoint record that actually survived.
            self.last_checkpoint_lsn = 0
            for record in reversed(self.records):
                if record.kind == CHECKPOINT:
                    self.last_checkpoint_lsn = record.lsn
                    break
        heads: dict[tuple[str, int], int] = {}
        ckpt = self.last_checkpoint_lsn
        if ckpt:
            payload = self.record(ckpt).payload or {}
            heads.update(payload.get("chain_heads", {}))
        for record in self.since(ckpt):
            if record.redoable and record.table is not None:
                heads[(record.table, record.rid[0])] = record.lsn
        self.page_heads = heads
