"""Tunable knobs for the minidb engine.

These map one-for-one onto the DB2 configuration parameters the paper
tunes: LOCKTIMEOUT, LOCKLIST/MAXLOCKS (escalation), the next-key-locking
registry switch and log capacity (DLCHKTIME is a constant in ``locks``,
SOFTMAX one in ``db``). The log force has no knob: every database runs
the one pipelined group commit (``Database._force_wal``).

It is also the one cost model: every simulated service second is priced
by :meth:`TimingModel.price` and slept by :func:`bill`; work billed
later waits in a database's one :class:`Unbilled` accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.sim import Timeout

#: The billed kinds: one unit of simulated service work each.
STATEMENT = "statement"      # a statement executed
COMPILE = "compile_cpu"      # a plan-cache miss (parse + optimize)
PAGE_IO = "page_io"          # a page read or written
INDEX_ENTRY = "index_entry"  # a secondary-index entry maintained
LOG_FORCE = "log_force"      # a log force
RPC = "rpc"                  # a DLFM request served
ARCHIVE = "archive"          # a byte moved to or from the archive server

#: The price table: simulated seconds per unit, chosen so the tuned E1
#: configuration lands near the paper's 300 links/min with 100 clients
#: (EXPERIMENTS.md, "Calibration"). ``COMPILE`` and ``INDEX_ENTRY`` are
#: priced by the :class:`TimingModel` fields of the same name.
PRICES = {STATEMENT: 0.0005, PAGE_IO: 0.004, LOG_FORCE: 0.006, RPC: 0.002,
          ARCHIVE: 0.0001}
#: Fixed cost of one archive transfer, on top of its bytes.
ARCHIVE_SETUP = 0.05
#: Conversions into those units. Restart's log scan reads this many
#: records per page; checkpoint index images pack this many entries per
#: page (dense sorted (key, rid) runs); a sorted bottom-up bulk index
#: build costs this fraction of a per-row entry (sequential writes).
LOG_RECORDS_PER_PAGE = 10
#: Restart's budget for that scan: a soft checkpoint fires once the log
#: since the last one fills this many pages (0.04 s of ``PAGE_IO``).
#: Restart time saws between zero and the budget, by where in the cycle
#: the crash lands, so the budget is also how far one restart can differ
#: from the next.
RESTART_LOG_PAGES = 10
INDEX_IMAGE_ENTRIES_PER_PAGE = 100
BULK_INDEX_FACTOR = 0.1


def bill(seconds: float, always: bool = False):
    """Generator: sleep ``seconds`` of billed service time. Free work
    does not yield, unless ``always`` asks for the yield anyway."""
    if seconds > 0 or always:
        yield Timeout(seconds)


@dataclass
class TimingModel:
    """Which work costs simulated time, and the two prices a
    configuration sets (:data:`PRICES` holds the rest).

    With ``enabled=False`` (the default for unit tests) the engine
    charges nothing and simulations complete at t≈0 except for explicit
    waits. Benchmarks use :meth:`calibrated`.
    """

    enabled: bool = False
    #: Parse + optimize cost, charged only when a statement misses the
    #: bound-plan cache (a re-bind after invalidation pays it again).
    #: Dynamic SQL that interpolates literals gets a distinct cache key
    #: per value and pays this on EVERY execution — the cost the
    #: prepared-statement API exists to amortize. 0.0 keeps the
    #: historical "compilation is free" calibration; ``all_on()`` bills it.
    compile_cpu: float = 0.0
    #: Per-entry secondary-index maintenance (DB2 logs index pages; our
    #: indexes are memory-resident, so this models that write cost).
    #: 0.0 keeps the historical "indexes are free" calibration.
    index_entry: float = 0.0
    #: Bill archive transfers, whatever ``enabled`` says (the archive is
    #: its own machine). Off by default: see ``ArchiveServer``.
    archive: bool = False

    @classmethod
    def calibrated(cls) -> "TimingModel":
        return cls(enabled=True)

    def price(self, kind: str, units: float = 1) -> float:
        """Simulated seconds ``units`` of ``kind`` cost under this model."""
        if kind == ARCHIVE:
            return ARCHIVE_SETUP + PRICES[kind] * units if self.archive else 0.0
        if not self.enabled:
            return 0.0
        return (PRICES[kind] if kind in PRICES else getattr(self, kind)) * units

    def charge(self, kind: str, units: float = 1):
        """Generator: sleep the price of ``units`` of ``kind``."""
        return bill(self.price(kind, units))


class Unbilled:
    """One database's work done but not yet billed: page I/Os (pool
    misses and writes, restart's log scan, index-image pages read after
    a restart) and index entries maintained."""

    __slots__ = ("timing", "pages", "entries")

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.pages = 0
        self.entries = 0.0

    def drain(self, entries: bool = True) -> float:
        """Seconds owed for every page and, with ``entries``, for every
        index entry; all of it is billed, so nothing stays owed."""
        cost = self.timing.price(PAGE_IO, self.pages)
        self.pages = 0
        if entries:
            cost += self.timing.price(INDEX_ENTRY, self.entries)
            self.entries = 0.0
        return cost


#: The locking isolation levels a session may run at.
ISOLATION_LEVELS = ("RR", "RS", "CS")


@dataclass
class DBConfig:
    """Engine configuration; defaults approximate an untuned DB2 instance."""

    #: Seconds a lock request may wait before LockTimeoutError (LOCKTIMEOUT).
    lock_timeout: float = 60.0
    #: ARIES/KVL next-key locking on index access under RR (the paper turns
    #: this OFF for DLFM's local database).
    next_key_locking: bool = True
    #: Default isolation level for new sessions: "RR" (repeatable read,
    #: with phantom protection when next-key locking is on), "RS" (read
    #: stability: read locks held to commit, no phantom protection — what
    #: DLFM effectively got by disabling next-key locking), "CS"
    #: (cursor stability: read locks end with the statement; a
    #: ``FOR SHARE`` / ``FOR UPDATE`` clause keeps them to commit).
    isolation: str = "RR"
    #: Total lock entries available across all transactions (LOCKLIST).
    locklist_size: int = 100_000
    #: Fraction of the locklist one transaction may fill before its row
    #: locks on a table escalate to a table lock (MAXLOCKS).
    maxlocks_fraction: float = 0.22
    #: Active-log capacity in log records before LogFullError (LOGPRIMARY).
    wal_capacity: int = 200_000
    #: Auto-RUNSTATS: refresh a table's statistics once enough rows have
    #: mutated since they were last computed, bumping the stats version
    #: so cached plans re-bind — no more ``card=0`` scan plans on tables
    #: that grew after creation. Off by default: the E4 ablation (and
    #: DB2 up to v8) depends on stale statistics staying stale until
    #: someone runs RUNSTATS. Tables with hand-crafted (``manual``)
    #: statistics are never refreshed — the paper's pinning guard wins.
    auto_runstats: bool = False
    #: Mutations (insert/update/delete rows) since the last refresh, plus
    #: ``db.AUTO_RUNSTATS_FRACTION`` × card, that trigger auto-RUNSTATS.
    auto_runstats_threshold: int = 200
    #: Buffer-pool capacity in pages.
    buffer_pool_pages: int = 2_000
    #: Heap rows per page (drives optimizer page counts and I/O volume).
    rows_per_page: int = 32
    #: Virtual service times.
    timing: TimingModel = field(default_factory=TimingModel)

    def validate(self) -> None:
        if self.lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")
        if not 0 < self.maxlocks_fraction <= 1:
            raise ValueError("maxlocks_fraction must be in (0, 1]")
        if self.isolation not in ISOLATION_LEVELS:
            raise ValueError(f"unknown isolation level {self.isolation!r}")
        if self.rows_per_page < 1:
            raise ValueError("degenerate storage geometry")
        if self.auto_runstats_threshold < 1:
            raise ValueError("auto_runstats_threshold must be >= 1")
