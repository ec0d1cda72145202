"""Tunable knobs for the minidb engine.

These map one-for-one onto the DB2 configuration parameters the paper
tunes: LOCKTIMEOUT, LOCKLIST/MAXLOCKS (escalation), the next-key-locking
registry switch and log capacity (DLCHKTIME is a constant in ``locks``,
SOFTMAX one in ``db``). The log force has no knob: every database runs
the one pipelined group commit (``Database._force_wal``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class TimingModel:
    """Virtual service times charged to operations (seconds).

    With ``enabled=False`` (the default for unit tests) no time is charged
    and simulations complete at t≈0 except for explicit waits. Benchmarks
    use :meth:`calibrated`, whose values are chosen so the tuned E1
    configuration lands near the paper's reported 300 links/min with 100
    clients (see EXPERIMENTS.md, "Calibration").
    """

    enabled: bool = False
    cpu_per_statement: float = 0.0005
    #: Parse + optimize cost, charged only when a statement misses the
    #: bound-plan cache (a re-bind after invalidation pays it again).
    #: Dynamic SQL that interpolates literals gets a distinct cache key
    #: per value and pays this on EVERY execution — the cost the
    #: prepared-statement API exists to amortize. 0.0 keeps the
    #: historical "compilation is free" calibration (like
    #: ``index_entry``); the prepared-statement bench arm opts in.
    compile_cpu: float = 0.0
    page_io: float = 0.004
    log_force: float = 0.006
    rpc: float = 0.002
    #: Per-entry secondary-index maintenance (DB2 logs index pages; our
    #: indexes are memory-resident, so this models that write cost).
    #: 0.0 keeps the historical "indexes are free" calibration — the
    #: LOAD bench arm opts in to expose the bulk-build win.
    index_entry: float = 0.0

    @classmethod
    def zero(cls) -> "TimingModel":
        return cls(enabled=False)

    @classmethod
    def calibrated(cls) -> "TimingModel":
        return cls(enabled=True)

    def statement_cost(self) -> float:
        return self.cpu_per_statement if self.enabled else 0.0

    def compile_cost(self) -> float:
        return self.compile_cpu if self.enabled else 0.0

    def io_cost(self, pages: int = 1) -> float:
        return self.page_io * pages if self.enabled else 0.0

    def log_force_cost(self) -> float:
        return self.log_force if self.enabled else 0.0

    def rpc_cost(self) -> float:
        return self.rpc if self.enabled else 0.0

    def index_entry_cost(self, entries: float = 1) -> float:
        return self.index_entry * entries if self.enabled else 0.0


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
    timing: TimingModel = field(default_factory=TimingModel.zero)

    def with_changes(self, **kwargs) -> "DBConfig":
        """Functional update helper used by experiment configuration."""
        return replace(self, **kwargs)

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
