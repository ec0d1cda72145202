"""DLFM configuration, including the paper's ``tuned()`` preset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.minidb.config import DBConfig, TimingModel


@dataclass
class DLFMConfig:
    """Knobs for one DLFM instance.

    ``tuned()`` is the configuration the paper converged on after its
    lessons learned; :data:`repro.configs.UNTUNED` lists the flips back
    to the starting point that exhibited the deadlock/timeout/escalation
    pathologies. Experiments flip individual knobs between the two.
    """

    #: Configuration of the local (black box) database.
    local_db: DBConfig = field(default_factory=DBConfig)
    #: Records per local commit in long-running work (delete-group, load,
    #: reconcile). The paper: "we issue commits to local DB2 periodically
    #: after processing every N records".
    batch_commit_n: int = 50
    #: Period of the Copy daemon's archive-table sweep (seconds).
    copy_period: float = 5.0
    #: Copy-daemon worker processes: entries claimed by one sweep are
    #: archived (transfer + local commit) by up to this many workers in
    #: parallel. 1 reproduces the historical strictly-serial daemon.
    copy_workers: int = 1
    #: Retrieve-daemon worker processes serving concurrent restores.
    retrieve_workers: int = 1
    #: Base delay between phase-2 retries after a deadlock/timeout
    #: (``DLFM.retry_backoff`` grows and jitters it); phase 2 retries
    #: until it succeeds, as the paper's does (Fig. 4).
    commit_retry_delay: float = 0.5
    #: Hand-craft File/Archive-table statistics at startup and guard them
    #: against user RUNSTATS (lesson §4 / E4).
    pin_statistics: bool = True

    @classmethod
    def tuned(cls, timing: Optional[TimingModel] = None) -> "DLFMConfig":
        """The paper's final configuration (§3.2.1, §4, §5)."""
        return cls(
            local_db=DBConfig(
                isolation="CS",           # repeatable read "not really needed"
                next_key_locking=False,   # disabled to kill index deadlocks
                lock_timeout=60.0,        # the paper's global-deadlock breaker
                locklist_size=200_000,    # "lock list size set sufficiently large"
                maxlocks_fraction=0.6,
                timing=timing or TimingModel()),
            pin_statistics=True)
