"""The two configurations the workloads run under.

Overrides are applied field by field and only where the field still
exists: a flag deleted by a later flag-collapse is *skipped and
reported* in the result's ``config`` block, never an AttributeError in
the middle of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dlfm.config import DLFMConfig
from repro.host import HostConfig
from repro.minidb.config import DBConfig, TimingModel


@dataclass
class ConfigReport:
    """Which overrides took effect (printed with every result)."""

    name: str
    applied: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    #: Simulated seconds billed per plan-cache miss (0.0 = free).
    compile_cpu: float = 0.0

    def to_doc(self) -> dict:
        return {"name": self.name, "applied": self.applied,
                "skipped": self.skipped, "compile_cpu": self.compile_cpu}


def override(obj, path: str, report: ConfigReport, **fields) -> None:
    """Set ``fields`` on ``obj`` where they exist; record the rest."""
    for name, value in fields.items():
        label = f"{path}.{name}={value!r}"
        if hasattr(obj, name):
            setattr(obj, name, value)
            report.applied.append(label)
        else:
            report.skipped.append(label)


#: ``all_on`` bills the two cost terms that default to "free".
BILLED = {"compile_cpu": 0.004, "index_entry": 0.002}


def paper() -> tuple[DLFMConfig, HostConfig, ConfigReport]:
    """The paper's final configuration, exactly as ``run_system_test``
    builds it: ``tuned()`` DLFM, default host, calibrated clock, every
    opt-in fast path off."""
    report = ConfigReport("paper")
    timing = TimingModel.calibrated()
    dlfm = DLFMConfig.tuned(timing=timing)
    host = HostConfig()
    override(host.db, "host.db", report, timing=timing)
    return dlfm, host, report


def all_on() -> tuple[DLFMConfig, HostConfig, ConfigReport]:
    """``tuned()`` plus every fast path PRs 2-10 added, with compile
    and index-maintenance cost billed."""
    report = ConfigReport("all_on")
    timing = TimingModel.calibrated()
    override(timing, "timing", report, **BILLED)
    report.compile_cpu = getattr(timing, "compile_cpu", 0.0)
    dlfm = DLFMConfig.tuned(timing=timing)
    override(dlfm, "dlfm", report, read_isolation="SI", auto_runstats=True,
             copy_workers=4)
    override(dlfm.local_db, "dlfm.local_db", report,
             group_commit_window="auto", instant_recovery=True)
    host = HostConfig()
    override(host, "host", report, batch_datalinks=True,
             decision_piggyback=True, fanout_workers=8,
             bulk_load_indexes=True, read_isolation="SI")
    override(host.db, "host.db", report, timing=timing, isolation="CS",
             next_key_locking=False, group_commit_window="auto",
             instant_recovery=True)
    return dlfm, host, report


def catalog() -> tuple[DBConfig, ConfigReport]:
    """A bare engine for the data-component workload: tuned locking,
    auto-RUNSTATS instead of pinned statistics, compile cost billed
    (the workload sizes the buffer pool below its ``mc_file`` heap)."""
    report = ConfigReport("catalog")
    timing = TimingModel.calibrated()
    override(timing, "timing", report, compile_cpu=BILLED["compile_cpu"])
    report.compile_cpu = getattr(timing, "compile_cpu", 0.0)
    db = DBConfig()
    override(db, "db", report, timing=timing, isolation="CS",
             next_key_locking=False, locklist_size=1_000_000,
             maxlocks_fraction=1.0, auto_runstats=True)
    return db, report
