"""Workload result collection and reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class WorkloadReport:
    """Aggregate outcome of one workload run (virtual-time based)."""

    clients: int
    virtual_seconds: float
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    selects: int = 0
    aborts: dict = field(default_factory=dict)   # reason → count
    latencies: list = field(default_factory=list)
    # engine-side counters snapshotted at the end:
    deadlocks: int = 0
    lock_timeouts: int = 0
    escalations: int = 0
    commit_retries: int = 0
    log_fulls: int = 0

    def note_abort(self, reason: str) -> None:
        self.aborts[reason] = self.aborts.get(reason, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)

    @property
    def minutes(self) -> float:
        return self.virtual_seconds / 60.0

    @property
    def inserts_per_minute(self) -> float:
        return self.inserts / self.minutes if self.minutes else 0.0

    @property
    def updates_per_minute(self) -> float:
        return self.updates / self.minutes if self.minutes else 0.0

    def latency_percentile(self, pct: float) -> Optional[float]:
        """Exact nearest-rank percentile over the recorded latencies.

        Nearest-rank: the smallest sample such that at least ``pct``
        percent of the samples are <= it — ``ceil(pct/100 * n)`` in
        one-based ranks. The old truncating ``int(pct/100 * n)`` index
        over-reported small percentiles (p50 of [1..10] gave the 6th
        sample) and only returned the maximum by accident of ``min``.
        """
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        return {
            "clients": self.clients,
            "virtual_minutes": round(self.minutes, 2),
            "inserts_per_min": round(self.inserts_per_minute, 1),
            "updates_per_min": round(self.updates_per_minute, 1),
            "deadlocks": self.deadlocks,
            "lock_timeouts": self.lock_timeouts,
            "escalations": self.escalations,
            "commit_retries": self.commit_retries,
            "aborts": dict(self.aborts),
            "p50_latency_s": self.latency_percentile(50),
            "p95_latency_s": self.latency_percentile(95),
            "p99_latency_s": self.latency_percentile(99),
        }
