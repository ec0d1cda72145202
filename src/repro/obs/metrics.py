"""Latency histograms and the one counters walker.

The :class:`Histogram` uses fixed log-scale buckets so percentile math
is deterministic, bounded-memory and mergeable — the standard shape for
latency instrumentation (cf. HdrHistogram).  Percentiles use the
nearest-rank definition over bucket upper bounds, clamped by the true
observed maximum so ``p100 == max`` exactly.

Every counter has one home: a field of its component's ``*Metrics``
dataclass. :func:`counters` walks them all and names each
``<layer>.<node>.<field>``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional


class Histogram:
    """Fixed log-scale bucket histogram with percentile queries.

    Buckets are powers of ``growth`` spanning ``[min_bound, max_bound]``;
    a value is counted in the first bucket whose upper bound is >= the
    value.  Values below ``min_bound`` land in the first bucket, values
    above ``max_bound`` in the overflow bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min_value",
                 "max_value")

    def __init__(self, min_bound: float = 1e-6, max_bound: float = 1e7,
                 growth: float = 2.0):
        bounds: List[float] = []
        bound = min_bound
        while bound < max_bound:
            bounds.append(bound)
            bound *= growth
        bounds.append(max_bound)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile estimated from bucket upper bounds.

        Returns the upper bound of the bucket holding the nearest-rank
        sample, clamped to the observed maximum (so the estimate never
        exceeds a value that was actually recorded).
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * self.count))
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                bound = (self.bounds[i] if i < len(self.bounds)
                         else self.max_value)
                return min(bound, self.max_value)
        return self.max_value  # pragma: no cover — rank <= count always hits

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_value if self.max_value is not None else 0.0,
        }


def counters(system) -> Dict[str, float]:
    """Every counter of a ``System`` or ``ShardedSystem``, flat.

    Keys are ``<layer>.<node>.<field>``: the layers ``db``, ``locks``,
    ``wal`` and ``buffer`` of the host database (node = its dbid) and
    of each DLFM's database (node = the DLFM's name), ``host`` and
    ``dlfm`` for the datalink engines and ``shardmap`` for a fleet's routing
    cache, plus ``archive`` for the archive server's transfer counts
    (node = its name). A dict field (``aborts_by_reason``) adds one key
    per entry.
    """
    host = system.host
    out: Dict[str, float] = {}
    dlfms = sorted(system.dlfms.items())
    for node, db in [(host.dbid, host.db)] + [(n, d.db) for n, d in dlfms]:
        _fields(out, "db", node, db.metrics)
        _fields(out, "locks", node, db.locks.metrics)
        _fields(out, "wal", node, db.wal.metrics)
        _fields(out, "buffer", node, db.pool.metrics)
    _fields(out, "host", host.dbid, host.metrics)
    for name, dlfm in dlfms:
        _fields(out, "dlfm", name, dlfm.metrics)
    if host.shard_map is not None:
        out[f"shardmap.{host.dbid}.reloads"] = host.shard_map.reloads
        out[f"shardmap.{host.dbid}.entries"] = len(host.shard_map.entries())
    archive = system.archive
    for name in ("stores", "retrieves", "deletes"):
        out[f"archive.{archive.name}.{name}"] = getattr(archive, name)
    return out


def _fields(out: dict, layer: str, node: str, metrics) -> None:
    for name, value in vars(metrics).items():
        key = f"{layer}.{node}.{name}"
        if isinstance(value, dict):
            for sub, count in value.items():
                out[f"{key}.{sub}"] = count
        else:
            out[key] = value
