"""Kind-C per-layer numbers: exact counts read from the program's
public ``*Metrics`` attributes, summed over every database and DLFM.

A field that no longer exists is recorded in ``missing`` (and read as
0) instead of raising, so a rename shows up in the report.
"""

from __future__ import annotations

#: (flat prefix, attribute path from a Database, fields)
_DB_SOURCES = [
    ("db", ("metrics",), (
        "statements", "commits", "plan_binds", "plan_hits", "table_scans",
        "index_scans", "auto_runstats_runs", "pages_replayed",
        "replay_records", "versions_created", "versions_merged")),
    ("locks", ("locks", "metrics"), (
        "acquires", "waits", "deadlocks", "timeouts", "escalations")),
    ("pool", ("pool", "metrics"), ("hits", "misses", "page_writes")),
    ("wal", ("wal", "metrics"), ("appends", "forces", "forces_saved")),
]
_DLFM_FIELDS = ("rpcs", "batches", "batched_ops", "link_errors", "backouts",
                "prepares", "commits", "aborts", "commit_retries",
                "abort_retries", "files_archived")
_HOST_FIELDS = ("commits", "prepare_failures", "statement_backouts",
                "readonly_votes", "indoubt_commits", "indoubt_aborts")
#: High-water marks: the run's value is the maximum, not a difference.
_GAUGES = ("kernel.pool_max_depth",)


class Counters:
    def __init__(self):
        self.totals: dict = {}
        self.missing: set = set()
        self._base = None

    def start(self, workload) -> None:
        self._base = self.read(workload)

    def stop(self, workload) -> None:
        """Add what accrued since :meth:`start` (a crash rebuilds the
        volatile metrics objects, so a run is read in segments)."""
        for key, value in self.read(workload).items():
            if key in _GAUGES:
                self.totals[key] = max(self.totals.get(key, 0), value)
            else:
                self.totals[key] = (self.totals.get(key, 0)
                                    + value - self._base[key])
        self._base = None

    def _field(self, obj, path, name, key):
        for attr in path:
            obj = getattr(obj, attr, None)
        value = getattr(obj, name, None)
        if value is None:
            self.missing.add(key)
            return 0
        return value

    def read(self, workload) -> dict:
        out: dict = {}
        for db in workload.databases():
            for prefix, path, fields in _DB_SOURCES:
                for name in fields:
                    key = f"{prefix}.{name}"
                    out[key] = out.get(key, 0) + self._field(
                        db, path, name, key)
        system = getattr(workload, "system", None)
        dlfms = sorted(system.dlfms.items()) if system else []
        for name in _DLFM_FIELDS:
            key = f"dlfm.{name}"
            out[key] = sum(self._field(d, ("metrics",), name, key)
                           for _, d in dlfms)
        for name in _HOST_FIELDS:
            key = f"host.{name}"
            out[key] = self._field(system.host, ("metrics",), name,
                                   key) if system else 0
        shard_map = getattr(getattr(system, "host", None), "shard_map", None)
        out["shard.reloads"] = (self._field(shard_map, (), "reloads",
                                            "shard.reloads")
                                if shard_map is not None else 0)
        out["archive.stores"] = (self._field(system, ("archive",), "stores",
                                             "archive.stores")
                                 if system else 0)
        depth = 0
        for _, dlfm in dlfms:
            reader = getattr(dlfm, "daemon_counters", None)
            if reader is None:
                self.missing.add("kernel.pool_max_depth")
                continue
            depth = max([depth] + [v for k, v in reader().items()
                                   if k.endswith("_max_depth")])
        out["kernel.pool_max_depth"] = depth
        return out
