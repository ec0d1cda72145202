"""Every metric the benchmark reports, by name, with unit and clock.

Two clocks, named in every metric: ``sim`` is the modelled DB2/AIX cost
on the virtual clock (exact per seed); ``host`` is what the Python
interpreter burns (``time.process_time()``). ``count`` metrics are exact
counts or ratios of counts.

Per-layer kinds: **C** is read from the program's public ``*Metrics``
after the untraced run and repeats exactly; **H** is the layer's share
of the traced window's host self time; **S** is simulated seconds of
the layer's self time per committed op of the traced run; **N** is a
call count of the traced run per committed op; **B** describes the
benchmark run itself.

``BENCHMARK.json`` at the root of the repository lists the same names,
units, directions and bounds (``test_e2e.py`` checks that they agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from benchmarks.e2e.trace import BENCH_LAYER


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str                    # "sim" | "host" | "count"
    better: str                   # "higher" | "lower"
    bound: Optional[float] = None  # end-to-end only: share of the median
    kind: str = "E"


#: The share of the parent's median by which a metric may get worse.
#: The driver takes its medians over ten *different* seeds, so a bound
#: has to cover the seed-to-seed spread of the noisiest workload (three
#: times the interquartile spread measured on the reference box, see
#: README). Between two runs of the same seed every ``sim_*`` number
#: must be identical, which ``--compare`` checks at 1 %.
END_TO_END = [
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("sim_ops_per_s", "1/sim_s", "sim", "higher", 0.15),
    Metric("sim_op_trimmed_mean_s", "sim_s", "sim", "lower", 0.10),
    Metric("sim_op_tail_s", "sim_s", "sim", "lower", 0.20),
    Metric("sim_restart_to_commit_s", "sim_s", "sim", "lower", 0.20),
    Metric("host_ops_per_cpu_s", "1/s", "host", "higher", 0.25),
    Metric("host_peak_rss_mb", "MB", "host", "lower", 0.10),
]

#: ``--compare`` judges two runs of one seed: simulated numbers repeat
#: exactly there, so they get the tight bound the issue asked for.
SAME_SEED_BOUND = {"sim": 0.01, "host": 0.10}
FAILED_SHARE_BOUND = 0.001       # absolute


def end_to_end(result: dict) -> dict:
    """The end-to-end numbers of one untraced child result."""
    values = dict(result["sim"])
    values.pop("failed_share")
    values["setup_s"] = result["setup_s"]
    values["host_ops_per_cpu_s"] = (result["committed"]
                                    / result["window"]["host_cpu_s"])
    values["host_peak_rss_mb"] = result["host_peak_rss_mb"]
    return {m.name: values[m.name] for m in END_TO_END}


# ------------------------------------------------------------- per layer

def _ratio(top, bottom) -> float:
    return top / bottom if bottom else 0.0


class _Gone(LookupError):
    """A formula needed a counter, hook or traced run that is absent."""


class _Counts(dict):
    def __init__(self, counters: dict, missing):
        super().__init__(counters)
        self.missing = set(missing)

    def __getitem__(self, key):
        if key in self.missing:
            raise _Gone(key)
        return super().__getitem__(key)


class _Inputs:
    """What a per-layer formula may read."""

    def __init__(self, untraced: dict, traced: Optional[dict]):
        self.c = _Counts(untraced["counters"], untraced["missing_counters"])
        self.ops = max(1, untraced["committed"])
        self.extra = untraced["extra"]
        self.restart = untraced["restart"]
        self.sizes = untraced["sizes"]
        self.config = untraced["config"]
        self.window = untraced["window"]
        self._traced = traced

    @property
    def traced(self) -> dict:
        if self._traced is None:
            raise _Gone("no traced run")
        return self._traced

    @property
    def traced_ops(self) -> int:
        return max(1, self.traced["committed"])

    def names(self, layer: str) -> dict:
        """Traced per-name totals, provided ``layer`` kept all hooks."""
        trace = self.traced["trace"]
        if any(m.startswith(layer + ":") for m in trace["missing_hooks"]):
            raise _Gone(layer)
        return trace["names"]

    def share(self, layer: str) -> float:
        names = self.names(layer)
        total = sum(e["host_self_s"] for e in names.values()) or 1.0
        return sum(e["host_self_s"] for e in names.values()
                   if e["layer"] == layer) / total

    def per_traced_op(self, layer: str, field: str, *prefixes) -> float:
        """Sum of ``field`` over the names starting with a prefix."""
        return sum(e[field] for n, e in self.names(layer).items()
                   if n.startswith(prefixes)) / self.traced_ops


def _layer_metrics():
    """(Metric, formula) pairs, grouped by layer."""
    pairs = []

    def m(name, unit, clock, better, kind, formula):
        pairs.append((Metric(name, unit, clock, better, None, kind),
                      formula))

    def share(layer):
        m(f"{layer}.host_share", "share", "host", "lower", "H",
          lambda i: i.share(layer))

    def count(name, key, better="lower"):
        m(name, "count", "count", better, "C", lambda i: i.c[key])

    def per_op(name, key):
        m(name, "1/op", "count", "lower", "C", lambda i: i.c[key] / i.ops)

    # ---- kernel
    share("kernel.sim")
    m("kernel.sim.timers_per_op", "1/op", "count", "lower", "N",
      lambda i: i.per_traced_op("kernel.sim", "calls",
                                "kernel.sim:Simulator.after"))
    share("kernel.rpc")
    m("kernel.rpc.sim_s_per_op", "sim_s/op", "sim", "lower", "S",
      lambda i: i.per_traced_op("kernel.rpc", "sim_self_s",
                                "kernel.rpc:call", "kernel.rpc:cast",
                                "kernel.rpc:Channel.send"))
    count("kernel.pool.max_depth", "kernel.pool_max_depth")
    # ---- sql
    share("sql.parser")
    share("sql.optimizer")
    share("sql.executor")
    m("sql.plan_cache.hit_ratio", "ratio", "count", "higher", "C",
      lambda i: _ratio(i.c["db.plan_hits"],
                       i.c["db.plan_hits"] + i.c["db.plan_binds"]))
    m("sql.compile.sim_s_per_op", "sim_s/op", "sim", "lower", "C",
      lambda i: i.c["db.plan_binds"] * i.config["compile_cpu"] / i.ops)
    m("sql.executor.table_scan_ratio", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["db.table_scans"],
                       i.c["db.table_scans"] + i.c["db.index_scans"]))
    # ---- minidb
    per_op("minidb.session.statements_per_op", "db.statements")
    share("minidb.session")
    per_op("minidb.locks.acquires_per_op", "locks.acquires")
    share("minidb.locks")
    m("minidb.locks.wait_ratio", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["locks.waits"], i.c["locks.acquires"]))
    m("minidb.locks.wait_sim_s_per_op", "sim_s/op", "sim", "lower", "S",
      lambda i: i.per_traced_op("minidb.locks", "sim_incl_s",
                                "minidb.locks:LockManager.acquire"))
    count("minidb.locks.deadlocks", "locks.deadlocks")
    count("minidb.locks.timeouts", "locks.timeouts")
    count("minidb.locks.escalations", "locks.escalations")
    m("minidb.btree.calls_per_op", "1/op", "count", "lower", "N",
      lambda i: i.per_traced_op("minidb.btree", "calls",
                                "minidb.btree:BTree."))
    share("minidb.btree")
    m("minidb.storage.pool_hit_ratio", "ratio", "count", "higher", "C",
      lambda i: _ratio(i.c["pool.hits"],
                       i.c["pool.hits"] + i.c["pool.misses"]))
    per_op("minidb.storage.page_writes_per_op", "pool.page_writes")
    share("minidb.storage")
    per_op("minidb.wal.appends_per_op", "wal.appends")
    m("minidb.wal.forces_per_commit", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["wal.forces"], i.c["db.commits"]))
    m("minidb.wal.group_saved_ratio", "ratio", "count", "higher", "C",
      lambda i: _ratio(i.c["wal.forces_saved"],
                       i.c["wal.forces"] + i.c["wal.forces_saved"]))
    # Force + group window: all the simulated time inside Session.commit.
    m("minidb.wal.commit_sim_s_per_op", "sim_s/op", "sim", "lower", "S",
      lambda i: i.per_traced_op("minidb.session", "sim_self_s",
                                "minidb.session:Session.commit"))
    share("minidb.wal")
    per_op("minidb.mvcc.versions_per_op", "db.versions_created")
    m("minidb.mvcc.merged_ratio", "ratio", "count", "higher", "C",
      lambda i: _ratio(i.c["db.versions_merged"],
                       i.c["db.versions_created"]))
    count("minidb.db.auto_runstats_runs", "db.auto_runstats_runs")
    m("minidb.recovery.host_s", "s", "host", "lower", "B",
      lambda i: i.restart["host_s"])
    share("minidb.recovery")
    m("minidb.recovery.redo_records", "count", "count", "lower", "C",
      lambda i: i.restart["redo_records"])
    m("minidb.recovery.pages_replayed", "count", "count", "lower", "C",
      lambda i: i.restart["pages_replayed"])
    # ---- dlfm
    share("dlfm.agent")
    m("dlfm.agent.sim_s_per_op", "sim_s/op", "sim", "lower", "S",
      lambda i: i.per_traced_op("dlfm.agent", "sim_self_s", "dlfm.agent:"))
    m("dlfm.agent.batched_ops_per_batch", "ratio", "count", "higher", "C",
      lambda i: _ratio(i.c["dlfm.batched_ops"], i.c["dlfm.batches"]))
    m("dlfm.phase2.retry_ratio", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["dlfm.commit_retries"]
                       + i.c["dlfm.abort_retries"],
                       i.c["dlfm.commits"] + i.c["dlfm.aborts"]))
    m("dlfm.manager.failed_ops", "count", "count", "lower", "C",
      lambda i: i.c["dlfm.link_errors"] + i.c["dlfm.backouts"])
    share("dlfm.daemons")
    count("dlfm.daemons.files_archived", "dlfm.files_archived", "higher")
    # ---- host
    share("host.session")
    m("host.session.commit_sim_s_per_op", "sim_s/op", "sim", "lower", "S",
      lambda i: i.per_traced_op("host.session", "sim_self_s",
                                "host.session:HostSession.commit"))
    m("host.session.rpcs_per_commit", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["dlfm.rpcs"], i.c["host.commits"]))
    count("host.session.prepare_failures", "host.prepare_failures")
    count("host.session.statement_backouts", "host.statement_backouts")
    count("host.session.readonly_votes", "host.readonly_votes", "higher")
    m("host.indoubt.resolved", "count", "count", "lower", "C",
      lambda i: i.c["host.indoubt_commits"] + i.c["host.indoubt_aborts"])
    m("host.load.sim_files_per_s", "1/sim_s", "sim", "higher", "B",
      lambda i: _ratio(i.sizes.get("load_files", 0),
                       i.extra.get("load_sim_s", 0)))
    share("host.load")
    share("host.utilities")
    m("host.backup.sim_s", "sim_s", "sim", "lower", "B",
      lambda i: i.extra.get("backup_sim_s", 0.0))
    m("host.reconcile.sim_s", "sim_s", "sim", "lower", "B",
      lambda i: i.extra.get("reconcile_sim_s", 0.0))
    # ---- shard
    count("shard.map.reloads", "shard.reloads")
    share("shard.map")
    # Per commit that had a participant: the generator's read-only
    # transactions commit too, with none.
    m("shard.participants_per_commit", "ratio", "count", "lower", "C",
      lambda i: _ratio(i.c["dlfm.prepares"], i.c["host.commits"]
                       - i.extra.get("read_only_txns", 0)))
    # ---- archive
    count("archive.server.stores", "archive.stores", "higher")
    share("archive.server")
    # ---- the benchmark itself
    share(BENCH_LAYER)
    m("bench.trace.overhead_ratio", "ratio", "host", "lower", "B",
      lambda i: _ratio(i.traced["window"]["host_cpu_s"] / i.traced_ops,
                       i.window["host_cpu_s"] / i.ops))
    m("bench.host.wall_over_cpu", "ratio", "host", "lower", "B",
      lambda i: _ratio(i.window["host_wall_s"], i.window["host_cpu_raw_s"]))
    m("bench.host.slowdown", "ratio", "host", "lower", "B",
      lambda i: _ratio(i.window["host_cpu_raw_s"], i.window["host_cpu_s"]))
    m("bench.trace.missing_hooks", "count", "count", "lower", "B",
      lambda i: len(i.traced["trace"]["missing_hooks"]))
    return pairs


_PAIRS = _layer_metrics()
PER_LAYER = [metric for metric, _ in _PAIRS]

#: A run whose window wall time exceeds its CPU time by more than this
#: was disturbed (something else had the core).
DISTURBED = 1.1


def per_layer(untraced: dict, traced: Optional[dict]) -> dict:
    """Every per-layer metric; None where a hook or counter it needs no
    longer exists (or, for H/S/N, when there was no traced run)."""
    inputs = _Inputs(untraced, traced)
    values = {}
    for metric, formula in _PAIRS:
        try:
            values[metric.name] = formula(inputs)
        except _Gone:
            values[metric.name] = None
    return values
