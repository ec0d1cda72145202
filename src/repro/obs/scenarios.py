"""Traced scenarios for ``python -m repro trace``.

Each scenario builds a full :class:`~repro.system.System` — under one of
the two shipped configurations (:mod:`repro.configs`) plus, at most, the
overrides declared in :data:`CONFIGURATIONS` — with a recording
:class:`~repro.obs.Tracer` attached, drives a deterministic workload
that exercises every instrumented layer (kernel channels/RPC, minidb
lock waits, WAL forces, DLFM forward ops, phase-2 retries, at least one
daemon pass), and returns ``(tracer, counters, meta)``: ``counters`` is
:func:`repro.obs.counters` of the system at the end of the run.

Because everything runs on the virtual clock with seeded RNG streams,
two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

from repro.configs import Configuration
from repro.dlfm import api
from repro.host import DatalinkSpec, build_url
from repro.kernel import rpc
from repro.kernel.sim import Timeout
from repro.obs.metrics import counters
from repro.obs.trace import Tracer

#: Scenario → (base, declared overrides). ``commit-retry`` shortens the
#: DLFM's lock timeout and retry delay so several phase-2 retry cycles
#: fit in the 10 s its blocker holds the row.
CONFIGURATIONS = {
    "commit-retry": ("paper", {"dlfm.local_db.lock_timeout": 2.0,
                               "dlfm.commit_retry_delay": 1.0}),
    "workload": ("paper", {}),
    "sharded": ("all_on", {}),
    "fleet": ("all_on", {}),
}


def commit_retry(seed: int = 7):
    """Phase-2 commit blocked by an interloper: retries, then success.

    The canonical Figure-4 situation: a prepared transaction's phase-2
    commit must take new locks on ``dfm_txn``; a blocker holds the row
    X-locked, so the commit deadlocks/times out and retries until the
    blocker lets go. The trailing sleep lets the Copy daemon archive the
    newly linked file, so the trace includes a daemon pass.
    """
    tracer = Tracer()
    configuration = Configuration(*CONFIGURATIONS["commit-retry"])
    system = configuration.system(seed, tracer=tracer)
    dlfm = system.dlfms["fs1"]
    host = system.host

    def setup():
        for i in range(3):
            system.create_user_file("fs1", f"/v/clip{i}.mpg", owner="alice",
                                    content=f"VIDEO-{i}" * 20)
        yield from host.create_datalink_table(
            "clips", [("id", "INT"), ("title", "TEXT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})

    system.run(setup())

    def prepared_txn():
        session = system.session()
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (0, "clip 0", build_url("fs1", "/v/clip0.mpg")))
        txn_id = session.txn_id
        yield from session.send_control("fs1",
                                        api.Prepare(host.dbid, txn_id))
        yield from session.session.commit()
        return txn_id

    txn_id = system.run(prepared_txn(), "prepare")

    def scenario():
        blocker = dlfm.db.session()
        yield from blocker.execute(
            "SELECT * FROM dfm_txn WHERE dbid = ? AND txn_id = ? FOR UPDATE",
            (host.dbid, txn_id))
        chan = dlfm.connect()
        reply = yield from rpc.cast(
            system.sim, chan, api.Commit(host.dbid, txn_id))
        yield Timeout(10.0)          # several retry cycles while blocked
        yield from blocker.rollback()
        result = yield from rpc.wait_reply(reply)
        chan.close()
        # Let the Copy daemon sweep the archive entry of the linked file.
        yield Timeout(dlfm.config.copy_period + 2.0)
        return result

    result = system.run(scenario(), "scenario")
    meta = {
        "scenario": "commit-retry",
        "config": configuration.base,
        "seed": seed,
        "outcome": result["outcome"],
        "commit_retries": dlfm.metrics.commit_retries,
        "files_archived": dlfm.metrics.files_archived,
    }
    return tracer, counters(system), meta


def workload(seed: int = 42, clients: int = 8, duration: float = 120.0):
    """A short multi-client E1-style workload with tracing on."""
    from repro.workloads.runner import SystemTestConfig, run_system_test

    tracer = Tracer()
    configuration = Configuration(*CONFIGURATIONS["workload"])
    config = SystemTestConfig(clients=clients, duration=duration, seed=seed,
                              tracer=tracer, configuration=configuration)
    report = run_system_test(config)
    tracer.histogram("workload.latency").extend(report.latencies)
    meta = {
        "scenario": "workload",
        "config": configuration.base,
        "seed": seed,
        "clients": clients,
        "duration": duration,
        "inserts": report.inserts,
        "updates": report.updates,
        "deadlocks": report.deadlocks,
        "commit_retries": report.commit_retries,
    }
    return tracer, counters(report.system), meta


def sharded(seed: int = 11, shards: int = 3):
    """A small sharded fleet under concurrent cross-shard traffic plus
    one online rebalance, so the trace carries per-shard spans and the
    report's lock hotspots / counters attribute work to a shard
    (``dlfm.shard2.*``, ``locks.shard3.*``, ...)."""
    from repro.shard import move_group

    tracer = Tracer()
    configuration = Configuration(*CONFIGURATIONS["sharded"])
    system = configuration.system(seed, shards=shards, tracer=tracer)
    host = system.host
    tables = 2 * shards

    def setup():
        for i in range(tables):
            yield from host.create_datalink_table(
                f"t{i}", [("id", "INT"), ("doc", "TEXT")],
                {"doc": DatalinkSpec(recovery=False)})

    system.run(setup())

    def client(i: int):
        session = system.session()
        for n in range(3):
            path = f"/sh/t{i}/f{n}"
            system.create_user_file(system.fs_name, path, owner=f"c{i}")
            yield from session.execute(
                f"INSERT INTO t{i} (id, doc) VALUES (?, ?)",
                (n, build_url(system.fs_name, path)))
        yield from session.commit()
        session.close()

    def scenario():
        procs = [system.sim.spawn(client(i), f"sh-client-{i}")
                 for i in range(tables)]
        for proc in procs:
            yield from proc.join()
        # Rebalance one group onto whichever shard does not own it.
        grp_id = min(host.group_ids.values())
        src = host.shard_map.resolve(grp_id)[0]
        dst = next(n for n in sorted(system.dlfms) if n != src)
        moved = yield from move_group(host, grp_id, dst)
        return moved

    moved = system.run(scenario(), "scenario")
    meta = {
        "scenario": "sharded",
        "config": configuration.base,
        "seed": seed,
        "shards": shards,
        "moved_group": moved,
        "shardmap_reloads": host.shard_map.reloads,
        "rpcs": {name: system.dlfms[name].metrics.rpcs
                 for name in sorted(system.dlfms)},
    }
    return tracer, counters(system), meta


def fleet(seed: int = 42, shards: int = 8):
    """The bench's saturated fleet (32 zero-think clients, ``--quick``
    scale), traced: unlike ``sharded`` it has the concurrency that makes
    lock waits, which the report rolls up by table and mode."""
    from repro.bench import arms

    tracer = Tracer()
    configuration = Configuration(*CONFIGURATIONS["fleet"])
    system = configuration.system(seed, shards=shards, tracer=tracer)
    result = arms.fleet_load(system, arms.FLEET_TXNS_QUICK)
    meta = {"scenario": "fleet", "config": configuration.base, "seed": seed,
            "shards": shards, "clients": arms.FLEET_CLIENTS, **result}
    return tracer, counters(system), meta


SCENARIOS = {
    "commit-retry": commit_retry,
    "workload": workload,
    "sharded": sharded,
    "fleet": fleet,
}
