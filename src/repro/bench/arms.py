"""What the bench arms run (the registry in ``harness.py`` says under
which configuration, and what each must prove).

Every function takes the :class:`~repro.configs.Configuration`
it runs under — none builds one. Sizes are constants: the gates are
quoted at them. The E6/E8 scenario bodies are shared with
``benchmarks/bench_e6_sync_commit.py`` / ``bench_e8_batched_commit.py``,
which call them at the paper experiments' own sizes.
"""

from __future__ import annotations

import itertools
import math

from repro.errors import TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.host.load import LoadUtility
from repro.kernel import rpc
from repro.kernel.sim import Timeout

LOAD_FILES = 10_000          # the gate is quoted at >= 10k files
LOAD_PIECE = 500             # rows per piece
MS_CLIENTS = 6
MS_TXNS = 3                  # commits per client
MS_SERVERS = (1, 2, 4)       # participants per commit
DRAIN_FILES = 200            # archive backlog
STORM_RESTORES = 64          # concurrent restore callers
RECOVERY_TXNS = 500          # the gate is quoted at >= 500 committed txns
RECOVERY_CHECKPOINT_AT = 450  # leaves a realistic post-checkpoint tail
FLEET_SHARDS = (1, 8)
FLEET_TABLES = 16            # one file group each
FLEET_CLIENTS = 32           # zero think time
FLEET_ROWS = 24              # preloaded per table
FLEET_HOT = 4                # rows per table every client shares
FLEET_TXNS = 34              # per client (--quick: 11)
FLEET_TXNS_QUICK = 11
FLEET_ATTEMPTS = 4           # tries before a transaction counts as failed


def _p95(values: list) -> float:
    """Nearest-rank 95th percentile (same rule as WorkloadReport)."""
    ordered = sorted(values)
    return round(ordered[math.ceil(0.95 * len(ordered)) - 1], 6)


def _ratio(numerator: float, denominator: float) -> float:
    return round(numerator / max(denominator, 1e-9), 2)


def _datalink_table(system, table: str, spec: DatalinkSpec,
                    indexes: tuple = ()):
    """Generator: ``table(id INT, doc DATALINK)`` plus ``indexes``
    (``(kind, column)``, e.g. ``("UNIQUE INDEX", "id")``) and the
    statistics a DBA pins on it."""
    host = system.host
    yield from host.create_datalink_table(
        table, [("id", "INT"), ("doc", "TEXT")], {"doc": spec})
    session = host.db.session()
    for kind, column in indexes:
        yield from session.execute(
            f"CREATE {kind} {table}_{column} ON {table} ({column})")
    yield from session.commit()
    host.db.set_table_stats(table, card=1_000_000,
                            colcard={"id": 1_000_000, "doc": 1_000_000})


def _link_rows(system, table: str, ids, every: int = 50, content: str = ""):
    """Generator: link one new file per id into ``table``, ``every``
    rows per commit."""
    server = system.fs_name or "fs1"
    session = system.session()
    for n, i in enumerate(ids, 1):
        path = f"/{table}/f{i:06d}"
        system.create_user_file(server, path, owner="load", content=content)
        yield from session.execute(
            f"INSERT INTO {table} (id, doc) VALUES (?, ?)",
            (i, build_url(server, path)))
        if n % every == 0:
            yield from session.commit()
    yield from session.commit()


# ---------------------------------------------------------------------- load

def run_load(cfg, config) -> dict:
    """One LOAD into an indexed datalink table (batched pieces, deferred
    index build, the coordinator's 2PC)."""
    system = config.system(cfg.seed)
    system.run(_datalink_table(system, "assets",
                               DatalinkSpec(recovery=False),
                               (("INDEX", "id"), ("INDEX", "doc"))))
    entries = []
    for i in range(LOAD_FILES):
        path = f"/load/f{i:05d}"
        system.create_user_file("fs1", path, owner="load")
        entries.append(({"id": i}, build_url("fs1", path)))
    utility = LoadUtility(system.host, "assets", "doc", entries,
                          piece_size=LOAD_PIECE)
    started = system.sim.now
    stats = system.run(utility.run(), "load")
    return {"files": LOAD_FILES, "linked": stats.linked,
            "pieces": stats.pieces, "bulk_merged": stats.bulk_merged,
            "load_sim_s": round(system.sim.now - started, 6)}


# -------------------------------------------------------------- multi-server

def _multi_server_at(cfg, config, n_servers: int) -> dict:
    """Every transaction links one file on EACH server, so commit fans
    2PC out to ``n_servers`` participants. The coordinator overlaps
    their prepare and phase-2 work: commit latency should track the
    slowest participant, not their sum."""
    servers = tuple(f"fs{i + 1}" for i in range(n_servers))
    system = config.system(cfg.seed, servers=servers)
    system.run(_datalink_table(system, "ms", DatalinkSpec(recovery=False)))
    latencies: list[float] = []

    def client(cid: int):
        session = system.session()
        for t in range(MS_TXNS):
            for s, server in enumerate(servers):
                path = f"/ms/c{cid}/t{t}/s{s}"
                system.create_user_file(server, path, owner=f"c{cid}")
                yield from session.execute(
                    "INSERT INTO ms (id, doc) VALUES (?, ?)",
                    ((cid * 1_000 + t) * 10 + s, build_url(server, path)))
            started = system.sim.now
            yield from session.commit()
            latencies.append(system.sim.now - started)

    system.run(rpc.gather_all(system.sim, [client(i) for i in range(MS_CLIENTS)],
                              name="ms-client"))
    return {"txns": len(latencies), "p95_commit_s": _p95(latencies)}


def run_multi_server(cfg, config) -> dict:
    """p95 commit latency per participant count; ``p95_ratio`` quotes
    the widest fan-out over the narrowest."""
    out = {str(n): _multi_server_at(cfg, config, n) for n in MS_SERVERS}
    out["p95_ratio"] = _ratio(out[str(max(MS_SERVERS))]["p95_commit_s"],
                              out[str(min(MS_SERVERS))]["p95_commit_s"])
    return out


# ------------------------------------------------------------------- daemons

def _archive_drain(cfg, config) -> dict:
    """A backlog of recovery=yes links drained by ONE Copy-daemon sweep.
    The arm bills archive transfers (``timing.archive``), so the sweep's
    duration measures how well the claimed batch pipelines across the
    workers (serial: backlog × per-file cost)."""
    system = config.system(cfg.seed)
    dlfm = system.dlfms["fs1"]

    def setup():
        yield from _datalink_table(system, "docs",
                                   DatalinkSpec(recovery=True))
        yield from _link_rows(system, "docs", range(DRAIN_FILES),
                              content="x" * 500)

    system.run(setup())
    started = system.sim.now
    archived = system.run(dlfm.copyd.sweep(), "drain")
    return {"workers": dlfm.config.copy_workers, "archived": archived,
            "sim_s": round(system.sim.now - started, 6)}


def _restore_storm(cfg, config) -> dict:
    """Concurrent restore() callers against a pre-seeded archive (the
    post-PIT-restore storm of §3.5); each pays an archive fetch plus a
    Chown handoff, so workers pipeline fetches that a serial daemon
    serves one at a time."""
    system = config.system(cfg.seed)
    dlfm = system.dlfms["fs1"]

    def seed_archive():
        for i in range(STORM_RESTORES):
            yield from dlfm.archive.store(
                "fs1", f"/lost/f{i:05d}", f"rid{i:05d}", "y" * 500,
                owner="alice", group="users", mode=0o640)

    system.run(seed_archive())
    started = system.sim.now
    system.run(rpc.gather_all(
        system.sim,
        [dlfm.retrieved.restore(f"/lost/f{i:05d}", f"rid{i:05d}")
         for i in range(STORM_RESTORES)], name="restore"))
    return {"workers": dlfm.config.retrieve_workers,
            "restored": dlfm.metrics.files_restored,
            "sim_s": round(system.sim.now - started, 6)}


def run_daemons(cfg, serial, pooled) -> dict:
    """The archive drain and the restore storm, one worker against the
    contrast's pool."""
    out = {}
    for name, scenario in (("archive_drain", _archive_drain),
                           ("restore_storm", _restore_storm)):
        pair = {"serial": scenario(cfg, serial),
                "pooled": scenario(cfg, pooled)}
        pair["speedup"] = _ratio(pair["serial"]["sim_s"],
                                 pair["pooled"]["sim_s"])
        out[name] = pair
    return out


# ------------------------------------------------------------------ recovery

def run_recovery(cfg, config) -> dict:
    """Seed committed link transactions, crash the DLFM, restart it and
    time the FIRST new link transaction. It pays the post-checkpoint
    tail scan and the pages its statements touch — heap pages replay,
    and checkpoint index-image pages are read, on first touch; the rest
    is left to the background page worker while the commit is already
    done. ``cleaned`` counts the pages the worker wrote behind the seed
    load's checkpoints before the crash."""
    system = config.system(cfg.seed)
    dlfm = system.dlfms["fs1"]

    def seed_load():
        yield from _datalink_table(system, "docs",
                                   DatalinkSpec(recovery=False))
        yield from _link_rows(system, "docs",
                              range(RECOVERY_CHECKPOINT_AT), every=1)
        dlfm.db.checkpoint()
        yield from _link_rows(
            system, "docs", range(RECOVERY_CHECKPOINT_AT, RECOVERY_TXNS),
            every=1)

    system.run(seed_load())
    cleaned = dlfm.db.pool.metrics.cleaned
    dlfm.crash()
    started = system.sim.now
    summary = dlfm.restart()
    metrics = dlfm.db.metrics
    read_at_restart = metrics.index_pages_read
    cold = sum(dlfm.db.cold_index_pages().values())
    system.run(_link_rows(system, "docs", [RECOVERY_TXNS]))
    read = metrics.index_pages_read - read_at_restart
    return {"seed_txns": RECOVERY_TXNS, "redone": summary["redone"],
            "first_commit_s": round(system.sim.now - started, 6),
            "pages_replayed": metrics.pages_replayed,
            "index_pages_read": read, "index_pages_drained": cold - read,
            "cleaned": cleaned}


# --------------------------------------------------------------------- fleet

def fleet_load(system, txns: int) -> dict:
    """Zero-think clients, ``txns`` each, over the fleet ``system``;
    ``fleet_saturated``'s mix: 50 % four-link inserts (every fifth spans
    two shards), 25 % relinks, 10 % deletes, 15 % token reads; one pick
    in ten lands on the hot rows every client shares. An aborted attempt
    is retried as an application would; a transaction counts once, when
    it commits. (``python -m repro trace fleet`` runs it traced.)"""
    names = [f"fleet{k:02d}" for k in range(FLEET_TABLES)]
    hot = [(name, i) for name in names for i in range(FLEET_HOT)]
    row_ids, file_ids = itertools.count(FLEET_ROWS), itertools.count(1)
    tally = {"committed": 0, "failed": 0, "retries": 0}

    def setup():
        spec = DatalinkSpec(access_control="full", recovery=False)
        for name in names:
            yield from _datalink_table(system, name, spec,
                                       (("UNIQUE INDEX", "id"),))
            yield from _link_rows(system, name, range(FLEET_ROWS))

    def new_url(cid: int, table: str) -> str:
        path = f"/{table}/c{cid}-{next(file_ids):07d}"
        system.create_user_file(system.fs_name, path, owner=f"c{cid}")
        return build_url(system.fs_name, path)

    def transact(session, statements, read=False):
        run = session.fetch_with_tokens if read else session.execute
        for attempt in range(1, FLEET_ATTEMPTS + 1):
            try:
                for sql, params in statements:
                    yield from run(sql, params)
                yield from session.commit()
                tally["committed"] += 1
                return True
            except TransactionAborted:
                tally["retries"] += 1
                yield from session.rollback()
                yield Timeout(0.005 * attempt)
        tally["failed"] += 1
        return False

    def client(cid: int):
        rng = system.sim.stream(f"fleet-client-{cid}")
        session = system.session()
        # Table k is file group k+1 and groups hash to shards by id, so
        # the neighbouring table always lives on another shard.
        home = names[cid % FLEET_TABLES]
        away = names[(cid + 1) % FLEET_TABLES]
        mine = list(range(FLEET_HOT + cid // FLEET_TABLES, FLEET_ROWS,
                          FLEET_CLIENTS // FLEET_TABLES))

        def pick():
            return (rng.choice(hot) if rng.random() < 0.10
                    else (home, rng.choice(mine)))

        inserts = 0
        for _ in range(txns):
            # Every choice is made here, once, so a retried transaction
            # repeats itself.
            draw = rng.random()
            if draw < 0.50 or len(mine) < 2:
                inserts += 1
                rows = [(t, next(row_ids)) for t in
                        2 * [home] + 2 * [away if inserts % 5 == 0 else home]]
                ok = yield from transact(session, [
                    (f"INSERT INTO {t} (id, doc) VALUES (?, ?)",
                     (new_id, new_url(cid, t))) for t, new_id in rows])
                if ok:
                    mine.extend(new_id for t, new_id in rows if t == home)
            elif draw < 0.75:
                table, row_id = pick()
                yield from transact(session, [
                    (f"UPDATE {table} SET doc = ? WHERE id = ?",
                     (new_url(cid, table), row_id))])
            elif draw < 0.85:
                row_id = mine.pop(rng.randrange(len(mine)))
                yield from transact(session, [
                    (f"DELETE FROM {home} WHERE id = ?", (row_id,))])
            else:
                table, row_id = pick()
                yield from transact(session, [
                    (f"SELECT id, doc FROM {table} WHERE id = ?",
                     (row_id,))], read=True)

    def dlfm_forces():
        return sum(dlfm.db.wal.metrics.forces
                   for dlfm in system.dlfms.values())

    system.run(setup())
    started, forces = system.sim.now, dlfm_forces()
    system.run(rpc.gather_all(
        system.sim, [client(i) for i in range(FLEET_CLIENTS)],
        name="fleet-client"))
    elapsed = system.sim.now - started
    committed = max(tally["committed"], 1)
    return {**tally, "sim_s": round(elapsed, 6),
            "ops_per_sec": round(tally["committed"] / max(elapsed, 1e-9), 1),
            # Billed DLFM log forces (Prepare's, a steal's, the page
            # cleaner's); phase 2 commits lazily, and a checkpoint's
            # force is counted apart (``checkpoint_forces``).
            "dlfm_forces_per_commit": round(
                (dlfm_forces() - forces) / committed, 2)}


def run_fleet(cfg, config) -> dict:
    """The headline (ops/s of the largest fleet) and how much of it is
    capacity: the same load on one shard."""
    txns = FLEET_TXNS_QUICK if cfg.quick else FLEET_TXNS
    out = {str(n): fleet_load(config.system(cfg.seed, shards=n), txns)
           for n in FLEET_SHARDS}
    top, one = out[str(max(FLEET_SHARDS))], out[str(min(FLEET_SHARDS))]
    out["shard_scaling"] = _ratio(top["ops_per_sec"], one["ops_per_sec"])
    return out


# ----------------------------------------------------------------- sentinels

def e6_scenario(config, horizon: float) -> dict:
    """The paper's T1 / T11 / T2 script (§4, experiment E6; the cycle is
    told in ``benchmarks/bench_e6_sync_commit.py``) under ``config``.
    Its delays assume the uncalibrated clock."""
    system = config.system(seed=5)
    done = {"T1": None, "T11": None, "T2": None}

    def setup():
        yield from system.host.create_datalink_table(
            "t", [("id", "INT"), ("f", "TEXT")], {"f": DatalinkSpec()})
        for name in ("a", "b", "c"):
            system.create_user_file("fs1", f"/d/{name}", owner="u")
        # the host record 'x' that T11 and T2 both need
        session = system.host.db.session()
        yield from session.execute("CREATE TABLE hot (id INT, v INT)")
        yield from session.execute("INSERT INTO hot (id, v) VALUES (1, 0)")
        yield from session.commit()
        system.host.db.set_table_stats("hot", card=1_000_000,
                                       colcard={"id": 1_000_000})

    system.run(setup())

    def link(session, row_id: int, name: str):
        return session.execute("INSERT INTO t (id, f) VALUES (?, ?)",
                               (row_id, build_url("fs1", f"/d/{name}")))

    def application_a():
        session = system.session()
        # T1 commits at t=0.5, when T2's sub-transaction already holds
        # its DLFM key locks.
        yield from link(session, 1, "a")
        yield Timeout(0.5)
        yield from session.commit()
        done["T1"] = system.sim.now
        # T11: X-lock record x, then a LinkFile that must reach the SAME
        # child agent (still busy with T1's commit in async mode).
        try:
            yield from session.execute("UPDATE hot SET v = 1 WHERE id = 1")
            yield from link(session, 2, "b")
            yield from session.commit()
            done["T11"] = system.sim.now
        except TransactionAborted:
            yield from session.rollback()

    def application_b():
        session = system.session()
        yield Timeout(0.1)  # link BEFORE T1 commits (holds its key locks)
        try:
            yield from link(session, 3, "c")
            yield Timeout(2.0)  # sub-transaction stays open for a while
            yield from session.execute("UPDATE hot SET v = 2 WHERE id = 1")
            yield from session.commit()
            done["T2"] = system.sim.now
        except TransactionAborted:
            yield from session.rollback()

    def root():
        system.sim.spawn(application_a(), "app-a")
        system.sim.spawn(application_b(), "app-b")
        yield Timeout(horizon)

    system.run(root(), until=horizon)
    dlfm = system.dlfms["fs1"]
    return {"done": done,
            "completed": sum(1 for at in done.values() if at is not None),
            "commit_retries": dlfm.metrics.commit_retries,
            "dlfm_timeouts": dlfm.db.locks.metrics.timeouts}


def run_e6_sentinel(cfg, sync, asynchronous) -> dict:
    """Asynchronous phase 2 must still distributed-deadlock and
    synchronous must still complete."""
    out = {"sync": e6_scenario(sync, horizon=300.0),
           "async": e6_scenario(asynchronous, horizon=300.0)}
    out["preserved"] = (out["async"]["completed"] < 3
                        and out["async"]["commit_retries"] >= 2
                        and out["sync"]["completed"] == 3)
    return out


def e8_scenario(config, files: int, horizon: float) -> dict:
    """Drop a table of ``files`` linked files on a DLFM with a small
    active log (§4, experiment E8): the delete-group daemon unlinks the
    whole group, ``batch_commit_n`` records per local commit."""
    system = config.system(seed=2)
    dlfm = system.dlfms["fs1"]

    def setup():
        yield from _datalink_table(system, "bulk",
                                   DatalinkSpec(recovery=False))
        yield from _link_rows(system, "bulk", range(files))

    system.run(setup())
    linked = dlfm.linked_count()

    def drop_and_wait():
        session = system.session()
        yield from session.drop_table("bulk")
        yield from session.commit()
        yield Timeout(horizon)

    system.run(drop_and_wait(), until=horizon + 60)
    return {"linked": linked, "unlinked": linked - dlfm.linked_count(),
            "log_fulls": dlfm.db.wal.metrics.log_fulls,
            "batch_commits": dlfm.metrics.delgrpd_batch_commits,
            "completed": dlfm.linked_count() == 0}


def run_e8_sentinel(cfg, batched, unbatched) -> dict:
    """The log-full / batched-local-commit contrast must survive every
    fast path."""
    out = {"batched": e8_scenario(batched, files=200, horizon=300.0),
           "unbatched": e8_scenario(unbatched, files=200, horizon=300.0)}
    out["preserved"] = (out["unbatched"]["log_fulls"] > 0
                        and not out["unbatched"]["completed"]
                        and out["batched"]["completed"]
                        and out["batched"]["log_fulls"] == 0)
    return out
