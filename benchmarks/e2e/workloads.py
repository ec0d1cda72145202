"""The four closed-loop workloads and their restart step.

Every workload is built from its seed alone, runs its clients as
simulator coroutines (one OS thread), ends its set-up with
``gc.collect(); gc.freeze()``, checkpoints every database at 90 % of its
work, and ends with the *restart step*: all clients joined -> crash
every node -> restart every node -> time one new committed transaction
-> check every acknowledged commit against the generator's own oracle
(plus ``check_invariants`` where there is a DLFM).

Only the public surface of ``repro`` is driven (the list is in the
README); nothing here imports ``repro.bench`` or ``repro.workloads``.

Op counts are part of the workload definition: they are fixed multiples
of ``--seconds`` (``Scale.seconds``), tuned once on the reference box
so that one window costs about that many seconds of host CPU, and then
frozen. The same (seed, seconds) therefore always gives the same ops,
and every simulated-clock number repeats exactly.
"""

from __future__ import annotations

import gc
import itertools
import math
import time
from dataclasses import dataclass

from repro.chaos.invariants import check_invariants
from repro.errors import ReproError
from repro.host import DatalinkSpec, build_url
from repro.host.load import LoadUtility
from repro.kernel.sim import Event, Simulator, Timeout
from repro.minidb import Database
from repro.shard import ShardedSystem
from repro.system import System

from benchmarks.e2e import configs
from benchmarks.e2e.counters import Counters
from benchmarks.e2e.measure import Oracle, Stopwatch, latency_summary


@dataclass(frozen=True)
class Scale:
    """How much work one run does. ``seconds`` sizes the window (about
    that much host CPU on the reference box); ``preload`` scales what
    set-up builds. ``--smoke`` shrinks both."""

    seconds: float = 10.0
    preload: float = 1.0

    def ops(self, per_second: float, least: int = 1) -> int:
        return max(least, round(per_second * self.seconds))

    def rows(self, full: int, least: int = 8) -> int:
        return max(least, round(full * self.preload))


class Workload:
    """Shared driver: set-up, window, restart step, result."""

    name = ""
    #: ``bulk_load_restart`` restarts in the middle of its window.
    restart_in_window = False

    def __init__(self, seed: int, scale: Scale, tracer=None):
        self.seed = seed
        self.scale = scale
        #: ``trace.Tracer`` in a traced run: the generator's own
        #: coroutines are wrapped so their host time is billed to
        #: ``bench``, never to the program.
        self.tracer = tracer
        self.oracle = Oracle()
        self.latencies: list[float] = []
        self.attempted = 0
        self.committed = 0
        self.aborts: dict = {}
        self.checks: list[str] = []      # failed correctness checks
        self.extra: dict = {}            # workload-specific numbers
        self.restart: dict = {}
        self.report = None               # ConfigReport
        self.counters = Counters()
        self.gate = None                 # set while a checkpoint holds clients

    # ---------------------------------------------------------- plumbing

    @property
    def sim(self) -> Simulator:
        raise NotImplementedError

    def databases(self) -> list:
        raise NotImplementedError

    def traced(self, gen):
        return self.tracer.wrap_generator(gen) if self.tracer else gen

    def run(self, gen, name: str = "bench"):
        return self.sim.run_process(self.traced(gen), name)

    def spawn(self, gen, name: str):
        return self.sim.spawn(self.traced(gen), name)

    def join_all(self, gens_named):
        """Generator: spawn every (gen, name) and join them all."""
        procs = [self.spawn(gen, name) for gen, name in gens_named]
        for proc in procs:
            yield from proc.join()

    def pause_point(self):
        """Generator: clients call this between transactions and wait
        here while a checkpoint is being taken."""
        if self.gate is not None:
            yield self.gate.wait()

    def quiesced_checkpoint(self):
        """Generator: checkpoint every database at an instant when no
        transaction is in flight anywhere (clients are held at their
        pause points meanwhile).

        Only a quiescent checkpoint is safe to crash behind today: a
        transaction that is active at a checkpoint and commits after it
        is mishandled by instant restart (README, "Findings": an
        acknowledged commit undone, or its rows hidden from snapshots).
        """
        self.gate = Event(self.sim, name="checkpoint-gate")
        while any(db.txns.active for db in self.databases()):
            yield Timeout(0.001)
        for db in self.databases():
            db.checkpoint()
        gate, self.gate = self.gate, None
        gate.trigger()

    def note_abort(self, error: ReproError) -> None:
        reason = getattr(error, "reason", type(error).__name__)
        self.aborts[reason] = self.aborts.get(reason, 0) + 1

    def finish_setup(self) -> None:
        gc.collect()
        gc.freeze()

    # ---------------------------------------------------------- the run

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        """The measured work (called with the stopwatch running)."""
        raise NotImplementedError

    def window(self) -> None:
        self.clock = Stopwatch(self.sim)
        self.counters.start(self)
        self.clock.resume()
        self.drive()
        self.clock.pause()
        self.counters.stop(self)
        if not self.restart_in_window:
            if self.tracer:
                self.tracer.mark("restart")
            self.restart_step()

    # ---------------------------------------------------------- restart

    def crash_all(self) -> None:
        raise NotImplementedError

    def restart_all(self) -> int:
        """Restart every node; returns REDO records found pending."""
        raise NotImplementedError

    def probe(self):
        """Generator: one new committed transaction."""
        raise NotImplementedError

    def verify(self) -> list:
        """Failed durability/invariant checks after the restart."""
        raise NotImplementedError

    def restart_step(self) -> None:
        sim = self.sim
        replayed = self.counters.read(self)["db.pages_replayed"]
        cpu0 = time.process_time()
        self.crash_all()
        crashed_at = sim.now
        redo = self.restart_all()
        self.run(self.probe(), "probe")
        self.restart = {
            "sim_restart_to_commit_s": sim.now - crashed_at,
            "host_s": time.process_time() - cpu0,
            "redo_records": redo,
            "pages_replayed": (self.counters.read(self)["db.pages_replayed"]
                               - replayed),
        }
        # Checking is the benchmark's work, not the program's.
        paused = self.restart_in_window
        if paused:
            self.clock.pause()
        self.checks.extend(self.verify())
        if paused:
            self.clock.resume()

    # ---------------------------------------------------------- result

    def sizes(self) -> dict:
        """The op counts this run was built with (part of the result)."""
        raise NotImplementedError

    def result(self) -> dict:
        window_sim = self.clock.sim_s
        failed = self.attempted - self.committed
        latency = latency_summary(self.latencies)
        return {
            "workload": self.name,
            "seed": self.seed,
            "sizes": self.sizes(),
            "config": self.report.to_doc(),
            "attempted": self.attempted,
            "committed": self.committed,
            "failed": failed,
            "aborts": dict(sorted(self.aborts.items())),
            "latency": latency,
            "window": {"host_cpu_s": self.clock.cpu,
                       "host_cpu_raw_s": self.clock.cpu_raw,
                       "host_wall_s": self.clock.wall,
                       "laps": self.clock.laps,
                       "sim_s": window_sim},
            "sim": {
                "sim_ops_per_s": self.committed / window_sim,
                "sim_op_trimmed_mean_s": latency["trimmed_mean_s"],
                "sim_op_tail_s": latency["tail_s"],
                "sim_restart_to_commit_s":
                    self.restart["sim_restart_to_commit_s"],
                "failed_share": failed / max(1, self.attempted),
            },
            "restart": self.restart,
            "extra": self.extra,
            "counters": self.counters.totals,
            "missing_counters": sorted(self.counters.missing),
            "checks_failed": self.checks,
        }


# ===================================================================== DLFM

class DatalinkWorkload(Workload):
    """Workloads over a host database and one or more DLFMs."""

    system = None
    fs_name = "fs1"
    #: Host tables; each has an INT key ``id`` and a DATALINK ``doc``.
    tables: tuple = ()
    #: Tries a client gives one transaction before it counts as failed.
    ATTEMPTS = 4

    @property
    def sim(self):
        return self.system.sim

    def databases(self):
        return [self.system.host.db] + [
            d.db for _, d in sorted(self.system.dlfms.items())]

    def new_file(self, path: str, owner: str) -> str:
        self.system.create_user_file(self.fs_name, path, owner=owner,
                                     content=f"payload{path}")
        return build_url(self.fs_name, path)

    def create_table(self, name: str, recovery: bool):
        """Generator: a datalink table with a unique key index and the
        statistics a DBA pins on it (as ``run_system_test`` does)."""
        host = self.system.host
        yield from host.create_datalink_table(
            name, [("id", "INT"), ("attr", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(access_control="full",
                                 recovery=recovery)})
        plain = host.db.session()
        yield from plain.execute(
            f"CREATE UNIQUE INDEX {name}_id ON {name} (id)")
        yield from plain.execute(
            f"CREATE INDEX {name}_doc ON {name} (doc)")
        yield from plain.commit()
        host.db.set_table_stats(
            name, card=1_000_000,
            colcard={"id": 1_000_000, "doc": 1_000_000})

    def preload(self, table: str, ids, prefix: str):
        """Generator: link one new file per id, 50 rows per commit."""
        session = self.system.session()
        for n, row_id in enumerate(ids, 1):
            url = self.new_file(f"{prefix}/p{row_id:07d}", "preload")
            yield from session.execute(
                f"INSERT INTO {table} (id, attr, doc) VALUES (?, ?, ?)",
                (row_id, "pre", url))
            self.oracle.ack((table, row_id), url)
            if n % 50 == 0:
                yield from session.commit()
        yield from session.commit()

    def transact(self, session, body):
        """Generator: run one client transaction. ``body()`` makes the
        generator that issues its statements and returns the oracle
        entries its commit acknowledges.

        An aborted attempt (a deadlock victim: about one transaction in
        30 000 on ``fleet_saturated``) is rolled back and tried again,
        as an application would; the op's latency runs from the first
        attempt to the commit. It counts as failed after ``ATTEMPTS``.
        """
        self.attempted += 1
        started = self.sim.now
        for attempt in range(1, self.ATTEMPTS + 1):
            try:
                acked = yield from body()
                yield from session.commit()
                break
            except ReproError as error:
                self.note_abort(error)
                try:
                    yield from session.rollback()
                except ReproError:
                    pass
                yield Timeout(0.005 * attempt)
        else:
            return False
        self.latencies.append(self.sim.now - started)
        self.committed += 1
        self.clock.tick()
        for key, value in acked:
            self.oracle.ack(key, value)
        return True

    # Transaction bodies (see ``transact``): they only issue statements.

    def insert(self, session, rows):
        """Link one new file per (table, row id, url)."""
        for table, row_id, url in rows:
            yield from session.execute(
                f"INSERT INTO {table} (id, attr, doc) VALUES (?, ?, ?)",
                (row_id, "new", url))
        return [((table, row_id), url) for table, row_id, url in rows]

    def relink(self, session, table, row_id, url):
        """Point a row at a new file: unlink + link in one transaction."""
        yield from session.execute(
            f"UPDATE {table} SET doc = ?, attr = 'moved' WHERE id = ?",
            (url, row_id))
        return [((table, row_id), url)]

    # ---------------------------------------------------------- restart

    def crash_all(self):
        for _, dlfm in sorted(self.system.dlfms.items()):
            dlfm.crash()
        self.system.host.crash()

    def restart_all(self):
        redo = 0
        for _, dlfm in sorted(self.system.dlfms.items()):
            redo += dlfm.restart().get("redone", 0)
        self.run(self.system.host.restart(), "host-restart")
        return redo

    def probe(self):
        table = sorted(self.tables)[0]
        session = self.system.session()
        url = self.new_file("/probe/after-restart", "probe")
        yield from session.execute(
            f"INSERT INTO {table} (id, attr, doc) VALUES (?, ?, ?)",
            (-1, "probe", url))
        yield from session.commit()
        self.oracle.ack((table, -1), url)

    def host_rows(self) -> dict:
        actual = {}
        db = self.system.host.db
        for table in sorted(self.tables):
            tdef = db.catalog.tables[table]
            key, doc = tdef.position("id"), tdef.position("doc")
            for row in db.table_rows(table):
                actual[(table, row[key])] = row[doc]
        return actual

    def verify(self):
        # Let the restarted daemons finish what the crash interrupted
        # (archive copies, delayed unlinks) before the invariant sweep.
        violations = check_invariants(self.system)
        for _ in range(40):
            if not violations:
                break
            self.sim.run(until=self.sim.now + 2.5)
            violations = check_invariants(self.system)
        bad = [f"invariant {v.code} on {v.node}: {v.detail}"
               for v in violations[:5]]
        bad += [f"durability: {m}"
                for m in self.oracle.mismatches(self.host_rows())]
        return bad


class E1Paper(DatalinkWorkload):
    """The paper's system test: think-time-bound, every fast path off."""

    name = "e1_paper"
    tables = ("media",)
    CLIENTS = 100
    THINK = 13.3
    #: Simulated seconds of load per ``--seconds`` (about 7.5 ops each).
    SIM_PER_SECOND = 64.0
    PRELOAD = 2_000

    def sizes(self):
        return {"clients": self.CLIENTS, "think_s": self.THINK,
                "sim_duration_s": self.duration,
                "preloaded_rows": self.preloaded}

    def setup(self):
        dlfm, host, self.report = configs.paper()
        self.system = System(seed=self.seed, dlfm_config=dlfm,
                             host_config=host)
        self.duration = self.scale.seconds * self.SIM_PER_SECOND
        self.preloaded = self.scale.rows(self.PRELOAD, self.CLIENTS)
        self.row_ids = itertools.count(self.preloaded)
        self.file_ids = itertools.count(1)

        def build():
            yield from self.create_table("media", recovery=True)
            yield from self.preload("media", range(self.preloaded), "/pre")
        self.run(build(), "setup")
        self.finish_setup()

    def client(self, cid: int):
        sim = self.sim
        rng = sim.stream(f"e1-client-{cid}")
        session = self.system.session()
        # Each client owns a slice of the preloaded rows, so the 2:1
        # mix holds from its first operation.
        mine = list(range(cid, self.preloaded, self.CLIENTS))
        while True:
            think = rng.expovariate(1.0 / self.THINK)
            if sim.now + think >= self.window_end:
                return
            yield Timeout(think)
            yield from self.pause_point()
            # Monotonic names: every insert lands at the tail of the
            # file-name index, like timestamp-named media ingest.
            url = self.new_file(f"/data/ingest-{next(self.file_ids):09d}",
                                f"user{cid}")
            if rng.random() < 2 / 3:
                row_id = next(self.row_ids)
                ok = yield from self.transact(
                    session,
                    lambda: self.insert(session, [("media", row_id, url)]))
                if ok:
                    mine.append(row_id)
                    self.inserts += 1
            else:
                row_id = rng.choice(mine)
                ok = yield from self.transact(
                    session,
                    lambda: self.relink(session, "media", row_id, url))
                self.updates += ok

    def checkpointer(self):
        """Generator: checkpoint at 90 % of the window, then hold the
        window open to its full length."""
        yield Timeout(0.9 * self.duration)
        yield from self.quiesced_checkpoint()
        yield Timeout(max(0.0, self.window_end - self.sim.now))

    def drive(self):
        self.inserts = self.updates = 0
        self.window_end = self.sim.now + self.duration
        gens = [(self.client(i), f"client-{i}")
                for i in range(self.CLIENTS)]
        gens.append((self.checkpointer(), "checkpointer"))
        self.run(self.join_all(gens), "window")
        minutes = self.duration / 60.0
        self.extra = {"inserts_per_min": self.inserts / minutes,
                      "updates_per_min": self.updates / minutes}

    def verify(self):
        bad = super().verify()
        if self.duration >= 300.0:
            # The paper's yardstick (too few ops to test under
            # --smoke). 10 % rather than 5 %: the window is minutes, not
            # the paper's 24 h, and Poisson arrivals alone spread a
            # count of ~1 300 updates by 2.8 % (one sigma).
            for what, want in (("inserts_per_min", 300.0),
                               ("updates_per_min", 150.0)):
                got = self.extra[what]
                if abs(got - want) > 0.10 * want:
                    bad.append(f"{what} = {got:.1f}, paper says ~{want:.0f}")
        if self.counters.totals.get("locks.escalations"):
            bad.append("lock escalations on the paper workload")
        return bad


class FleetSaturated(DatalinkWorkload):
    """Everything on, eight shards, zero think: capacity-bound."""

    name = "fleet_saturated"
    SHARDS = 8
    TABLES = 16
    CLIENTS = 32
    ROWS_PER_TABLE = 125
    HOT_PER_TABLE = 4            # 16 x 4 = the 64-row shared hot set
    TXNS_PER_SECOND = 360.0      # all clients together

    def sizes(self):
        return {"shards": self.SHARDS, "tables": self.TABLES,
                "clients": self.CLIENTS, "rows_per_table": self.rows,
                "txns_per_client": self.txns, "hot_rows": len(self.hot)}

    def setup(self):
        dlfm, host, self.report = configs.all_on()
        self.system = ShardedSystem(seed=self.seed, shards=self.SHARDS,
                                    dlfm_config=dlfm, host_config=host)
        self.fs_name = self.system.fs_name
        self.rows = self.scale.rows(self.ROWS_PER_TABLE,
                                    2 * self.HOT_PER_TABLE + 2)
        self.txns = self.scale.ops(self.TXNS_PER_SECOND / self.CLIENTS, 2)
        self.total = self.txns * self.CLIENTS
        names = [f"fleet{k:02d}" for k in range(self.TABLES)]
        self.tables = self.names = names
        self.hot = [(name, i) for name in names
                    for i in range(self.HOT_PER_TABLE)]
        self.row_ids = itertools.count(self.rows)
        self.file_ids = itertools.count(1)
        self.done = 0

        def build():
            for name in names:
                yield from self.create_table(name, recovery=False)
            for name in names:
                yield from self.preload(name, range(self.rows),
                                        f"/fleet/{name}")
        self.run(build(), "setup")
        self.finish_setup()

    def client(self, cid: int):
        rng = self.sim.stream(f"fleet-client-{cid}")
        session = self.system.session()
        home = self.names[cid % self.TABLES]
        # Table k is file group k+1 and groups hash to shards by id, so
        # the neighbouring table always lives on another shard.
        away = self.names[(cid + 1) % self.TABLES]
        sharers = self.CLIENTS // self.TABLES
        # Own rows: this client's share of its home table, minus the hot
        # rows everybody shares.
        mine = list(range(self.HOT_PER_TABLE + cid // self.TABLES,
                          self.rows, sharers))
        inserts = 0
        for _ in range(self.txns):
            yield from self.pause_point()
            # Every choice is made here, once; the bodies only issue
            # statements, so a retried transaction repeats itself.
            draw = rng.random()
            if draw < 0.50 or len(mine) < 2:
                # Four links; on every fifth insert the last two go to
                # another shard's table, so two shards prepare.
                inserts += 1
                tables = [home, home] + 2 * [away if inserts % 5 == 0
                                             else home]
                rows = [(table, next(self.row_ids),
                         self.new_url(cid, table)) for table in tables]
                ok = yield from self.transact(
                    session, lambda: self.insert(session, rows))
                if ok:
                    mine.extend(row_id for table, row_id, _ in rows
                                if table == home)
            elif draw < 0.75:
                table, row_id = self.pick(rng, home, mine)
                url = self.new_url(cid, table)
                yield from self.transact(
                    session, lambda: self.relink(session, table, row_id, url))
            elif draw < 0.85:
                row_id = mine.pop(rng.randrange(len(mine)))
                yield from self.transact(
                    session, lambda: self.delete(session, home, row_id))
            else:
                table, row_id = self.pick(rng, home, mine)
                ok = yield from self.transact(
                    session, lambda: self.read(session, table, row_id))
                # A read commits with no participant (see
                # shard.participants_per_commit).
                self.extra["read_only_txns"] = (
                    self.extra.get("read_only_txns", 0) + ok)
            self.done += 1
            if self.done == int(0.9 * self.total):
                yield from self.quiesced_checkpoint()

    def pick(self, rng, home, mine):
        if rng.random() < 0.10:
            return rng.choice(self.hot)
        return home, rng.choice(mine)

    def new_url(self, cid, table):
        return self.new_file(
            f"/fleet/{table}/c{cid}-{next(self.file_ids):07d}", f"c{cid}")

    def delete(self, session, table, row_id):
        yield from session.execute(
            f"DELETE FROM {table} WHERE id = ?", (row_id,))
        return [((table, row_id), None)]

    def read(self, session, table, row_id):
        result, tokens = yield from session.fetch_with_tokens(
            f"SELECT id, doc FROM {table} WHERE id = ?", (row_id,))
        if len(result.rows) != 1 or len(tokens) != 1:
            self.checks.append(f"read of {table}.{row_id} returned "
                               f"{len(result.rows)} rows")
        return []

    def drive(self):
        gens = [(self.client(i), f"client-{i}")
                for i in range(self.CLIENTS)]
        self.run(self.join_all(gens), "window")


class BulkLoadRestart(DatalinkWorkload):
    """LOAD + archive drain + restart + reconcile beside live clients."""

    name = "bulk_load_restart"
    restart_in_window = True
    tables = ("bulk", "live")
    CLIENTS = 4
    THINK = 0.05
    PIECE = 250
    LIVE_ROWS = 1_000
    FILES_PER_SECOND = 300.0     # LOAD size
    AFTER_PER_SECOND = 5.0       # per-client transactions after restart

    def sizes(self):
        return {"clients": self.CLIENTS, "think_s": self.THINK,
                "load_files": self.files, "piece": self.PIECE,
                "live_rows": self.live_rows,
                "txns_after_restart_per_client": self.after}

    def setup(self):
        dlfm, host, self.report = configs.all_on()
        self.system = System(seed=self.seed, dlfm_config=dlfm,
                             host_config=host)
        self.files = self.scale.ops(self.FILES_PER_SECOND, 2 * self.PIECE)
        self.after = self.scale.ops(self.AFTER_PER_SECOND, 2)
        self.live_rows = self.scale.rows(self.LIVE_ROWS)
        self.row_ids = itertools.count(self.live_rows)

        def build():
            yield from self.create_table("live", recovery=True)
            yield from self.create_table("bulk", recovery=True)
            yield from self.preload("live", range(self.live_rows), "/live")
        self.run(build(), "setup")
        self.entries = []
        for i in range(self.files):
            url = self.new_file(f"/bulk/f{i:07d}", "load")
            self.entries.append(({"id": i, "attr": "bulk"}, url))
        self.finish_setup()

    def client(self, cid: int, budget=None):
        """1-link transactions until told to stop (``budget`` None) or
        for ``budget`` transactions."""
        rng = self.sim.stream(f"bulk-client-{cid}-{budget}")
        session = self.system.session()
        done = 0
        while (not self.stop) if budget is None else done < budget:
            yield Timeout(rng.expovariate(1.0 / self.THINK))
            yield from self.pause_point()
            row_id = next(self.row_ids)
            url = self.new_file(f"/live/c{cid}-{row_id:07d}", f"c{cid}")
            yield from self.transact(
                session,
                lambda: self.insert(session, [("live", row_id, url)]))
            done += 1

    def load(self, entries):
        """Generator: one LoadUtility run; a piece is one op."""
        started = self.sim.now
        utility = LoadUtility(self.system.host, "bulk", "doc", entries,
                              piece_size=self.PIECE)
        stats = yield from utility.run()
        self.attempted += stats.pieces
        self.committed += stats.pieces
        for values, url in entries:
            self.oracle.ack(("bulk", values["id"]), url)
        self.extra["load_sim_s"] = (self.extra.get("load_sim_s", 0.0)
                                    + self.sim.now - started)

    def load_and_backup(self):
        """Generator: LOAD 90 % of the files, drain the archive backlog
        through ``backup()``, checkpoint, LOAD the rest.

        The checkpoint waits for an instant without any transaction, and
        the Copy daemon leaves none while it works through a backlog, so
        it comes after the drain. What the crash then finds behind the
        checkpoint is a bulk tail: the second LOAD run, its archive
        copies in progress, and the clients' commits."""
        sim = self.sim
        cut = self.PIECE * max(1, int(0.9 * self.files / self.PIECE))
        yield from self.load(self.entries[:cut])
        started = sim.now
        yield from self.system.backup()
        self.extra["backup_sim_s"] = sim.now - started
        started = sim.now
        yield from self.quiesced_checkpoint()
        self.extra["checkpoint_wait_sim_s"] = sim.now - started
        yield from self.load(self.entries[cut:])
        self.stop = True

    def drive(self):
        self.stop = False
        gens = [(self.client(i), f"client-{i}")
                for i in range(self.CLIENTS)]
        gens.append((self.load_and_backup(), "load"))
        self.run(self.join_all(gens), "load-phase")
        # The restart step interrupts the counters (a crash rebuilds the
        # volatile ones), so they are read on both sides of it.
        self.counters.stop(self)
        self.restart_step()
        self.counters.start(self)

        def after():
            started = self.sim.now
            yield from self.system.reconcile()
            self.extra["reconcile_sim_s"] = self.sim.now - started
            yield from self.join_all(
                [(self.client(i, self.after), f"client-{i}b")
                 for i in range(self.CLIENTS)])
        self.run(after(), "after-restart")


# ================================================================== catalog

class CatalogQuery(Workload):
    """The data component alone: a bare engine under a metadata-catalog
    mix whose heap does not fit the buffer pool."""

    name = "catalog_query"
    SESSIONS = 8
    FILES = 10_000
    FILES_PER_DATASET = 50      # 100 000 files : 500 in the issue, scaled
    DATASETS_PER_NAMESPACE = 10
    POOL_SHARE = 0.64            # the issue's 2 000-page pool : 3 125-page heap
    COMMIT_EVERY = 10
    PIECE = 2_000
    STATEMENTS_PER_SECOND = 4_200.0

    Q_PATH = "SELECT file_id, state FROM mc_file WHERE path = ?"
    Q_LINEAGE = "SELECT child_id FROM mc_lineage WHERE parent_id = ?"
    Q_COUNT = "SELECT COUNT(*) FROM mc_file WHERE ds_id = ? AND state = ?"
    Q_DATASETS = "SELECT ds_id, name FROM mc_dataset WHERE ns_id = ?"
    U_STATE = "UPDATE mc_file SET state = ? WHERE file_id = ?"
    I_FILE = ("INSERT INTO mc_file (file_id, ds_id, path, state, bytes) "
              "VALUES (?, ?, ?, ?, ?)")
    I_LINEAGE = "INSERT INTO mc_lineage (parent_id, child_id) VALUES (?, ?)"

    DDL = [
        "CREATE TABLE mc_namespace (ns_id INT, name TEXT)",
        "CREATE UNIQUE INDEX mc_ns_pk ON mc_namespace (ns_id)",
        "CREATE TABLE mc_dataset (ds_id INT, ns_id INT, name TEXT, "
        "state TEXT)",
        "CREATE UNIQUE INDEX mc_ds_pk ON mc_dataset (ds_id)",
        "CREATE INDEX mc_ds_ns ON mc_dataset (ns_id)",
        "CREATE TABLE mc_file (file_id INT, ds_id INT, path TEXT, "
        "state TEXT, bytes INT)",
        "CREATE UNIQUE INDEX mc_file_pk ON mc_file (file_id)",
        "CREATE UNIQUE INDEX mc_file_path ON mc_file (path)",
        "CREATE INDEX mc_file_ds ON mc_file (ds_id)",
        "CREATE TABLE mc_lineage (parent_id INT, child_id INT)",
        "CREATE INDEX mc_lin_parent ON mc_lineage (parent_id)",
    ]

    @property
    def sim(self):
        return self._sim

    def databases(self):
        return [self.db]

    def sizes(self):
        return {"sessions": self.SESSIONS, "files": self.files,
                "datasets": self.datasets, "namespaces": self.namespaces,
                "pool_pages": self.pool_pages, "heap_pages": self.heap_pages,
                "statements_per_session": self.statements,
                "commit_every": self.COMMIT_EVERY}

    def path(self, i: int) -> str:
        ds = i % self.datasets
        return (f"dlfs://fs1/ns{ds % self.namespaces}/ds{ds}/"
                f"part-{i:07d}.dat")

    def setup(self):
        self.files = self.scale.rows(self.FILES, 3_000)
        self.datasets = max(2, self.files // self.FILES_PER_DATASET)
        self.namespaces = max(1, self.datasets
                              // self.DATASETS_PER_NAMESPACE)
        self.statements = self.scale.ops(
            self.STATEMENTS_PER_SECOND / self.SESSIONS, self.COMMIT_EVERY)
        self.total = self.statements * self.SESSIONS
        self._sim = Simulator(seed=self.seed)
        config, self.report = configs.catalog()
        self.heap_pages = math.ceil(self.files / config.rows_per_page)
        self.pool_pages = max(8, int(self.POOL_SHARE * self.heap_pages))
        configs.override(config, "db", self.report,
                         buffer_pool_pages=self.pool_pages)
        self.db = Database(self._sim, "catalog", config)
        self.next_file = itertools.count(self.files)
        self.done = 0
        self.checkpointed = False
        self.run(self.ingest(), "setup")
        self.finish_setup()

    def ingest(self):
        session = self.db.session()
        for sql in self.DDL:
            yield from session.execute(sql)
        yield from session.commit()
        ins_ns = yield from session.prepare(
            "INSERT INTO mc_namespace (ns_id, name) VALUES (?, ?)")
        ins_ds = yield from session.prepare(
            "INSERT INTO mc_dataset (ds_id, ns_id, name, state) "
            "VALUES (?, ?, ?, ?)")
        ins_file = yield from session.prepare(self.I_FILE)
        ins_lin = yield from session.prepare(self.I_LINEAGE)
        for ns in range(self.namespaces):
            yield from ins_ns.execute((ns, f"ns{ns}"))
        for ds in range(self.datasets):
            yield from ins_ds.execute(
                (ds, ds % self.namespaces, f"ds{ds}",
                 "active" if ds % 8 else "frozen"))
        yield from session.commit()
        for i in range(self.files):
            state = "archived" if i % 4 == 0 else "linked"
            yield from ins_file.execute(
                (i, i % self.datasets, self.path(i), state,
                 (i * 37) % 1_000_000))
            self.oracle.ack(("file", i), state)
            if i and i % 4 == 0:
                yield from ins_lin.execute((i // 2, i))
            if (i + 1) % self.PIECE == 0:
                yield from session.commit()
        yield from session.commit()

    def skewed(self, rng) -> int:
        """80 % of picks land on the 20 % of files whose id is a
        multiple of five (spread over every heap page)."""
        if rng.random() < 0.8:
            return 5 * rng.randrange(self.files // 5)
        return rng.randrange(self.files)

    def session_loop(self, sid: int):
        sim = self.sim
        rng = sim.stream(f"catalog-session-{sid}")
        session = self.db.session()
        prepared = {}
        for sql in (self.Q_PATH, self.Q_LINEAGE, self.Q_COUNT,
                    self.Q_DATASETS, self.U_STATE, self.I_FILE,
                    self.I_LINEAGE):
            prepared[sql] = yield from session.prepare(sql)
        pending = []     # oracle entries waiting for their commit
        uncommitted = 0  # statements waiting for their commit
        issued = 0
        while issued < self.statements:
            draw = rng.random()
            batch = []   # (sql or handle, params, oracle entry)
            if draw < 0.40:
                batch.append((prepared[self.Q_PATH],
                              (self.path(self.skewed(rng)),), None))
            elif draw < 0.60:
                batch.append((prepared[self.Q_LINEAGE],
                              (self.skewed(rng),), None))
            elif draw < 0.75:
                batch.append((prepared[self.Q_COUNT],
                              (rng.randrange(self.datasets),
                               rng.choice(("linked", "archived"))), None))
            elif draw < 0.80:
                batch.append((prepared[self.Q_DATASETS],
                              (rng.randrange(self.namespaces),), None))
            elif draw < 0.90:
                # Literal spliced into the text: a distinct plan-cache
                # key per value, so this one compiles every time.
                batch.append((
                    "SELECT file_id, state FROM mc_file WHERE path = "
                    f"'{self.path(self.skewed(rng))}'", (), None))
            elif draw < 0.95:
                file_id = self.skewed(rng)
                state = rng.choice(("linked", "archived", "staged"))
                batch.append((prepared[self.U_STATE], (state, file_id),
                              (("file", file_id), state)))
            else:
                file_id = next(self.next_file)
                batch.append((prepared[self.I_FILE],
                              (file_id, file_id % self.datasets,
                               self.path(file_id), "linked", file_id % 977),
                              (("file", file_id), "linked")))
                batch.append((prepared[self.I_LINEAGE],
                              (self.skewed(rng), file_id), None))
            wrote = any(entry is not None for _, _, entry in batch)
            for what, params, entry in batch:
                self.attempted += 1
                issued += 1
                started = sim.now
                try:
                    if isinstance(what, str):
                        yield from session.execute(what, params)
                    else:
                        yield from what.execute(params)
                except ReproError as error:
                    self.note_abort(error)
                    pending, uncommitted = [], 0
                    yield from session.rollback()
                    break
                uncommitted += 1
                self.clock.tick()
                if entry is not None:
                    pending.append(entry)
                # Commit every ten statements, and at once after a
                # write: a session then never reads while it holds a
                # row lock, so no two sessions can deadlock.
                if what is batch[-1][0] and (
                        wrote or uncommitted >= self.COMMIT_EVERY
                        or issued >= self.statements):
                    yield from session.commit()
                    # A statement is done when it returns; the one that
                    # carries the commit is done when the commit is.
                    self.latencies.append(sim.now - started)
                    self.committed += uncommitted
                    for key, value in pending:
                        self.oracle.ack(key, value)
                    self.done += uncommitted
                    pending, uncommitted = [], 0
                    if (self.done >= 0.9 * self.total
                            and not self.checkpointed):
                        self.checkpointed = True
                        yield from self.quiesced_checkpoint()
                    yield from self.pause_point()
                else:
                    self.latencies.append(sim.now - started)

    def drive(self):
        gens = [(self.session_loop(i), f"session-{i}")
                for i in range(self.SESSIONS)]
        self.run(self.join_all(gens), "window")

    def crash_all(self):
        self.db.crash()

    def restart_all(self):
        return self.db.restart().get("redone", 0)

    def probe(self):
        session = self.db.session()
        file_id = next(self.next_file)
        yield from session.execute(
            self.I_FILE, (file_id, 0, self.path(file_id), "linked", 1))
        yield from session.commit()
        self.oracle.ack(("file", file_id), "linked")

    def verify(self):
        tdef = self.db.catalog.tables["mc_file"]
        key, state = tdef.position("file_id"), tdef.position("state")
        actual = {("file", row[key]): row[state]
                  for row in self.db.table_rows("mc_file")}
        return [f"durability: {m}" for m in self.oracle.mismatches(actual)]


WORKLOADS = {cls.name: cls for cls in
             (E1Paper, FleetSaturated, CatalogQuery, BulkLoadRestart)}
