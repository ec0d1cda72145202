"""Seeded chaos campaign: workload × faults × crashes × recoveries.

A campaign builds a full :class:`repro.system.System` with a
:class:`~repro.chaos.faults.FaultInjector`, then alternates:

1. **round** — a client runs a batch of datalink operations (insert /
   update / delete on a media table, an update that commits across a
   fuzzy checkpoint of every database, an insert whose commit is an XA
   branch, plus create+drop of short-lived datalink tables) with fault
   injection ENABLED;
2. **recover** — injection off, every crashed node is restarted in a
   seeded order (ARIES recovery + distributed in-doubt resolution);
3. **quiesce** — virtual time advances until the deployment is clean (no
   in-flight transactions, no pending delayed updates, empty archive
   queue, no pending decisions) or a budget expires; the system finishes
   its own work, the campaign only plays the external TM (XA verdicts);
4. **check** — :func:`repro.chaos.invariants.check_invariants` cross-
   checks host ↔ DLFM ↔ file system ↔ archive.

Everything is deterministic given (seed, ops, shards, base): the
workload draws from ``sim.stream("chaos:workload")`` and faults from
per-rule streams, so the command line that ran a campaign reproduces it,
violation and all (``python -m repro chaos`` prints that line first).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.chaos.faults import FaultInjector, FaultPlan, default_plan
from repro.chaos.invariants import (Violation, check_forgets,
                                    check_invariants, check_wal_rule)
from repro.configs import Configuration
from repro.dlfm import schema
from repro.errors import ReproError, TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.host.xa import xa_commit, xa_prepare, xa_recover, xa_rollback
from repro.kernel.sim import Timeout
from repro.shard import move_group

#: Virtual seconds a single round may take before the client is killed.
ROUND_BUDGET = 900.0
#: Quiesce loop: up to QUIESCE_ROUNDS × QUIESCE_STEP virtual seconds.
QUIESCE_STEP = 30.0
QUIESCE_ROUNDS = 60
#: The classic deployment's file servers (a fleet ignores them).
SERVERS = ("fs1", "fs2")
#: Operations the client runs per round before recovery and a check.
ROUND_OPS = 25


@dataclass
class CampaignConfig:
    seed: int = 0
    ops: int = 200
    #: 0 → the classic unsharded deployment (one DLFM per file server).
    #: N > 0 → a :class:`~repro.shard.ShardedSystem` fleet of N shards
    #: over one shared file server; the workload gains ``move_group``
    #: ops and the checker enforces the shard-catalog invariants.
    shards: int = 0
    #: Which shipped configuration (a key of :data:`repro.configs.BASES`)
    #: the deployment runs, as shipped.
    base: str = "all_on"


@dataclass
class CampaignResult:
    config: CampaignConfig
    plan: FaultPlan
    violations: list = field(default_factory=list)
    op_trace: list = field(default_factory=list)
    fired: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    rounds: int = 0
    recoveries: int = 0
    checks: int = 0
    stuck_rounds: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        """The JSON-serializable result (the ``--json`` output)."""
        return {
            "seed": self.config.seed,
            "ops": self.config.ops,
            "plan": self.plan.to_doc(),
            "violations": [v.to_doc() for v in self.violations],
            "op_trace": self.op_trace,
            "fired": self.fired,
            "crashes": self.crashes,
            "rounds": self.rounds,
            "recoveries": self.recoveries,
            "shards": self.config.shards,
            "config": self.config.base,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":"), indent=None)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    return _Campaign(config).run()


class _Campaign:
    def __init__(self, config: CampaignConfig):
        self.config = config
        self.plan = default_plan(config.seed)
        self.injector = FaultInjector(self.plan)
        self.injector.enabled = False  # setup runs clean
        self.sharded = config.shards > 0
        #: What the deployment was built from (``.ran`` after the build).
        self.configuration = Configuration(config.base)
        self.system = self.configuration.system(
            config.seed, shards=config.shards, servers=SERVERS,
            injector=self.injector)
        #: File-server names client files rotate over (the DLFM names in
        #: the classic deployment, the one shared server when sharded).
        self.file_servers = tuple(sorted(self.system.servers))
        self.rng = self.system.sim.stream("chaos:workload")
        self.result = CampaignResult(config, self.plan)
        #: ``forget-before-durable`` found at a DLFM crash and
        #: ``page-ahead-of-log`` at a crash point (reported with the
        #: round's check).
        self.crash_violations: list = []
        for name, dlfm in self.system.dlfms.items():
            self.injector.register_crash(dlfm.db.name,
                                         self._checked_crash(name))
            self.injector.watch(dlfm.db.name, self._wal_rule_watch(
                name, lambda dlfm=dlfm: dlfm.db))
        host = self.system.host
        self.injector.watch(host.db.name,
                            self._wal_rule_watch("host", lambda: host.db))
        self.rows: list = []        # (row_id, server, path) live media rows
        self.batch_tables: list = []  # short-lived tables awaiting drop
        #: The external TM's journal of undelivered verdicts: gtrid →
        #: (verdict, media row, op record, crashes injected so far).
        self.branches: dict = {}
        self._row_seq = 0
        self._file_seq = 0
        self._batch_seq = 0

    # ------------------------------------------------------------------ driving

    def run(self) -> CampaignResult:
        self._run_clean(self._setup(), "chaos-setup")
        max_rounds = 2 * (self.config.ops // ROUND_OPS + 1) + 8
        while (len(self.result.op_trace) < self.config.ops
               and self.result.rounds < max_rounds):
            self.result.rounds += 1
            self._round(self.result.rounds)
            self._recover()
            self._quiesce()
            self.result.checks += 1
            violations = (self.crash_violations
                          + check_invariants(self.system))
            if violations:
                self.result.violations.extend(violations)
                break
        if (not self.result.violations
                and len(self.result.op_trace) < self.config.ops):
            self.result.violations.append(Violation(
                "campaign-stalled", "campaign",
                f"only {len(self.result.op_trace)}/{self.config.ops} ops "
                f"ran in {self.result.rounds} rounds"))
        self.result.fired = list(self.injector.fired)
        self.result.crashes = list(self.injector.crashes)
        return self.result

    def _checked_crash(self, name: str):
        """DLFM ``name``'s crash, preceded by the check only a crash can
        make: the unforced tail about to be lost must hold no phase 2
        whose decision the host already forgot."""
        def crash():
            self.crash_violations.extend(check_forgets(self.system, name))
            self.system.dlfms[name].crash()
        return crash

    def _wal_rule_watch(self, name: str, db_of):
        """The check every crash point of a database makes, just before
        a crash there would lose the unforced tail: no durable page may
        need a record of it (``page-ahead-of-log``, reported once)."""
        def check():
            for violation in check_wal_rule(db_of(), name):
                if violation not in self.crash_violations:
                    self.crash_violations.append(violation)
        return check

    def _run_clean(self, gen, name: str):
        """Run one generator to completion with injection disabled."""
        sim = self.system.sim
        enabled = self.injector.enabled
        self.injector.enabled = False
        try:
            proc = sim.spawn(gen, name)
            sim.run(raise_failures=False, stop_when=lambda: proc.finished)
            sim.consume_failures()
            if proc.error is not None:
                raise proc.error
            return proc.result
        finally:
            self.injector.enabled = enabled

    def _setup(self):
        host = self.system.host
        yield from host.create_datalink_table(
            "media", [("id", "INT"), ("attr", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(access_control="full", recovery=True)})
        plain = host.db.session()
        yield from plain.execute(
            "CREATE UNIQUE INDEX media_id ON media (id)")
        yield from plain.commit()
        host.db.set_table_stats("media", card=100_000,
                                colcard={"id": 100_000})

    # ------------------------------------------------------------------ rounds

    def _round(self, number: int) -> None:
        sim = self.system.sim
        budget = min(ROUND_OPS,
                     self.config.ops - len(self.result.op_trace))
        holder: dict = {}
        self.injector.enabled = True
        proc = sim.spawn(self._client(budget, holder),
                         f"chaos-client-{number}")
        sim.run(until=sim.now + ROUND_BUDGET, raise_failures=False,
                stop_when=lambda: proc.finished)
        self.injector.enabled = False
        sim.consume_failures()  # crashed daemons/agents surface here
        session = holder.get("session")
        if not proc.finished:
            # The round wedged (e.g. a request queued to a daemon that
            # died before replying). Kill the client and clean up its
            # transactions so a stuck round is not misread as a leak.
            proc.kill()
            self.result.stuck_rounds += 1
            self.result.op_trace.append(
                {"kind": "round", "target": f"round-{number}",
                 "outcome": "stuck"})
        if session is not None:
            session.close()  # agents presume abort on disconnect
            if session.session.txn is not None:
                self._run_clean(self._discard(session), "chaos-cleanup")

    def _discard(self, session):
        try:
            yield from session.rollback()
        except ReproError:
            pass

    def _client(self, budget: int, holder: dict):
        session = self.system.session()
        holder["session"] = session
        for _ in range(budget):
            if self.system.host.db.crashed:
                break  # round over; recovery brings the host back
            kind = self._pick_kind()
            record = {"kind": kind, "target": "", "outcome": "ok"}
            try:
                yield from getattr(self, f"_op_{kind}")(session, record)
            except TransactionAborted as error:
                record["outcome"] = f"aborted:{error.reason or 'unknown'}"
                yield from self._discard(session)
            except ReproError as error:
                record["outcome"] = f"error:{type(error).__name__}"
                yield from self._discard(session)
            self.result.op_trace.append(record)
        yield from self._discard(session)
        session.close()
        holder["session"] = None

    def _pick_kind(self) -> str:
        roll = self.rng.random()
        if roll < 0.40 or not self.rows:
            return "insert"
        if roll < 0.65:
            return "update"
        if roll < 0.85:
            return "delete"
        if self.batch_tables and roll < 0.93:
            return "drop_table"
        # All three carved out of the create_table tail; the move draw
        # exists only in sharded mode.
        if 0.93 <= roll < 0.95:
            return "checkpoint"
        if 0.95 <= roll < 0.97:
            return "xa"
        if self.sharded and roll >= 0.97:
            return "move_group"
        return "create_table"

    def _new_file(self) -> tuple:
        self._file_seq += 1
        server = self.file_servers[self._file_seq
                                   % len(self.file_servers)]
        path = f"/data/chaos-{self._file_seq:07d}.obj"
        # fs.create faults surface here, synchronously, as a failed op.
        self.system.create_user_file(server, path, owner="chaos",
                                     content=f"payload-{self._file_seq}")
        return server, path

    def _op_insert(self, session, record: dict):
        self._row_seq += 1
        row_id = self._row_seq
        server, path = self._new_file()
        record["target"] = f"media#{row_id}"
        yield from session.execute(
            "INSERT INTO media (id, attr, doc) VALUES (?, ?, ?)",
            (row_id, "new", build_url(server, path)))
        yield from session.commit()
        self.rows.append((row_id, server, path))

    def _op_update(self, session, record: dict, checkpoint: bool = False):
        index = self.rng.randrange(len(self.rows))
        row_id, _, _ = self.rows[index]
        server, path = self._new_file()
        record["target"] = f"media#{row_id}"
        yield from session.execute(
            "UPDATE media SET doc = ?, attr = 'moved' WHERE id = ?",
            (build_url(server, path), row_id))
        if checkpoint:
            dlfms = self.system.dlfms
            for node in [self.system.host, *map(dlfms.get, sorted(dlfms))]:
                if not node.db.crashed:
                    node.db.checkpoint()
        yield from session.commit()
        self.rows[index] = (row_id, server, path)

    def _op_checkpoint(self, session, record: dict):
        """An update whose transaction is open across a checkpoint of
        every live database, the way ``System.backup()`` checkpoints the
        host under running clients: each checkpoint's transaction table
        carries it, and its COMMIT lands in the tail behind them. A
        commit acknowledged after a checkpoint must be visible to every
        post-restart read (e2e finding 1b)."""
        yield from self._op_update(session, record, checkpoint=True)

    def _op_xa(self, session, record: dict):
        """An insert whose commit is an XA branch: the host prepares,
        then — by seeded roll — the TM commits it, rolls it back, or
        leaves it in doubt across whatever crashes the round still
        holds, its verdict (a second roll) journaled for quiesce to
        deliver."""
        self._row_seq += 1
        row = (self._row_seq, *self._new_file())
        fate = self.rng.randrange(3)    # commit | rollback | left in doubt
        verdict = ("commit", "rollback")[
            fate if fate < 2 else self.rng.randrange(2)]
        gtrid = f"chaos-{row[0]}"
        record["target"] = f"media#{row[0]}:{verdict}"
        yield from session.execute(
            "INSERT INTO media (id, attr, doc) VALUES (?, ?, ?)",
            (row[0], "xa", build_url(*row[1:])))
        self.branches[gtrid] = (verdict, row, record,
                                len(self.injector.crashes))
        yield from xa_prepare(session, gtrid)
        if fate < 2:
            yield from self._deliver(gtrid)
        else:
            record["outcome"] = "indoubt"

    def _deliver(self, gtrid: str):
        """Generator: the TM hands branch ``gtrid`` its journaled
        verdict; the row model follows it."""
        entry = self.branches.get(gtrid)
        if entry is not None and entry[0] == "commit":
            yield from xa_commit(self.system.host, gtrid)
            self.rows.append(entry[1])
        else:
            # No entry: a rollback this TM delivered and forgot, whose
            # unforced ABORT record a host crash then took back — the
            # branch is in doubt again, and presumed abort answers it.
            yield from xa_rollback(self.system.host, gtrid)
        if entry is not None:
            del self.branches[gtrid]
            verdict, _, record, crashes = entry
            if record["outcome"] == "indoubt":
                # Name the crashes the branch sat through in doubt.
                nodes = sorted(c["node"]
                               for c in self.injector.crashes[crashes:])
                record["outcome"] = (f"indoubt:{verdict} across "
                                     f"{','.join(nodes) or 'no crash'}")

    def _op_delete(self, session, record: dict):
        index = self.rng.randrange(len(self.rows))
        row_id, _, _ = self.rows[index]
        record["target"] = f"media#{row_id}"
        yield from session.execute(
            "DELETE FROM media WHERE id = ?", (row_id,))
        yield from session.commit()
        self.rows.pop(index)

    def _op_create_table(self, session, record: dict):
        self._batch_seq += 1
        name = f"batch_{self._batch_seq}"
        record["target"] = name
        yield from self.system.host.create_datalink_table(
            name, [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(access_control="full", recovery=False)},
            session=session)
        self._row_seq += 1
        server, path = self._new_file()
        yield from session.execute(
            f"INSERT INTO {name} (id, doc) VALUES (?, ?)",
            (self._row_seq, build_url(server, path)))
        yield from session.commit()
        self.batch_tables.append(name)

    def _op_drop_table(self, session, record: dict):
        name = self.batch_tables[self.rng.randrange(len(self.batch_tables))]
        record["target"] = name
        yield from session.drop_table(name)
        yield from session.commit()
        self.batch_tables.remove(name)

    def _op_move_group(self, _session, record: dict):
        """Sharded mode only: rebalance a random group to a random shard
        (its own 2PC transaction on a session of the move's own). Refusals
        (pending work on the group) and mid-move crashes surface like
        any other failed op; the invariant checker proves no outcome
        strands the group."""
        host = self.system.host
        groups = sorted(host.group_ids.values())
        grp_id = groups[self.rng.randrange(len(groups))]
        shards = sorted(self.system.dlfms)
        dst = shards[self.rng.randrange(len(shards))]
        record["target"] = f"grp{grp_id}->{dst}"
        result = yield from move_group(host, grp_id, dst)
        if not result["moved"]:
            record["outcome"] = "noop"

    # ------------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Restart the crashed nodes in an order of their own stream."""
        host = self.system.host
        nodes = [*self.system.dlfms.values(), host]
        crashed = [node for node in nodes if node.db.crashed]
        self.system.sim.stream("chaos:restart").shuffle(crashed)
        for node in crashed:
            if node is host:
                self._run_clean(host.restart(), "chaos-host-restart")
            else:
                node.restart()
        if crashed:
            self.result.recoveries += 1

    # ------------------------------------------------------------------ quiesce

    def _quiesce(self) -> None:
        done = self._run_clean(self._quiesce_gen(), "chaos-quiesce")
        if not done:
            self.result.violations.append(Violation(
                "quiesce-failed", "campaign",
                f"still dirty after {QUIESCE_ROUNDS * QUIESCE_STEP:.0f}s: "
                f"{self._dirty()}"))

    def _quiesce_gen(self):
        for _ in range(QUIESCE_ROUNDS):
            reason = self._dirty()
            if reason is None:
                return True
            try:
                # The external TM's recovery pass: every branch still in
                # doubt gets its journaled verdict; what else the journal
                # names was never prepared or is an ordinary decision.
                for gtrid in sorted(xa_recover(self.system.host)):
                    yield from self._deliver(gtrid)
                self.branches.clear()
            except ReproError:
                pass  # contention with a daemon; the next lap retries
            yield Timeout(QUIESCE_STEP)
        return self._dirty() is None

    def _dirty(self) -> Optional[str]:
        """Why the deployment is not yet quiesced (None when clean)."""
        host = self.system.host
        if host.db.crashed:
            return "host down"
        if host.pending_decisions():
            return "commit decisions pending"
        if any(t for t in host.db.txns.active):
            return "active host transactions"
        if host.db.replay_pending or host.db.cold_index_pages():
            return "host: lazy replay pending"
        for name in sorted(self.system.dlfms):
            dlfm = self.system.dlfms[name]
            if dlfm.db.crashed:
                return f"{name} down"
            if dlfm.db.replay_pending or dlfm.db.cold_index_pages():
                return f"{name}: lazy replay pending"
            if dlfm.db.table_rows("dfm_txn"):
                return f"{name}: dfm_txn rows"
            if dlfm.db.table_rows("dfm_archive"):
                return f"{name}: pending archive entries"
            cat = dlfm.db.catalog.tables
            fstate = cat["dfm_file"].position("state")
            if any(r[fstate] == schema.ST_UNLINKING
                   for r in dlfm.db.table_rows("dfm_file")):
                return f"{name}: delayed updates unresolved"
            gstate = cat["dfm_group"].position("state")
            if any(r[gstate] == schema.GRP_DELETED
                   for r in dlfm.db.table_rows("dfm_group")):
                return f"{name}: deleted groups pending"
            if any(r[gstate] in (schema.GRP_MOVING_OUT,
                                 schema.GRP_MOVING_IN)
                   for r in dlfm.db.table_rows("dfm_group")):
                return f"{name}: moving groups unresolved"
            if any(t for t in dlfm.db.txns.active):
                return f"{name}: active transactions"
        return None
