"""The host database node (the paper's "host DB2").

Owns the user tables (on minidb), the DATALINK column registry, group
ids, recovery-id generation, access-token issuing, and the 2PC commit
decisions (presumed abort: a decision exists iff the transaction
committed and phase 2 is not yet durable at every participant). A
decision is the write-participant list carried as the payload of the
transaction's own COMMIT log record — the host keeps no decision table
and no copy of one: the WAL's open decisions (``LogManager.decisions``)
are the only store, read whenever a decision is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.dlff.filter import AccessToken
from repro.dlfm import api
from repro.errors import DataLinkError, ReproError
from repro.host.datalink import DatalinkSpec, parse_url, shadow_column
from repro.host.ids import RecoveryIdGenerator
from repro.host import indoubt
from repro.kernel import rpc
from repro.kernel.sim import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb import wal as walmod
from repro.sql.parser import parse as parse_sql

#: Lifetime of the access tokens issued for full-control reads (seconds).
TOKEN_EXPIRY = 600.0


@dataclass
class HostConfig:
    """The host's whole configuration surface. The 2PC coordinator and
    the utilities (LOAD, reconcile, backup/restore) have no knobs."""

    db: DBConfig = field(default_factory=DBConfig)
    #: Phase-2 commit synchronous w.r.t. the application's SQL commit.
    #: The paper's lesson says this MUST be True; False reproduces the
    #: distributed deadlock of experiment E6.
    sync_commit: bool = True
    #: RPC batching fast path: buffer the transaction's link/unlink/
    #: delete-group requests per server and ship them as ordered
    #: :class:`~repro.dlfm.api.Batch` envelopes, flushed at COMMIT with
    #: phase-1 Prepare piggybacked on the final batch. Cuts an N-link
    #: transaction from N+3 host↔DLFM messages to 2. Off by default: the
    #: paper-faithful experiments count (and block on) individual
    #: messages, and with batching ON a DLFM statement error surfaces at
    #: the commit-time flush (aborting the transaction) instead of at the
    #: originating statement (statement-level backout). See DESIGN.md §9.
    batch_datalinks: bool = False


@dataclass
class HostMetrics:
    commits: int = 0
    rollbacks: int = 0
    links_sent: int = 0
    unlinks_sent: int = 0
    batches_sent: int = 0
    batched_ops_sent: int = 0
    statement_backouts: int = 0
    prepare_failures: int = 0
    #: Participants that answered phase 1 with the read-only vote and
    #: were released without a decision entry or a phase-2 Commit.
    readonly_votes: int = 0
    #: XA branches released whole at phase 1 (XA_RDONLY): every
    #: participant voted read-only and the local transaction wrote
    #: nothing, so the TM skips phase 2 for the entire branch.
    readonly_branches: int = 0
    indoubt_commits: int = 0
    indoubt_aborts: int = 0
    tokens_issued: int = 0


def create_shardmap(db: Database) -> None:
    """Shard-map catalog (repro.shard): file group → owning shard, with
    a fencing epoch bumped by every rebalance. Present (and empty) even
    on unsharded hosts so the schema is uniform."""
    db.ddl(parse_sql("CREATE TABLE dlk_shardmap (grp_id INT, shard TEXT, "
                     "epoch INT)"))
    db.ddl(parse_sql("CREATE UNIQUE INDEX dlk_shardmap_grp ON dlk_shardmap "
                     "(grp_id)"))
    db.set_table_stats("dlk_shardmap", card=100_000,
                       colcard={"grp_id": 100_000})


class HostDB:
    def __init__(self, sim: Simulator, dbid: str, dlfms: dict,
                 config: Optional[HostConfig] = None):
        self.sim = sim
        self.dbid = dbid
        self.dlfms = dict(dlfms)  # server name → DLFM
        self.config = config or HostConfig()
        self.db = Database(sim, f"host-{dbid}", self.config.db)
        self.recovery_ids = RecoveryIdGenerator(sim, dbid)
        self.metrics = HostMetrics()
        #: table → column → DatalinkSpec (the datalink engine's registry).
        self.datalink_columns: dict[str, dict[str, DatalinkSpec]] = {}
        self.group_ids: dict[tuple[str, str], int] = {}
        self._grp_counter = itertools.count(1)
        self._backup_counter = itertools.count(1)
        self.backups: dict[int, dict] = {}
        #: The in-doubt poller and its "pass again" flag (:meth:`poll`).
        self.poller = None
        self.pass_again = False
        #: Shard router (``repro.shard.ShardMap``) — None on an unsharded
        #: host, where datalink ops address DLFMs by file-server name.
        self.shard_map = None
        create_shardmap(self.db)

    # ------------------------------------------------------------------ decisions

    def decide(self, session, servers, dropped=()):
        """Generator: the coordinator's one decision step.

        Commits the local transaction of ``session`` (a minidb session)
        with the write-participant list — and the file groups of the
        datalink tables it drops — riding on its COMMIT record, so ONE
        log force makes the commit and the 2PC decision durable
        together. Presumed abort: a transaction with no such record
        never committed. With no ``servers`` (nobody voted to write)
        there is nothing to re-drive and this is a plain commit.
        """
        servers = tuple(servers)
        yield from session.commit(payload={
            "indoubt": list(servers), "dropped": list(dropped)}
            if servers else None)

    def forget_when_durable(self, txn_id: int, replies) -> None:
        """Forget decision ``txn_id`` once its phase 2 is durable at
        every participant. ``replies`` are its participants' acknowledged
        Commit replies; a reply's ``durable`` handle completes when the
        participant's log force covers its lazy COMMIT. The wait runs
        off the caller's path. A failed handle (the participant crashed
        first) keeps the decision and hands it to the in-doubt poller,
        which re-drives the lost phase 2 once the server is back."""
        handles = [reply["durable"] for reply in replies
                   if reply.get("durable") is not None]
        if not handles:
            self.forget_decision(txn_id)
            return
        self.sim.spawn(self._forget_after(txn_id, handles),
                       f"forget-{txn_id}")

    def _forget_after(self, txn_id: int, handles):
        recoveries = self.db.metrics.recoveries
        lost = False
        for handle in handles:
            try:
                yield from rpc.wait_reply(handle)
            except ReproError:
                lost = True
        if self.db.crashed or self.db.metrics.recoveries != recoveries:
            return  # the host crashed meanwhile: its restart re-drives
        if lost:
            self.poll()
        else:
            self.forget_decision(txn_id)

    def poll(self) -> None:
        """The one hand-off of unfinished 2PC work: spawn the host's
        in-doubt poller, or have the running one pass again. Nothing on
        a crashed host, whose restart starts the poller."""
        if self.poller is not None and not self.poller.finished:
            self.pass_again = True
        elif not self.db.crashed:
            self.poller = self.sim.spawn(indoubt.indoubt_poller(self),
                                         "indoubt-poller")

    def forget_decision(self, txn_id: int) -> None:
        """Forget a decision whose phase 2 is durable everywhere.

        Appends an *unforced* FORGET record — losing it in a crash only
        re-drives an idempotent phase-2 Commit at restart.
        """
        if txn_id in self.db.wal.decisions:
            self.db.wal.append(walmod.FORGET, None,
                               payload={"txn": txn_id})

    def pending_decisions(self) -> dict:
        """txn_id → tuple(servers) for every unforgotten decision whose
        COMMIT record is durable; none while the host is down."""
        if self.db.crashed:
            return {}
        wal = self.db.wal
        return {txn_id: tuple(wal.record(lsn).payload["indoubt"])
                for txn_id, lsn in wal.decisions.items()
                if lsn <= wal.flushed_upto}

    def decision_rows(self):
        """Every live commit decision as (txn_id, server) pairs."""
        return [(txn_id, server)
                for txn_id, servers in sorted(self.pending_decisions().items())
                for server in servers]

    # ------------------------------------------------------------------ sessions

    def session(self):
        from repro.host.session import HostSession
        return HostSession(self)

    # ------------------------------------------------------------------ DDL

    def create_datalink_table(self, name: str,
                              columns: list[tuple[str, str]],
                              datalink: dict[str, DatalinkSpec],
                              session=None):
        """Generator: CREATE TABLE with DATALINK columns.

        Datalink columns are stored as TEXT URLs plus an engine-maintained
        shadow column carrying the link's recovery id (real DB2 embeds
        this inside the DATALINK value). File groups — one per datalink
        column — are registered on every DLFM under 2PC.

        With an explicit ``session`` the group registrations join that
        session's transaction and the CALLER commits (or rolls back) —
        used by callers that need to recover from mid-DDL failures.
        """
        column_names = {n for n, _ in columns}
        for col in datalink:
            if col not in column_names:
                raise DataLinkError(f"datalink column {col!r} not in table")
        parts = [f"{n} {t}" for n, t in columns]
        parts += [f"{shadow_column(c)} TEXT" for c in datalink]
        self.db.ddl(parse_sql(f"CREATE TABLE {name} ({', '.join(parts)})"))
        self.datalink_columns[name] = dict(datalink)
        for col in datalink:
            self.group_ids[(name, col)] = next(self._grp_counter)

        own_session = session is None
        if own_session:
            session = self.session()
        for col in datalink:
            if self.shard_map is not None:
                # Sharded fleet: the group lives on exactly one shard
                # (hash-assigned); the catalog row and the registration
                # commit in the same host transaction.
                grp_id = self.group_ids[(name, col)]
                yield from self.shard_map.insert(
                    session, grp_id, self.shard_map.assign(grp_id))
            # Not a statement's op: it ships when issued under either
            # wire shape, so a refusal surfaces here, not at commit.
            for server, req in session.build_ops(api.RegisterGroup, name,
                                                 col):
                yield from session.ship(server, [req], batch=False)
        if own_session:
            yield from session.commit()

    def apply_drop(self, name: str) -> None:
        """Finalize a datalink table drop at commit time."""
        self.db.ddl(parse_sql(f"DROP TABLE {name}"))
        for col in self.datalink_columns.pop(name, {}):
            grp_id = self.group_ids.pop((name, col), None)
            if grp_id is not None and self.shard_map is not None:
                self.shard_map.forget(grp_id)

    # ------------------------------------------------------------------ tokens

    def issue_token(self, url: str) -> AccessToken:
        """Mint the access token an application needs to read a file
        linked under full access control (paper Fig. 3 flow)."""
        server, path = parse_url(url)
        dlfm = self.dlfms.get(server)
        if dlfm is None and self.shard_map is not None:
            # Sharded fleet: the URL names the (shared) file server, not
            # a shard; every shard's filter shares one token secret.
            dlfm = self.shard_map.any_shard()
        if dlfm is None:
            raise DataLinkError(f"unknown file server {server!r}")
        self.metrics.tokens_issued += 1
        return AccessToken.sign(dlfm.filter.token_secret, path,
                                self.sim.now + TOKEN_EXPIRY)

    # ------------------------------------------------------------------ crash / restart

    def crash(self) -> None:
        """The poller dies with the host: its restart starts a new one."""
        self.db.crash()
        if self.poller is not None:
            self.poller.kill()
            self.poller = None

    def restart(self):
        """Generator: restart the host database and return at once, with
        the distributed recovery (paper §3.3) handed to the poller.

        Local recovery reloads the shard map and finishes the table drops
        a pending decision names; the in-doubt pass — re-drive every
        unfinished phase 2, abort what a DLFM still holds prepared with
        no decision — is the poller's first pass, and new transactions
        run beside it (instant restart). Returns the poller
        :class:`~repro.kernel.sim.Process`: a caller that needs the
        outcome joins ``host.poller``.
        """
        yield from ()   # a generator, so callers run restart as a process
        self.db.restart()
        wal = self.db.wal
        dropped = {grp for lsn in wal.decisions.values()
                   for grp in wal.record(lsn).payload["dropped"]}
        if self.shard_map is not None:
            self.shard_map.reload()
        # Drops a crash caught between their decision and apply_drop.
        for name in sorted({name for (name, _), grp in self.group_ids.items()
                            if grp in dropped}):
            self.apply_drop(name)
        self.poll()
        return self.poller
