"""The DLFM main daemon and its metadata operations.

A :class:`DLFM` owns a local :class:`~repro.minidb.Database` (its black
box persistent store), the DLFF filter on its file server, and the six
service daemons (paper Figure 5). Connections from host database agents
spawn child agents (:mod:`repro.dlfm.agent`); the metadata and 2PC logic
the agents invoke lives here so daemons and utilities can share it.

Transactional design (paper §3.3/§4):

* forward link/unlink work runs in one local-database transaction per
  host transaction; abort before prepare is a plain local rollback;
* **Prepare** inserts the transaction-table entry and issues the local
  COMMIT — from then on the local database cannot roll the work back;
* phase-2 **Commit/Abort** therefore use the *delayed-update scheme*
  (mark/restore) and must acquire new locks, so they can deadlock or
  time out; they retry until they succeed (Figure 4, experiment E2);
* phase 2 is *applied, not forced*: its local COMMIT is lazy
  (``Session.commit_lazy``) and becomes durable with the next force of
  this log — usually the next Prepare. A crash before then loses it, and
  the host re-drives it: a Commit from the decision it keeps until the
  reply's ``durable`` handle completes, an Abort by presumed abort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.archive import ArchiveServer
from repro.dlff.filter import DLFM_ADMIN, Filter
from repro.dlfm import api, schema
from repro.dlfm.config import DLFMConfig
from repro.dlfm.daemons.chown import ChownDaemon
from repro.dlfm.daemons.copyd import CopyDaemon
from repro.dlfm.daemons.delete_group import DeleteGroupDaemon
from repro.dlfm.daemons.gc import GarbageCollector
from repro.dlfm.daemons.retrieved import RetrieveDaemon
from repro.dlfm.daemons.upcall import UpcallDaemon
from repro.errors import (RETRIABLE_FAULTS, LinkError, StaleRouteError,
                          TwoPCProtocolError, UnlinkError)
from repro.fs.filesystem import FileServer
from repro.kernel.backoff import Backoff
from repro.kernel.sim import Simulator, Timeout
from repro.minidb import Database
from repro.sql.parser import parse as parse_sql

#: Seconds a deleted file group lives before GC removes its metadata.
GROUP_LIFETIME = 3600.0


@dataclass
class DLFMMetrics:
    #: Envelopes received by child agents (one per host↔DLFM rendezvous).
    rpcs: int = 0
    #: Vectored envelopes and the logical ops they carried.
    batches: int = 0
    batched_ops: int = 0
    links: int = 0
    unlinks: int = 0
    link_errors: int = 0
    backouts: int = 0
    prepares: int = 0
    #: Prepares answered with the read-only vote (nothing hardened,
    #: participant released at end of phase 1, no phase-2 exposure).
    readonly_votes: int = 0
    commits: int = 0
    aborts: int = 0
    commit_retries: int = 0
    abort_retries: int = 0
    files_archived: int = 0
    #: Files the Retrieve daemon fetched back from the archive.
    files_restored: int = 0
    groups_registered: int = 0
    groups_deleted: int = 0
    gc_entries_removed: int = 0
    gc_copies_removed: int = 0
    gc_backups_pruned: int = 0
    gc_groups_removed: int = 0
    indoubt_reported: int = 0
    stats_repins: int = 0
    #: Copy daemon: archive entries claimed, stale ``inflight`` entries
    #: re-queued, and claims/archives lost to a deadlock, timeout or
    #: transient I/O fault.
    copyd_claimed: int = 0
    copyd_reclaimed: int = 0
    copyd_conflicts: int = 0
    #: Delete-Group daemon: files unlinked, batch commits, and
    #: transactions' work restarted after a transient fault.
    delgrpd_files_unlinked: int = 0
    delgrpd_batch_commits: int = 0
    delgrpd_retries: int = 0
    #: Chown daemon requests served, and those refused (bad secret).
    chown_requests: int = 0
    chown_denied: int = 0
    #: Upcall daemon "is this file linked?" queries.
    upcall_queries: int = 0
    #: DLFF filter: upcalls it made, and mutations it refused.
    filter_upcalls: int = 0
    filter_rejections: int = 0


@dataclass
class TxnFacts:
    """What a child agent knows of its current transaction without
    asking its database — so it sends only the SQL that can find
    something.

    * ``groups``: grp_id → the ``(state, epoch)`` row a link or unlink
      fenced. Its ``FOR SHARE`` S lock is held to commit, so only this
      transaction can change the row: its DeleteGroup, Export, Import or
      Register of the group drops the entry, and a local commit (a
      utility's CommitPiece) drops them all.
    * ``unlinked``: the paths it unlinked (a relink of one inherits the
      originals of the pending unlinking entry).
    * ``work``: the kinds of work it did (``schema.WORK_KINDS``); Prepare
      writes them into ``dfm_txn.work`` for phase 2.
    """

    groups: dict = field(default_factory=dict)
    unlinked: set = field(default_factory=set)
    work: set = field(default_factory=set)


class DLFM:
    def __init__(self, sim: Simulator, name: str, server: FileServer,
                 archive: ArchiveServer,
                 config: Optional[DLFMConfig] = None,
                 token_secret: str = "dlff-secret"):
        self.sim = sim
        self.name = name
        self.server = server
        self.archive = archive
        self.config = config or DLFMConfig.tuned()
        self.metrics = DLFMMetrics()
        self.db = Database(sim, f"dlfm-{name}", self.config.local_db)
        schema.create_schema(self.db, sim)
        if self.config.pin_statistics:
            schema.pin_statistics(self.db)

        # DLFF mount + daemons (started by start()).
        self.filter = Filter(sim, token_secret, self.metrics)
        self.filtered_fs = self.filter.mount(server)
        self.chown = ChownDaemon(sim, server.fs, f"{name}-chown", self.metrics)
        self.copyd = CopyDaemon(self)
        self.retrieved = RetrieveDaemon(self)
        self.delete_groupd = DeleteGroupDaemon(self)
        self.gc = GarbageCollector(self)
        self.upcalld = UpcallDaemon(self)
        self.filter.set_upcall(self.upcalld.query)
        self._daemon_procs: list = []
        #: Child agent → its process, per open host connection; the
        #: numbering restarts with each incarnation.
        self._agents: dict = {}
        self._agent_ids = itertools.count(1)
        self.running = False

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Spawn the service daemons (the paper's Figure 5 process model);
        the Retrieve daemon runs ``retrieve_workers`` server processes."""
        if self.running:
            return
        self.running = True
        spawn = self.sim.spawn
        self._daemon_procs = [
            spawn(self.chown.run(), f"{self.name}-chownd"),
            spawn(self.copyd.run(), f"{self.name}-copyd"),
            *self.retrieved.start(),
            spawn(self.delete_groupd.run(), f"{self.name}-delgrpd"),
            spawn(self.gc.run(), f"{self.name}-gcd"),
            spawn(self.upcalld.run(), f"{self.name}-upcalld"),
        ]

    def stop(self) -> None:
        for proc in self._daemon_procs:
            if not proc.finished:
                proc.kill()
        self._daemon_procs = []
        self.copyd.stop()
        self.running = False

    def connect(self):
        """Host DB2 agent connect request → spawn a child agent.

        Returns the request channel the host agent talks to (the paper's
        per-connection child agent, §3.5).
        """
        from repro.dlfm.agent import ChildAgent
        if not self.running:
            raise TwoPCProtocolError(f"DLFM {self.name} is not available")
        agent = ChildAgent(self)
        self._agents[agent] = self.sim.spawn(
            self._serve(agent), f"{self.name}-agent-{next(self._agent_ids)}")
        return agent.chan

    def _serve(self, agent):
        """Generator: one child agent's life; it is let go when its
        connection closes (a crash kills it first)."""
        yield from agent.serve()
        self._agents.pop(agent, None)

    def crash(self) -> None:
        """The DLFM node fails: local database and all processes die —
        the child agents too, each failing the request it was serving."""
        self.stop()
        for agent, proc in self._agents.items():
            agent.chan.close()
            proc.kill()
        self._agents = {}
        self._agent_ids = itertools.count(1)
        self.db.crash()

    def restart(self) -> dict:
        """Restart after a crash: local DB recovery, daemons resume work.

        Prepared transactions stay indoubt until the host resolves them
        (§3.3); committed transactions with pending group deletions are
        picked up again by the Delete-Group daemon; pending archive
        entries are picked up by the Copy daemon; the local database
        drains its own cold pages.
        """
        summary = self.db.restart()
        if self.config.pin_statistics:
            self.metrics.stats_repins += schema.pin_statistics(self.db)
        self.start()
        self.delete_groupd.rescan_needed = True
        return summary

    def retry_backoff(self, what: str) -> Backoff:
        """The retry-delay policy for phase-2 loops and daemons: the
        sleep doubles per attempt from ``commit_retry_delay`` up to 8 s,
        jittered ±10 % from a seeded stream so independent resources
        don't retry in lockstep convoys."""
        return Backoff(self.config.commit_retry_delay, factor=2.0, cap=8.0,
                       jitter=0.1,
                       rng=self.sim.stream(f"retry:{self.name}:{what}"))

    # ------------------------------------------------------------------ statistics guard

    def ensure_statistics(self) -> bool:
        """The paper's guard logic: detect that someone overwrote the
        hand-crafted statistics (user RUNSTATS) and re-pin + rebind."""
        if not self.config.pin_statistics:
            return False
        if schema.statistics_are_pinned(self.db):
            return False
        self.metrics.stats_repins += schema.pin_statistics(self.db)
        return True

    # ------------------------------------------------------------------ forward ops

    def _check_route(self, group, grp_id: int, route_epoch: int) -> None:
        """Fence a routed op against this shard's view of the group.

        ``group`` is a ``(state, epoch)`` row or ``None``. The op is
        stale — the host should reload its shard map and retry — when
        the group is not here, its epoch disagrees with the route's, or
        a rebalance is mid-flight (moving states resolve to a fresh
        epoch once the move transaction finishes phase 2).
        """
        if group is None:
            raise StaleRouteError(
                f"group {grp_id} is not on shard {self.name}")
        state, epoch = group[0], group[1] or 0
        if state in (schema.GRP_MOVING_OUT, schema.GRP_MOVING_IN):
            raise StaleRouteError(
                f"group {grp_id} is rebalancing ({state}) on {self.name}")
        if epoch != route_epoch:
            raise StaleRouteError(
                f"group {grp_id} route epoch {route_epoch} != shard "
                f"epoch {epoch} on {self.name}")

    def _fence_group(self, session, facts: TxnFacts, req):
        """Generator: the ``(state, epoch)`` row of ``req``'s group, or
        None, read ``FOR SHARE`` once per transaction: a later link or
        unlink of the same group reuses the row the held S lock keeps
        unchanged."""
        group = facts.groups.get(req.grp_id)
        if group is None:
            group = yield from session.query_one(
                "SELECT state, epoch FROM dfm_group WHERE grp_id = ? AND "
                "dbid = ? FOR SHARE", (req.grp_id, req.dbid))
            if group is not None:
                facts.groups[req.grp_id] = group
        return group

    def op_link_file(self, session, req: api.LinkFile, facts: TxnFacts):
        """Generator: LinkFile forward processing (paper §3.2)."""
        if req.in_backout:
            # §3.2: "For link file request with in_backout set, DLFM
            # deletes the linked file entry that was inserted by [the]
            # current transaction."
            self.metrics.backouts += 1
            removed = yield from session.execute(
                "DELETE FROM dfm_file WHERE filename = ? AND link_txn = ? "
                "AND dbid = ? AND state = ?",
                (req.path, req.txn_id, req.dbid, schema.ST_LINKED))
            if removed != 1:
                raise LinkError(
                    f"in_backout link found {removed} linked entries "
                    f"for {req.path}")
            return {"removed": True}

        # Check 1: the file must exist on this server (via Chown daemon,
        # which also supplies the original ownership for later release).
        from repro.errors import FileNotFound
        try:
            info = yield from self.chown.request("stat", req.path)
        except FileNotFound:
            self.metrics.link_errors += 1
            raise LinkError(
                f"{req.path} does not exist on server {self.name}") from None
        # Check 2: the file group must exist and be active. A routed op
        # (route_epoch > 0) is fenced against the shard map: a missing,
        # moving, or epoch-mismatched group means the host's cached route
        # is stale — retryable, unlike a genuinely deleted group. FOR
        # SHARE keeps the S lock to commit at every level (under CS a
        # plain read's lock ends with the statement): the group's writers
        # — DeleteGroup's UPDATE, ExportGroup's FOR UPDATE — wait for this
        # link, another linker does not (DESIGN §13).
        group = yield from self._fence_group(session, facts, req)
        if req.route_epoch:
            self._check_route(group, req.grp_id, req.route_epoch)
        if group is None or group[0] != schema.GRP_ACTIVE:
            raise LinkError(f"file group {req.grp_id} missing or deleted")
        # Relink of a file with a pending unlink — this transaction's, or
        # another's that is prepared but not yet through phase 2: the file
        # is still under database control, so a live stat would record
        # the DLFM admin user (or a read-only mode) as the "original".
        # Inherit the true originals from the unlinking entry instead.
        # Only a taken-over file, or a path this transaction unlinked
        # (partial control without recovery takes nothing over), can have
        # one. Repeated unlink+relink leaves SEVERAL unlinking entries
        # for the filename (each with its own unlink recovery id); they
        # all carry the same inherited originals, so take the most recent
        # deterministically.
        taken_over = (info["owner"] == DLFM_ADMIN
                      or not info["mode"] & 0o200)  # the owner's write bit
        if taken_over or req.path in facts.unlinked:
            pending = yield from session.execute(
                "SELECT orig_owner, orig_group, orig_mode, "
                "unlink_recovery_id FROM dfm_file WHERE filename = ? AND "
                "dbid = ? AND state = ?",
                (req.path, req.dbid, schema.ST_UNLINKING))
            if pending.rows:
                latest = max(pending.rows, key=lambda row: row[3])
                info = {"owner": latest[0], "group": latest[1],
                        "mode": latest[2]}
        # Check 3 + insert, made atomic by the unique (filename,
        # check_flag) index: a concurrent linker loses with a duplicate.
        from repro.errors import DuplicateKeyError
        try:
            yield from session.execute(
                "INSERT INTO dfm_file (filename, dbid, grp_id, recovery_id, "
                "link_txn, unlink_txn, unlink_recovery_id, unlink_time, "
                "state, check_flag, access_ctl, recovery, orig_owner, "
                "orig_group, orig_mode, archived) "
                "VALUES (?, ?, ?, ?, ?, NULL, NULL, NULL, ?, ?, ?, ?, ?, "
                "?, ?, 0)",
                (req.path, req.dbid, req.grp_id, req.recovery_id,
                 req.txn_id, schema.ST_LINKED, schema.LINKED_FLAG,
                 req.access_ctl, req.recovery, info["owner"], info["group"],
                 info["mode"]))
        except DuplicateKeyError:
            self.metrics.link_errors += 1
            raise LinkError(f"{req.path} is already linked") from None
        self.metrics.links += 1
        return {"linked": True}

    def op_unlink_file(self, session, req: api.UnlinkFile,
                       facts: TxnFacts):
        """Generator: UnlinkFile forward processing (delayed update)."""
        if req.in_backout:
            # §3.2: "For unlink request with the flag set, the unlinked
            # file entry is restored back to linked state."
            self.metrics.backouts += 1
            restored = yield from session.execute(
                "UPDATE dfm_file SET state = ?, check_flag = ?, "
                "unlink_txn = NULL, unlink_recovery_id = NULL, "
                "unlink_time = NULL "
                "WHERE filename = ? AND unlink_txn = ? AND dbid = ? "
                "AND state = ?",
                (schema.ST_LINKED, schema.LINKED_FLAG, req.path, req.txn_id,
                 req.dbid, schema.ST_UNLINKING))
            if restored != 1:
                raise UnlinkError(
                    f"in_backout unlink found {restored} unlinking entries "
                    f"for {req.path}")
            return {"restored": True}

        if req.route_epoch:
            # Sharded host: fence against the shard map before touching
            # the entry, so a stale route retries instead of reporting
            # "not linked" for a file whose group moved elsewhere.
            group = yield from self._fence_group(session, facts, req)
            self._check_route(group, req.grp_id, req.route_epoch)
        entry = yield from session.query_one(
            "SELECT state FROM dfm_file WHERE filename = ? AND "
            "check_flag = ? AND dbid = ? FOR UPDATE",
            (req.path, schema.LINKED_FLAG, req.dbid))
        if entry is None or entry[0] != schema.ST_LINKED:
            raise UnlinkError(f"{req.path} is not linked")
        # Delayed update: mark unlinking; check_flag moves to the unlink
        # recovery id so a re-link of the same file (even in this very
        # transaction) can insert a fresh linked entry (§3.2).
        yield from session.execute(
            "UPDATE dfm_file SET state = ?, unlink_txn = ?, "
            "unlink_recovery_id = ?, unlink_time = ?, check_flag = ? "
            "WHERE filename = ? AND check_flag = ? AND dbid = ?",
            (schema.ST_UNLINKING, req.txn_id, req.recovery_id, self.sim.now,
             req.recovery_id, req.path, schema.LINKED_FLAG, req.dbid))
        facts.unlinked.add(req.path)
        self.metrics.unlinks += 1
        return {"unlinked": True}

    def op_register_group(self, session, req: api.RegisterGroup,
                          facts: TxnFacts):
        facts.groups.pop(req.grp_id, None)
        # ``delete_txn`` is the registering transaction's delayed-update
        # mark (as it is an import's): the Abort of a prepared
        # transaction finds the group it hardened by it. The group is
        # active at once — the same transaction links files into it —
        # and nothing reads the mark of an active group once that
        # transaction is resolved (no ``dfm_txn`` row, no Abort), so
        # phase-2 Commit spends no statement on clearing it.
        yield from session.execute(
            "INSERT INTO dfm_group (grp_id, dbid, table_name, column_name, "
            "state, delete_txn, delete_time, expires_at, epoch) "
            "VALUES (?, ?, ?, ?, ?, ?, NULL, NULL, ?)",
            (req.grp_id, req.dbid, req.table_name, req.column_name,
             schema.GRP_ACTIVE, req.txn_id, req.epoch))
        self.metrics.groups_registered += 1
        return {"registered": True}

    def op_delete_group(self, session, req: api.DeleteGroup,
                        facts: TxnFacts):
        """Mark a group deleted (host DROP TABLE); daemon unlinks later."""
        facts.groups.pop(req.grp_id, None)
        if req.in_backout:
            yield from session.execute(
                "UPDATE dfm_group SET state = ?, delete_txn = NULL, "
                "delete_time = NULL, expires_at = NULL "
                "WHERE grp_id = ? AND delete_txn = ? AND dbid = ?",
                (schema.GRP_ACTIVE, req.grp_id, req.txn_id, req.dbid))
            return {"restored": True}
        if req.route_epoch:
            group = yield from session.query_one(
                "SELECT state, epoch FROM dfm_group WHERE grp_id = ? AND "
                "dbid = ?", (req.grp_id, req.dbid))
            self._check_route(group, req.grp_id, req.route_epoch)
        changed = yield from session.execute(
            "UPDATE dfm_group SET state = ?, delete_txn = ?, "
            "delete_time = ?, expires_at = ? "
            "WHERE grp_id = ? AND dbid = ? AND state = ?",
            (schema.GRP_DELETED, req.txn_id, self.sim.now,
             self.sim.now + GROUP_LIFETIME, req.grp_id,
             req.dbid, schema.GRP_ACTIVE))
        if changed != 1:
            raise LinkError(f"group {req.grp_id} missing or already deleted")
        return {"deleted": True}

    # ------------------------------------------------------------------ rebalancing

    #: dfm_file column order shared by ExportGroup's snapshot and
    #: ImportGroup's verbatim re-insert.
    _FILE_COLUMNS = ("filename, dbid, grp_id, recovery_id, link_txn, "
                     "unlink_txn, unlink_recovery_id, unlink_time, state, "
                     "check_flag, access_ctl, recovery, orig_owner, "
                     "orig_group, orig_mode, archived")

    def op_export_group(self, session, req: api.ExportGroup,
                        facts: TxnFacts):
        """Generator: rebalance source side — snapshot and mark moving-out.

        The FOR UPDATE on the group row and on every file row means the
        export waits for (or deadlocks with, and retries after) any
        in-flight transaction touching the group, a link's FOR SHARE
        group fence included; in-doubt work is refused below
        (retryable), so a move cannot start while the group has any —
        by design, never by luck.
        """
        facts.groups.pop(req.grp_id, None)
        group = yield from session.query_one(
            "SELECT grp_id, dbid, table_name, column_name, state, "
            "delete_txn, delete_time, expires_at, epoch FROM dfm_group "
            "WHERE grp_id = ? AND dbid = ? FOR UPDATE",
            (req.grp_id, req.dbid))
        if group is None:
            raise StaleRouteError(
                f"group {req.grp_id} is not on shard {self.name}")
        if group[4] != schema.GRP_ACTIVE:
            raise LinkError(
                f"group {req.grp_id} is {group[4]}, cannot move")
        files = yield from session.execute(
            f"SELECT {self._FILE_COLUMNS} FROM dfm_file "
            "WHERE grp_id = ? AND dbid = ? FOR UPDATE",
            (req.grp_id, req.dbid))
        # A move adopts file rows VERBATIM, so every row must be fully
        # resolved: an in-doubt link's phase-2 Commit (chown takeover,
        # archive enqueue) or Abort (row deletion) is addressed to THIS
        # shard and would miss rows that moved. In-flight transactions
        # block the scan above via their row locks; prepared ones
        # released their locks at the local commit, so probe dfm_txn for
        # every referenced transaction. Pending archive work stays too:
        # the copy daemon's completion update must find the row here.
        for row in files.rows:
            if row[8] == schema.ST_UNLINKING:
                raise LinkError(
                    f"group {req.grp_id} has an unresolved unlink of "
                    f"{row[0]}; retry after phase 2 settles")
            pending = yield from session.execute(
                "SELECT COUNT(*) FROM dfm_archive WHERE filename = ?",
                (row[0],))
            if pending.scalar():
                raise LinkError(
                    f"group {req.grp_id} has pending archive work for "
                    f"{row[0]}; retry after the copy daemon drains")
        for txn_id in sorted({row[4] for row in files.rows
                              if row[4] is not None}):
            unresolved = yield from session.query_one(
                "SELECT state FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
                (req.dbid, txn_id))
            if unresolved is not None:
                raise LinkError(
                    f"group {req.grp_id} has unresolved transaction "
                    f"{txn_id} ({unresolved[0]}); retry later")
        yield from session.execute(
            "UPDATE dfm_group SET state = ?, delete_txn = ?, "
            "delete_time = ? WHERE grp_id = ? AND dbid = ?",
            (schema.GRP_MOVING_OUT, req.txn_id, self.sim.now,
             req.grp_id, req.dbid))
        return {"group_row": tuple(group),
                "file_rows": tuple(tuple(row) for row in files.rows),
                "epoch": group[8] or 0}

    def op_import_group(self, session, req: api.ImportGroup,
                        facts: TxnFacts):
        """Generator: rebalance destination side — adopt the snapshot.

        File rows are re-inserted verbatim (original link/unlink txn ids
        and chown state preserved): phase-2 commit of the *move* must
        not re-run takeover/release on files whose own transactions
        finished long ago, so the adopted rows must not look freshly
        written by the move transaction.
        """
        facts.groups.pop(req.grp_id, None)
        g = req.group_row
        yield from session.execute(
            "INSERT INTO dfm_group (grp_id, dbid, table_name, column_name, "
            "state, delete_txn, delete_time, expires_at, epoch) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, NULL, ?)",
            (req.grp_id, req.dbid, g[2], g[3], schema.GRP_MOVING_IN,
             req.txn_id, self.sim.now, req.epoch))
        placeholders = ", ".join("?" * 16)
        for row in req.file_rows:
            yield from session.execute(
                f"INSERT INTO dfm_file ({self._FILE_COLUMNS}) "
                f"VALUES ({placeholders})", tuple(row))
        return {"imported": len(req.file_rows)}

    # ------------------------------------------------------------------ utility checkpoints

    def op_commit_piece(self, session, req: api.CommitPiece):
        """Generator: local commit of a utility piece (§4).

        "The transaction entry is inserted into transaction table in DLFM
        database when a local commit is issued for the first time for a
        given transaction but keep the entry marked as in-flight."
        """
        existing = yield from session.query_one(
            "SELECT state FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
            (req.dbid, req.txn_id))
        if existing is None:
            yield from session.execute(
                "INSERT INTO dfm_txn (dbid, txn_id, state, prepare_time, "
                "groups_deleted) VALUES (?, ?, ?, NULL, 0)",
                (req.dbid, req.txn_id, schema.TXN_INFLIGHT))
        yield from session.commit()
        return {"piece_committed": True}

    # ------------------------------------------------------------------ 2PC participant

    def op_prepare(self, session, req: api.Prepare, facts: TxnFacts):
        """Generator: phase 1 — harden everything with a local COMMIT.

        The ``dfm_txn`` entry records the kinds of work done, so phase 2
        runs only the sweeps they need. A long utility transaction keeps
        the ``in-flight`` entry its first CommitPiece made (no kinds:
        phase 2 runs every sweep): its pieces are never undone (§4), so
        it must not look in doubt to a presumed-abort resolver. Its
        Prepare only hardens the tail and votes.
        """
        n_groups = 0
        if schema.WORK_DELETE in facts.work:
            groups = yield from session.execute(
                "SELECT COUNT(*) FROM dfm_group WHERE delete_txn = ? AND "
                "dbid = ? AND state = ?",
                (req.txn_id, req.dbid, schema.GRP_DELETED))
            n_groups = groups.scalar()
        existing = yield from session.query_one(
            "SELECT state FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
            (req.dbid, req.txn_id))
        if existing is None:
            work = ",".join(kind for kind in schema.WORK_KINDS
                            if kind in facts.work)
            yield from session.execute(
                "INSERT INTO dfm_txn (dbid, txn_id, state, prepare_time, "
                "groups_deleted, work) VALUES (?, ?, ?, ?, ?, ?)",
                (req.dbid, req.txn_id, schema.TXN_PREPARED, self.sim.now,
                 n_groups, work))
        yield from session.commit()  # the vote: local database hardened
        self.metrics.prepares += 1
        return {"vote": "commit"}

    def op_commit(self, req: api.Commit):
        """Generator: phase 2 commit — retry until it succeeds (Fig. 4)."""
        done_chown: set = set()  # outlives attempts (see _commit_once)
        return (yield from self._phase2("commit", self._commit_once, req,
                                        done_chown))

    def _phase2(self, verb: str, once, req, *state):
        """Generator: the paper's one phase-2 loop (Fig. 4) — run
        ``once(session, req, *state)`` on a fresh session until it
        succeeds. ``verb`` (``commit`` / ``abort``) names the span, the
        ``<verb>s`` / ``<verb>_retries`` metrics and the backoff stream."""
        counters = vars(self.metrics)
        attempt = 1
        backoff = self.retry_backoff(verb)
        while True:
            session = self.db.session()
            with self.sim.tracer.span("dlfm.phase2", verb=verb,
                                      dbid=req.dbid, txn=req.txn_id,
                                      attempt=attempt) as span:
                try:
                    result = yield from once(session, req, *state)
                    span.set(outcome="ok")
                    counters[f"{verb}s"] += 1
                    return result
                except RETRIABLE_FAULTS as error:
                    span.set(outcome="aborted",
                             cause=getattr(error, "reason", None)
                             or type(error).__name__)
                    # The failed attempt's session may still hold locks (a
                    # deadlock victim keeps every lock not yet released):
                    # roll it back before sleeping so the next attempt —
                    # and everyone else — is not blocked by a corpse.
                    yield from session.rollback()
                    counters[f"{verb}_retries"] += 1
            attempt += 1
            yield Timeout(backoff.next())

    def _commit_once(self, session, req: api.Commit, done_chown: set):
        txn_row = yield from session.query_one(
            "SELECT state, groups_deleted, work FROM dfm_txn "
            "WHERE dbid = ? AND txn_id = ? FOR UPDATE",
            (req.dbid, req.txn_id))
        if txn_row is None:
            # Idempotent redelivery. The row may have gone with a lazy
            # COMMIT still in the unforced tail: harden it before
            # answering, or the host would forget the decision on the
            # strength of a deletion a crash can still undo.
            yield from session.rollback()
            yield from self.db.harden()
            return {"outcome": "already-finished"}
        _, groups_deleted, work = txn_row
        # Only the sweeps for the work Prepare recorded; a row without a
        # record (a utility's in-flight row) runs them all.
        did = schema.WORK_KINDS if work is None else work.split(",")

        # Unlinked files first: release to the file system; delete the
        # entry when no point-in-time recovery is needed, else keep it as
        # an unlinked version marker (§3.2). Releases run before takeovers
        # so an unlink+relink of the SAME file in one transaction ends up
        # taken over, not released.
        unlinking = []
        if schema.WORK_UNLINK in did:
            unlinking = yield from session.execute(
                "SELECT filename, recovery, orig_owner, orig_group, "
                "orig_mode FROM dfm_file WHERE unlink_txn = ? AND dbid = ? "
                "AND state = ?",
                (req.txn_id, req.dbid, schema.ST_UNLINKING))
        for path, recovery, owner, group, mode in unlinking:
            # Chown side effects are not transactional: remember what a
            # failed attempt already did so retries don't redo it (the
            # second release would race a concurrent re-link's stat).
            if ("release", path) not in done_chown:
                yield from self.chown.request("release", path, owner=owner,
                                              group=group, mode=mode)
                done_chown.add(("release", path))
            if recovery == "yes":
                yield from session.execute(
                    "UPDATE dfm_file SET state = ? WHERE filename = ? AND "
                    "unlink_txn = ? AND dbid = ? AND state = ?",
                    (schema.ST_UNLINKED, path, req.txn_id, req.dbid,
                     schema.ST_UNLINKING))
            else:
                yield from session.execute(
                    "DELETE FROM dfm_file WHERE filename = ? AND "
                    "unlink_txn = ? AND dbid = ? AND state = ?",
                    (path, req.txn_id, req.dbid, schema.ST_UNLINKING))

        # Newly linked files: take over ownership / strip write permission
        # (enables asynchronous archiving, §3.4) and queue archive work.
        linked = []
        if schema.WORK_LINK in did:
            linked = yield from session.execute(
                "SELECT filename, recovery_id, access_ctl, recovery "
                "FROM dfm_file WHERE link_txn = ? AND dbid = ? AND state = ?",
                (req.txn_id, req.dbid, schema.ST_LINKED))
        for path, recovery_id, access_ctl, recovery in linked:
            if ("takeover", path) not in done_chown:
                yield from self.chown.request(
                    "takeover", path, full=(access_ctl == "full"),
                    recovery=(recovery == "yes"))
                done_chown.add(("takeover", path))
            if recovery == "yes":
                yield from session.execute(
                    "INSERT INTO dfm_archive (filename, recovery_id, state, "
                    "enqueued_at) VALUES (?, ?, ?, ?)",
                    (path, recovery_id, "pending", self.sim.now))

        # Rebalance delayed updates: a committed move deletes the
        # moving-out group here (its rows live on the destination shard
        # now — no chown, the files never left the shared file server)
        # and flips the moving-in copy active at its new epoch.
        if schema.WORK_MOVE in did:
            moved_out = yield from session.execute(
                "SELECT grp_id FROM dfm_group WHERE delete_txn = ? AND "
                "dbid = ? AND state = ?",
                (req.txn_id, req.dbid, schema.GRP_MOVING_OUT))
            for (grp_id,) in moved_out.rows:
                yield from session.execute(
                    "DELETE FROM dfm_file WHERE grp_id = ? AND dbid = ?",
                    (grp_id, req.dbid))
                yield from session.execute(
                    "DELETE FROM dfm_group WHERE grp_id = ? AND dbid = ?",
                    (grp_id, req.dbid))
            yield from session.execute(
                "UPDATE dfm_group SET state = ?, delete_txn = NULL, "
                "delete_time = NULL WHERE delete_txn = ? AND dbid = ? "
                "AND state = ?",
                (schema.GRP_ACTIVE, req.txn_id, req.dbid,
                 schema.GRP_MOVING_IN))

        if groups_deleted:
            # Keep the entry so the Delete-Group daemon (or a restart
            # rescan) can find and finish the asynchronous unlinking.
            yield from session.execute(
                "UPDATE dfm_txn SET state = ? WHERE dbid = ? AND txn_id = ?",
                (schema.TXN_COMMITTED, req.dbid, req.txn_id))
        else:
            yield from session.execute(
                "DELETE FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
                (req.dbid, req.txn_id))
        durable = yield from session.commit_lazy()
        if groups_deleted:
            yield from self.delete_groupd.notify(req.dbid, req.txn_id)
        return {"outcome": "committed", "durable": durable}

    def op_abort_prepared(self, req: api.Abort):
        """Generator: phase 2 abort after prepare — undo committed local
        changes via the delayed-update records; retry until success. The
        reply carries no handle: a crash that loses the lazy COMMIT
        leaves the transaction prepared with no host decision, and
        presumed abort aborts it again."""
        return (yield from self._phase2("abort", self._abort_once, req))

    def _abort_once(self, session, req: api.Abort):
        txn_row = yield from session.query_one(
            "SELECT state FROM dfm_txn WHERE dbid = ? AND txn_id = ? "
            "FOR UPDATE", (req.dbid, req.txn_id))
        if txn_row is None:
            yield from session.rollback()
            return {"outcome": "already-finished"}
        if txn_row[0] == schema.TXN_INFLIGHT:
            # A long-running utility: completed pieces are NOT undone
            # ("undo of completed piece is not needed in case of the
            # utility failure", §4) — the utility is resumed instead.
            yield from session.rollback()
            return {"outcome": "in-flight-kept"}
        # Groups this transaction brought here — imported by a move, or
        # registered — go FIRST. An import's rows keep their original
        # link/unlink txn ids, so they are invisible to the generic
        # per-txn statements below, and the moving-out restore to active
        # must never leave two live copies of one group.
        brought = yield from session.execute(
            "SELECT grp_id FROM dfm_group WHERE delete_txn = ? AND "
            "dbid = ? AND state IN (?, ?)",
            (req.txn_id, req.dbid, schema.GRP_MOVING_IN,
             schema.GRP_ACTIVE))
        for (grp_id,) in brought.rows:
            yield from session.execute(
                "DELETE FROM dfm_file WHERE grp_id = ? AND dbid = ?",
                (grp_id, req.dbid))
            yield from session.execute(
                "DELETE FROM dfm_group WHERE grp_id = ? AND dbid = ? "
                "AND delete_txn = ?", (grp_id, req.dbid, req.txn_id))
        # Order matters: first remove entries this transaction inserted
        # (frees the unique (filename, '0') slot), then restore entries it
        # marked unlinking (which re-occupy that slot).
        yield from session.execute(
            "DELETE FROM dfm_file WHERE link_txn = ? AND dbid = ?",
            (req.txn_id, req.dbid))
        yield from session.execute(
            "UPDATE dfm_file SET state = ?, check_flag = ?, "
            "unlink_txn = NULL, unlink_recovery_id = NULL, unlink_time = NULL "
            "WHERE unlink_txn = ? AND dbid = ? AND state = ?",
            (schema.ST_LINKED, schema.LINKED_FLAG, req.txn_id, req.dbid,
             schema.ST_UNLINKING))
        yield from session.execute(
            "UPDATE dfm_group SET state = ?, delete_txn = NULL, "
            "delete_time = NULL, expires_at = NULL WHERE delete_txn = ? "
            "AND dbid = ?",
            (schema.GRP_ACTIVE, req.txn_id, req.dbid))
        yield from session.execute(
            "DELETE FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
            (req.dbid, req.txn_id))
        yield from session.commit_lazy()
        return {"outcome": "aborted"}

    def op_list_indoubt(self, req: api.ListIndoubt):
        """Generator: prepared transactions awaiting the host's verdict."""
        session = self.db.session()
        rows = yield from session.execute(
            "SELECT txn_id FROM dfm_txn WHERE dbid = ? AND state = ?",
            (req.dbid, schema.TXN_PREPARED))
        yield from session.commit()
        self.metrics.indoubt_reported += len(rows)
        return sorted(r[0] for r in rows)

    # ------------------------------------------------------------------ backup / restore

    def op_ensure_archived(self, req: api.EnsureArchived):
        """Generator: backup coordination (§3.4) — every file linked up to
        the watermark must have an archive copy before the host declares
        its backup successful; pending ones are copied with priority.
        A running Copy-daemon sweep is waited out first so the backup
        never races an in-flight archive transfer, then whatever is left
        — pending or stale inflight — is copied synchronously."""
        yield from self.copyd.wait()
        session = self.db.session()
        pending = yield from session.execute(
            "SELECT filename, recovery_id FROM dfm_archive")
        yield from session.commit()
        if pending.rows:
            yield from self.copyd.archive_priority(list(pending.rows))
        session = self.db.session()
        yield from session.execute(
            "INSERT INTO dfm_backup (backup_id, dbid, recovery_id, "
            "backup_time) VALUES (?, ?, ?, ?)",
            (req.backup_id, req.dbid, req.recovery_id, self.sim.now))
        yield from session.commit()
        return {"archived": len(pending.rows)}

    def op_restore_to_backup(self, req: api.RestoreToBackup):
        """Generator: host database was restored to ``recovery_id``; bring
        DLFM metadata and the file system back in sync (§3.4).

        * entries linked before the watermark but unlinked after → back to
          linked (retrieving the file from the archive if it is gone);
        * entries linked after the watermark → removed / released.
        """
        watermark = req.recovery_id
        restored = released = 0
        session = self.db.session()

        # Pass 1: entries linked AFTER the backup are released/removed —
        # first, so their check_flag='0' slots are free before pass 2
        # resurrects older versions of the same filenames.
        too_new = yield from session.execute(
            "SELECT filename, recovery_id, orig_owner, orig_group, "
            "orig_mode FROM dfm_file WHERE state = ? AND dbid = ?",
            (schema.ST_LINKED, req.dbid))
        for path, recovery_id, owner, group, mode in too_new.rows:
            if recovery_id > watermark:
                yield from self.chown.request("release", path, owner=owner,
                                              group=group, mode=mode)
                yield from session.execute(
                    "DELETE FROM dfm_file WHERE filename = ? AND "
                    "recovery_id = ? AND dbid = ?",
                    (path, recovery_id, req.dbid))
                released += 1

        # Pass 2: entries linked before the backup and unlinked after it
        # come back to linked state (file retrieved from the archive
        # server if it is gone).
        resurrect = yield from session.execute(
            "SELECT filename, recovery_id, access_ctl FROM dfm_file "
            "WHERE state = ? AND dbid = ?", (schema.ST_UNLINKED, req.dbid))
        for path, recovery_id, access_ctl in resurrect.rows:
            entry = yield from session.query_one(
                "SELECT unlink_recovery_id FROM dfm_file WHERE filename = ? "
                "AND recovery_id = ? AND state = ?",
                (path, recovery_id, schema.ST_UNLINKED))
            unlink_rid = entry[0]
            if recovery_id <= watermark < unlink_rid:
                if not self.server.fs.exists(path):
                    yield from self.retrieved.restore(path, recovery_id)
                yield from self.chown.request(
                    "takeover", path, full=(access_ctl == "full"))
                yield from session.execute(
                    "UPDATE dfm_file SET state = ?, check_flag = ?, "
                    "unlink_txn = NULL, unlink_recovery_id = NULL, "
                    "unlink_time = NULL WHERE filename = ? AND "
                    "recovery_id = ?",
                    (schema.ST_LINKED, schema.LINKED_FLAG, path, recovery_id))
                restored += 1
        yield from session.commit()
        return {"restored": restored, "released": released}

    def op_reconcile(self, req: api.ReconcileFiles):
        """Generator: the Reconcile utility's DLFM side (§3.4).

        The host ships its authoritative datalink references; they land in
        a temp table (reducing message count, as the paper describes) and
        set difference (EXCEPT) against dfm_file drives the fix-up.
        """
        session = self.db.session()
        yield from session.execute(schema.RECONCILE_DDL)
        try:
            count = 0
            for path, recovery_id, grp_id, access_ctl, recovery in req.entries:
                yield from session.execute(
                    "INSERT INTO temp_reconcile (filename, recovery_id, "
                    "grp_id, access_ctl, recovery) VALUES (?, ?, ?, ?, ?)",
                    (path, recovery_id, grp_id, access_ctl, recovery))
                count += 1
                if count % self.config.batch_commit_n == 0:
                    yield from session.commit()

            # Missing on DLFM: host references it, no linked entry here
            # *for this host database* — another dbid's linked entries
            # must not mask a missing one of ours.
            missing = yield from session.execute(
                "SELECT filename, recovery_id FROM temp_reconcile "
                "EXCEPT "
                "SELECT filename, recovery_id FROM dfm_file WHERE state = ? "
                "AND dbid = ?",
                (schema.ST_LINKED, req.dbid))
            relinked = 0
            conflicts = []
            specs = {(p, r): (g, a, rec)
                     for p, r, g, a, rec in req.entries}
            for path, recovery_id in missing.rows:
                grp_id, access_ctl, recovery = specs[(path, recovery_id)]
                if not self.server.fs.exists(path):
                    continue  # host side must drop the reference instead
                holder = yield from session.query_one(
                    "SELECT dbid FROM dfm_file WHERE filename = ? AND "
                    "check_flag = ?", (path, schema.LINKED_FLAG))
                if holder is not None and holder[0] != req.dbid:
                    # The file is linked by another host database; the
                    # unique (filename, check_flag) slot is taken, so we
                    # cannot relink it — report the conflict instead.
                    conflicts.append(path)
                    continue
                info = yield from self.chown.request("stat", path)
                yield from session.execute(
                    "INSERT INTO dfm_file (filename, dbid, grp_id, "
                    "recovery_id, link_txn, unlink_txn, unlink_recovery_id, "
                    "unlink_time, state, check_flag, access_ctl, recovery, "
                    "orig_owner, orig_group, orig_mode, archived) "
                    "VALUES (?, ?, ?, ?, 0, NULL, NULL, NULL, ?, ?, ?, ?, "
                    "?, ?, ?, 0)",
                    (path, req.dbid, grp_id, recovery_id, schema.ST_LINKED,
                     schema.LINKED_FLAG, access_ctl, recovery,
                     info["owner"], info["group"], info["mode"]))
                yield from self.chown.request(
                    "takeover", path, full=(access_ctl == "full"))
                relinked += 1

            # Orphaned on DLFM: linked here, not referenced by the host.
            orphans = yield from session.execute(
                "SELECT filename, recovery_id FROM dfm_file WHERE state = ? "
                "AND dbid = ? "
                "EXCEPT SELECT filename, recovery_id FROM temp_reconcile",
                (schema.ST_LINKED, req.dbid))
            removed = 0
            for path, recovery_id in orphans.rows:
                entry = yield from session.query_one(
                    "SELECT orig_owner, orig_group, orig_mode FROM dfm_file "
                    "WHERE filename = ? AND recovery_id = ? AND state = ?",
                    (path, recovery_id, schema.ST_LINKED))
                if self.server.fs.exists(path):
                    yield from self.chown.request(
                        "release", path, owner=entry[0], group=entry[1],
                        mode=entry[2])
                yield from session.execute(
                    "DELETE FROM dfm_file WHERE filename = ? AND "
                    "recovery_id = ? AND state = ?",
                    (path, recovery_id, schema.ST_LINKED))
                removed += 1
            yield from session.commit()

            # Host-side dangling references: URL points at a file that
            # exists neither on disk nor in dfm_file.
            dangling = [p for p, r in missing.rows
                        if not self.server.fs.exists(p)]
            return {"relinked": relinked, "removed": removed,
                    "dangling": dangling, "conflicts": conflicts}
        finally:
            self.db.ddl(parse_sql("DROP TABLE temp_reconcile"))

    # ------------------------------------------------------------------ inspection

    def file_entries(self) -> list[tuple]:
        """Unlocked debug dump of dfm_file (tests and examples only)."""
        return self.db.table_rows("dfm_file")

    def linked_count(self) -> int:
        return sum(1 for row in self.db.table_rows("dfm_file")
                   if row[8] == schema.ST_LINKED)
