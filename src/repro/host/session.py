"""Application sessions on the host database, with the datalink engine.

``HostSession.execute`` accepts ordinary SQL. For tables with DATALINK
columns the datalink engine intercepts DML exactly as in the paper (§2):

* INSERT — each non-NULL datalink value triggers a LinkFile to the DLFM
  named in the URL, in the same transaction;
* DELETE — the engine pre-reads the affected rows' datalink values (FOR
  UPDATE) and sends UnlinkFile for each;
* UPDATE of a datalink column — UnlinkFile(old) + LinkFile(new), the
  same-transaction unlink/relink the paper calls an important customer
  requirement.

Statement failures are compensated with in_backout requests plus a host
savepoint rollback; severe errors (deadlock at either side) roll back the
full transaction.

The session is also the host's one 2PC coordinator. COMMIT is
:meth:`HostSession.prepare_participants` (the prepare fan-out), then
:meth:`HostSession.commit_decided` (the decision riding the local COMMIT
record, then the phase-2 fan-out — synchronously by default (lesson §4),
asynchronously only for experiment E6); ROLLBACK and a failed phase 1
run the same fan-out with Abort. XA branches (:mod:`repro.host.xa`) and
in-doubt resolution (:mod:`repro.host.indoubt`) drive these same steps
through a session of their own.

It is also the one module that knows how a datalink op reaches its DLFM
— :meth:`HostSession.build_ops` (route), :meth:`~HostSession.send_ops`
(now, or at commit), :meth:`~HostSession.ship` (the two wire shapes, the
only stale-route handler): DML, DDL, LOAD and phase 1 all go through them.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional

from repro.dlfm import api
from repro.errors import (DataLinkError, ReproError, StaleRouteError,
                          TransactionAborted)
from repro.host.datalink import parse_url, shadow_column
from repro.host.render import count_params, render_expr
from repro.kernel import rpc
from repro.kernel.sim import Timeout
from repro.sql import ast
from repro.sql.parser import parse as parse_sql


class HostSession:
    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self.session = host.db.session()
        self._chans: dict[str, object] = {}   # server → DLFM child channel
        self.participants: set[str] = set()
        self.txn_id: Optional[int] = None
        self.pending_drops: list[str] = []
        #: RPC-batching fast path (config.batch_datalinks): ordered
        #: per-server op buffers, shipped as one api.Batch per server at
        #: commit with Prepare piggybacked on the final envelope.
        self._buffered: dict[str, list] = {}
        #: The servers phase 1 is preparing right now (empty outside it).
        self._preparing: set[str] = set()
        self._stmt_seq = itertools.count(1)
        self._parse_cache: dict[str, ast.Statement] = {}
        #: Set once the 2PC commit decision is durable (it rode the
        #: local COMMIT record). From then on the transaction IS committed:
        #: phase-2 failures are resolved by in-doubt re-drive, never by
        #: sending Abort to the participants.
        self._decided = False

    # ------------------------------------------------------------------ txn plumbing

    def begin(self) -> int:
        """Begin (or join) the host transaction; returns its id — the
        one every DLFM request of this transaction carries."""
        txn = self.session._require_txn()
        self.txn_id = txn.id
        return txn.id

    @property
    def idle(self) -> bool:
        """No local transaction, no participant, nothing buffered."""
        return (self.session.txn is None and not self.participants
                and not self._buffered)

    def attach(self, txn, servers):
        """Adopt a branch some earlier session prepared (possibly before
        a host crash): ``txn`` is the PREPARED local transaction,
        ``servers`` its write participants. Returns the session."""
        self.session.txn = txn
        self.txn_id = txn.id
        self.participants = set(servers)
        return self

    def detach(self) -> None:
        """Let go of the open branch without ending it (XA: it is
        PREPARED, its outcome the TM's). Connections close so the child
        agents let go of the prepared sub-transactions."""
        self.session.txn = None
        self.close()
        self._reset()

    def channel(self, server: str):
        chan = self._chans.get(server)
        if chan is None or chan.closed:
            dlfm = self.host.dlfms.get(server)
            if dlfm is None:
                raise DataLinkError(f"unknown file server {server!r}")
            chan = dlfm.connect()
            self._chans[server] = chan
        return chan

    def dlfm_call(self, server: str, req):
        """Generator: send a transactional op, opening the sub-transaction
        on first contact (BeginTxn carries the host transaction id)."""
        txn_id = self.begin()
        chan = self.channel(server)
        if server not in self.participants:
            yield from rpc.call(self.sim, chan,
                                api.BeginTxn(self.host.dbid, txn_id))
            self.participants.add(server)
        return (yield from rpc.call(self.sim, chan, req))

    def send_control(self, server: str, req):
        """Generator: a control verb (2PC, CommitPiece, a utility's
        request) to a named server — no BeginTxn, no participant
        tracking, no routing."""
        return (yield from rpc.call(self.sim, self.channel(server), req))

    # ------------------------------------------------------------------ build → route → ship

    def route(self, table: str, column: str, url: Optional[str] = None):
        """Where the ops of datalink column ``table.column`` go:
        ``(server, route_epoch, grp_id, path)``. Unsharded hosts address
        the DLFM named in the URL (epoch 0 = no validation; without a
        URL the op is group-wide and ``server`` None); sharded hosts
        resolve the file group through the shard-map cache and fence the
        op with the cached epoch."""
        grp_id = self.host.group_ids[(table, column)]
        server, path = parse_url(url) if url is not None else (None, None)
        epoch = 0
        if self.host.shard_map is not None:
            server, epoch = self.host.shard_map.resolve(grp_id)
        return server, epoch, grp_id, path

    def build_ops(self, verb, table: str, column: str,
                  url: Optional[str] = None) -> list:
        """The one op builder: ``verb`` (LinkFile, UnlinkFile,
        RegisterGroup or DeleteGroup) for datalink column
        ``table.column`` as routed ``(server, request)`` pairs — one
        pair, except a group-wide op on an unsharded host, which goes
        to every DLFM. A link or unlink draws a fresh recovery id."""
        host = self.host
        txn_id = self.begin()
        server, epoch, grp_id, path = self.route(table, column, url)
        if verb is api.LinkFile:
            spec = host.datalink_columns[table][column]
            req = api.LinkFile(
                host.dbid, txn_id, path, grp_id, host.recovery_ids.next(),
                access_ctl=spec.access_control,
                recovery=spec.recovery_flag, route_epoch=epoch)
        elif verb is api.UnlinkFile:
            req = api.UnlinkFile(
                host.dbid, txn_id, path, host.recovery_ids.next(),
                grp_id=grp_id, route_epoch=epoch)
        elif verb is api.RegisterGroup:
            req = api.RegisterGroup(host.dbid, txn_id, grp_id, table,
                                    column, epoch=epoch)
        else:
            req = api.DeleteGroup(host.dbid, txn_id, grp_id,
                                  route_epoch=epoch)
        servers = [server] if server is not None else sorted(host.dlfms)
        return [(target, req) for target in servers]

    def send_ops(self, ops, done: Optional[list] = None):
        """Generator: hand routed ``ops`` — ``(server, request)`` pairs,
        in order — to their DLFMs under the host's wire shape; the one
        place ``batch_datalinks`` is read. Off: each op ships now, and
        ``done`` (if given) collects what landed where — what a
        statement backout must compensate. On: the ops wait in
        per-server buffers and travel as one Batch per server at commit
        (or :meth:`flush_datalinks`), where a DLFM's refusal then
        surfaces instead of at the statement."""
        if self.host.config.batch_datalinks:
            for server, req in ops:
                self._buffered.setdefault(server, []).append(req)
            return
        for server, req in ops:
            server, (req,), _ = yield from self.ship(server, [req],
                                                     batch=False)
            if done is not None:
                done.append((server, req))

    def ship(self, server: str, ops, *, batch: bool, prepare: bool = False):
        """Generator: put forward ``ops``, all routed to ``server``, on
        the wire; returns ``(server, ops, last reply)`` as they landed.

        Two wire shapes: BeginTxn on first contact, then one call per op
        — or, with ``batch``, ONE api.Batch rendezvous that opens the
        sub-transaction implicitly, phase-1 Prepare piggybacked with
        ``prepare``.

        And the one stale-route handler. When a shard answers
        StaleRouteError (its group epoch disagrees with the route we
        cached — a move_group committed under us) the map is reloaded
        from the catalog and the ops re-resolved. A failed Batch left
        the wrong shard's sub-transaction as if it never arrived, so the
        bucket is re-sent whole to the new owner — unless its groups
        re-resolve to several shards, to one phase 1 is already
        preparing, or away from a shard that holds earlier work of this
        transaction: then the stale error propagates.
        """
        shard_map, metrics = self.host.shard_map, self.host.metrics
        for attempt in range(5):
            first_contact = server not in self.participants
            try:
                if batch:
                    # Register the participant BEFORE the call, as
                    # BeginTxn does: even a failed Batch leaves an
                    # implicit local transaction on the server that our
                    # Abort must roll back (presumed abort makes this
                    # harmless if it never arrived).
                    self.participants.add(server)
                    reply = yield from rpc.call(
                        self.sim, self.channel(server),
                        api.Batch(self.host.dbid, self.begin(), tuple(ops),
                                  prepare=prepare))
                    metrics.batches_sent += 1
                    metrics.batched_ops_sent += len(ops)
                else:
                    for op in ops:
                        reply = yield from self.dlfm_call(server, op)
            except StaleRouteError:
                if shard_map is None or attempt == 4:
                    raise
                # A mid-move group stays *moving* from the source's
                # prepare until phase 2 lands on both shards; back off a
                # little so the retries span that window instead of
                # burning out against the same moving state.
                yield Timeout(0.05 * (attempt + 1))
                shard_map.reload()
                routes = {shard_map.resolve(op.grp_id) for op in ops}
                if len(routes) != 1:
                    raise
                (new_server, epoch), = routes
                if batch and new_server != server:
                    if not first_contact or new_server in self._preparing:
                        raise
                    # The wrong shard holds an untouched open sub-txn
                    # (the Batch compensated itself): close it out.
                    yield from self.send_control(
                        server, api.Abort(self.host.dbid, self.txn_id))
                    self.participants.discard(server)
                    if prepare:
                        self._preparing.add(new_server)
                ops = [replace(op, route_epoch=epoch) for op in ops]
                server = new_server
            else:
                for op in ops:
                    if isinstance(op, api.UnlinkFile):
                        metrics.unlinks_sent += 1
                    elif isinstance(op, api.LinkFile):
                        metrics.links_sent += 1
                return server, ops, reply
        raise AssertionError("unreachable")

    def flush_datalinks(self):
        """Generator: ship all buffered datalink ops now (one Batch per
        server) without waiting for commit — a mid-transaction sync
        point. Errors follow batch semantics: the failing server's local
        transaction is as if the batch never arrived, and the caller
        decides whether to abort."""
        for server in sorted(self._buffered):
            yield from self.ship(server, self._buffered.pop(server),
                                 batch=True)

    # ------------------------------------------------------------------ execute

    def execute(self, sql: str, params: tuple = ()):
        """Generator: run one SQL statement with datalink interception."""
        stmt = self._parse_cache.get(sql)
        if stmt is None:
            stmt = parse_sql(sql)
            self._parse_cache[sql] = stmt
        specs = self.host.datalink_columns.get(getattr(stmt, "table", None))
        if specs:
            if isinstance(stmt, ast.Insert):
                return (yield from self._insert_datalink(stmt, params, specs))
            if isinstance(stmt, ast.Delete):
                return (yield from self._delete_datalink(stmt, sql, params,
                                                         specs))
            if isinstance(stmt, ast.Update):
                touched = [c for c, _ in stmt.assignments if c in specs]
                if touched:
                    return (yield from self._update_datalink(stmt, params,
                                                             specs))
        result = yield from self.session.execute(sql, params)
        return result

    def fetch_with_tokens(self, sql: str, params: tuple = ()):
        """Generator: SELECT returning (ResultSet, {url: AccessToken}).

        The paper's application flow (Fig. 3): the database hands the
        application URLs plus the tokens needed to open the files.
        """
        result = yield from self.session.execute(sql, params)
        tokens = {}
        for row in result.rows:
            for value in row:
                if isinstance(value, str) and value.startswith("dlfs://"):
                    tokens[value] = self.host.issue_token(value)
        return result, tokens

    # ------------------------------------------------------------------ datalink DML

    @staticmethod
    def _eval_value(expr: ast.Expr, params: tuple):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Param):
            return params[expr.index]
        raise DataLinkError(
            "datalink column values must be literals or parameters")

    def _insert_datalink(self, stmt: ast.Insert, params: tuple, specs):
        links = []
        extra_cols, extra_params = [], []
        for col in specs:
            if col not in stmt.columns:
                continue
            value = self._eval_value(
                stmt.values[stmt.columns.index(col)], params)
            if value is None:
                continue
            links += self.build_ops(api.LinkFile, stmt.table, col, value)
            extra_cols.append(shadow_column(col))
            extra_params.append(links[-1][1].recovery_id)

        # The shadow recovery-id values travel as parameters, never as
        # interpolated literals: the rebuilt text depends only on the
        # statement's SHAPE, so every datalink INSERT of the same shape
        # shares one bound plan. The original VALUES exprs re-render with
        # their ``?`` markers intact (in order), so appending markers at
        # the end keeps the original parameter indexes stable.
        columns = ", ".join(list(stmt.columns) + extra_cols)
        values = ", ".join([render_expr(v) for v in stmt.values]
                           + ["?"] * len(extra_params))
        new_sql = f"INSERT INTO {stmt.table} ({columns}) VALUES ({values})"
        return (yield from self._run_with_backout(
            new_sql, tuple(params) + tuple(extra_params), links))

    def _pre_read(self, stmt, cols, params: tuple):
        """Generator: lock and read the datalink values ``stmt`` is about
        to replace or drop; returns ``(WHERE text, ResultSet)``."""
        self.begin()   # the id is drawn before the pre-read's first wait
        where_text = (f" WHERE {render_expr(stmt.where)}"
                      if stmt.where is not None else "")
        sel_cols = []
        for col in cols:
            sel_cols += [col, shadow_column(col)]
        pre = yield from self.session.execute(
            f"SELECT {', '.join(sel_cols)} FROM {stmt.table}{where_text} "
            "FOR UPDATE", params)
        return where_text, pre

    def _delete_datalink(self, stmt: ast.Delete, sql: str, params: tuple,
                         specs):
        _, pre = yield from self._pre_read(stmt, specs, params)
        unlinks = []
        for row in pre.rows:
            for i, col in enumerate(specs):
                if row[2 * i] is not None:
                    unlinks += self.build_ops(api.UnlinkFile, stmt.table,
                                              col, row[2 * i])
        return (yield from self._run_with_backout(sql, params, unlinks))

    def _update_datalink(self, stmt: ast.Update, params: tuple, specs):
        dl_assignments = {c: e for c, e in stmt.assignments if c in specs}
        n_set_params = sum(count_params(e) for _, e in stmt.assignments)
        where_params = params[n_set_params:]
        where_text, pre = yield from self._pre_read(stmt, dl_assignments,
                                                    where_params)

        unlinks, links = [], []
        sets = [f"{c} = {render_expr(e)}" for c, e in stmt.assignments]
        shadow_params = []
        for col, expr in dl_assignments.items():
            new_url = self._eval_value(expr, params)
            new_recid = None
            if new_url is not None:
                link = self.build_ops(api.LinkFile, stmt.table, col, new_url)
                new_recid = link[0][1].recovery_id
                # one link per qualifying row — linking the same file for
                # several rows fails, as it must (a file has one link)
                links += link * len(pre.rows)
            # Parameter marker, not a spliced literal (NULL included):
            # the rebuilt text is one shared, cacheable shape per
            # statement template instead of one plan per recovery id.
            sets.append(f"{shadow_column(col)} = ?")
            shadow_params.append(new_recid)
        for row in pre.rows:
            for i, col in enumerate(dl_assignments):
                if row[2 * i] is not None:
                    unlinks += self.build_ops(api.UnlinkFile, stmt.table,
                                              col, row[2 * i])

        # Marker order in the rebuilt text: original SET markers, then
        # the shadow-column markers, then the WHERE markers — the shadow
        # parameters slot in between the two halves of ``params``.
        new_sql = (f"UPDATE {stmt.table} SET {', '.join(sets)}{where_text}")
        new_params = (tuple(params[:n_set_params]) + tuple(shadow_params)
                      + tuple(where_params))
        # Unlink before link: the same-file unlink+relink case needs the
        # linked slot freed first.
        return (yield from self._run_with_backout(
            new_sql, new_params, unlinks + links))

    def _run_with_backout(self, sql: str, params: tuple, ops):
        """Execute the host statement + its datalink ops atomically at
        statement level: on failure, compensate the DLFM ops that landed
        with in_backout requests and roll the host statement back
        (§3.2). Under the batching wire shape the ops are buffered only
        AFTER the host statement succeeds and nothing has landed yet, so
        a failing statement has nothing to compensate."""
        savepoint = f"dlstmt-{next(self._stmt_seq)}"
        self.session.savepoint(savepoint)
        done = []
        try:
            count = yield from self.session.execute(sql, params)
            yield from self.send_ops(ops, done)
            return count
        except TransactionAborted:
            # Severe failure (deadlock/timeout at host or DLFM): the whole
            # transaction dies on both sides (§3.2).
            yield from self._abort_everything()
            raise
        except ReproError:
            yield from self._statement_backout(savepoint, done)
            raise

    def _statement_backout(self, savepoint: str, done):
        self.host.metrics.statement_backouts += 1
        try:
            for server, req in reversed(done):
                yield from self.dlfm_call(server,
                                          replace(req, in_backout=True))
            self.session.rollback_to_savepoint(savepoint)
        except ReproError:
            # "It is not possible to rollback a rollback": any error while
            # backing out forces a full transaction rollback (§3.2).
            yield from self._abort_everything()
            raise

    def _abort_everything(self):
        if self._decided:
            # The commit decision is durable and the local transaction is
            # already committed: there is nothing to abort. A phase-2
            # failure lands here when the application reacts to the error
            # with ROLLBACK — sending Abort now would undo links of a
            # COMMITTED transaction on a live DLFM. The in-doubt poller
            # re-drives phase 2 from the decision instead.
            self._let_go()
            return
        if self.host.db.crashed:
            # The host database died under us, possibly inside the very
            # commit force that hardens the decision — whether this
            # transaction committed is unknowable here. Restart recovery
            # owns the outcome (re-drive from the logged decision,
            # presumed abort for the rest); sending Abort now could undo
            # the links of a transaction whose decision IS in the
            # durable log.
            self._reset()
            return
        txn_id = self.txn_id
        # A participant that is down or unreachable goes to the in-doubt
        # poller: presumed abort resolves it when it comes back.
        outcomes = yield from self.fan_out(
            api.Abort, [(txn_id, s) for s in sorted(self.participants)],
            name=f"abort-{txn_id}")
        yield from self.session.rollback()
        if any(isinstance(outcome, ReproError) for outcome in outcomes):
            self.host.poll()
        self._reset()
        self.host.metrics.rollbacks += 1

    def _let_go(self) -> None:
        """Hand a decided transaction to the in-doubt poller: its phase 2
        may not have finished."""
        self.host.poll()
        self._reset()

    def _reset(self) -> None:
        self.participants = set()
        self.txn_id = None
        self.pending_drops = []
        self._buffered = {}
        self._preparing = set()
        self._decided = False

    # ------------------------------------------------------------------ DDL with datalinks

    def drop_table(self, name: str):
        """Generator: transactional DROP of a datalink table — groups are
        marked deleted now; files unlink asynchronously after commit."""
        specs = self.host.datalink_columns.get(name)
        if not specs:
            self.host.db.ddl(parse_sql(f"DROP TABLE {name}"))
            return
        for col in specs:
            ops = self.build_ops(api.DeleteGroup, name, col)
            yield from self.send_ops(ops)
            if self.host.shard_map is not None:
                # Sharded fleet: the group lives on one shard; retire its
                # catalog row in the same transaction — once the
                # DeleteGroup has landed, because healing a stale route
                # re-reads the catalog and must not find our own
                # uncommitted DELETE there.
                yield from self.flush_datalinks()
                yield from self.session.execute(
                    "DELETE FROM dlk_shardmap WHERE grp_id = ?",
                    (ops[0][1].grp_id,))
        self.pending_drops.append(name)

    # ------------------------------------------------------------------ 2PC coordinator

    def commit(self):
        """Generator: application COMMIT — the 2PC coordinator."""
        if self.idle:
            return
        participants, _ = yield from self.prepare_participants()
        yield from self.commit_decided(participants)

    def rollback(self):
        """Generator: application ROLLBACK."""
        if self.idle:
            return
        yield from self._abort_everything()

    def prepare_participants(self):
        """Generator: phase 1 — the one prepare fan-out.

        Every participant prepares concurrently (~one round trip, not
        N); with batching on, a server's buffered ops ride in one Batch
        with Prepare piggybacked. One no-vote — or the coordinator dying
        in the scatter→gather window — aborts everyone, including those
        already prepared (§3.3), and raises
        ``TransactionAborted(reason="prepare")``.

        Returns sorted ``(writers, readonly)``: the servers that actually
        prepared (a stale batched route may land on another shard than
        the op was buffered under), and the read-only voters — they
        hardened nothing and are released here, with no decision entry
        and no phase-2 message.
        """
        txn_id = self.txn_id
        targets = sorted(set(self.participants) | set(self._buffered))
        if not targets:
            return [], []
        self._preparing = set(targets)
        gens = [self._prepare_one(server, txn_id) for server in targets]
        with self.sim.tracer.span("prepare.fanout", n=len(targets)):
            try:
                outcomes = yield from rpc.gather_all(
                    self.sim, gens, name=f"prepare-{txn_id}",
                    return_exceptions=True,
                    fault_point="twopc.fanout:prepare",
                    fault_node=self.host.db.name)
            except ReproError as error:
                # The coordinator itself died in the scatter→gather
                # window; outstanding prepares finish on their own,
                # participants resolve by presumed abort after restart.
                targets, outcomes = ["(coordinator)"], [error]
            for server, outcome in zip(targets, outcomes):
                if isinstance(outcome, ReproError):
                    self.host.metrics.prepare_failures += 1
                    yield from self._abort_everything()
                    raise TransactionAborted(
                        f"participant {server} failed to prepare: "
                        f"{outcome}", reason="prepare") from outcome
        readonly = []
        for server, reply in outcomes:
            if (reply or {}).get("vote", "commit") == "read-only":
                self.participants.discard(server)
                self.host.metrics.readonly_votes += 1
                readonly.append(server)
        return sorted(self.participants), sorted(readonly)

    def _prepare_one(self, server: str, txn_id: int):
        """Generator: phase-1 prepare of one participant; returns the
        ``(server, reply)`` pair that actually prepared. With batching
        on, the server's buffered ops ride along in one Batch — where a
        stale route is first discovered, so the bucket may land (and
        prepare) on another shard than it was buffered under."""
        ops = self._buffered.pop(server, None)
        if not ops:
            reply = yield from self.send_control(
                server, api.Prepare(self.host.dbid, txn_id))
            return server, reply
        server, _, reply = yield from self.ship(server, ops, batch=True,
                                                prepare=True)
        return server, (reply.get("prepare") or {})

    def commit_decided(self, participants):
        """Generator: the decision and phase 2, for a transaction whose
        write ``participants`` all voted commit in phase 1."""
        txn_id = self.txn_id
        yield from self.host.decide(self.session, participants, [
            self.host.group_ids[(name, col)] for name in self.pending_drops
            for col in self.host.datalink_columns[name]])
        self._decided = True
        for name in self.pending_drops:
            self.host.apply_drop(name)
        self.host.metrics.commits += 1
        if participants:   # else everyone voted read-only: nothing in doubt
            with self.sim.tracer.span("phase2.fanout", n=len(participants)):
                if self.host.config.sync_commit:
                    _, error = yield from self.commit_participants(
                        {txn_id: participants},
                        fault_point="twopc.fanout:phase2")
                    if error is not None:
                        raise error
                else:
                    yield from self._cast_commits(txn_id, participants)
        self._reset()

    def commit_participants(self, decisions, fault_point=None,
                            timeout=None):
        """Generator: phase-2 Commit for ``decisions`` (txn_id →
        servers), every (transaction, server) pair at once.

        A participant acknowledges once its phase 2 is applied; it is
        durable only at its next log force. A transaction is forgotten
        (one unforced FORGET record) only when all its participants
        acknowledged AND their phase 2 is durable
        (:meth:`HostDB.forget_when_durable`, off this path); a partial
        ack keeps the decision and hands it to the in-doubt poller
        (:meth:`HostDB.poll`), which re-drives the idempotent Commits.
        Returns ``(acked, error)``: acknowledged Commits and the first
        participant error (None when all acknowledged).
        """
        pairs = sorted((txn_id, server)
                       for txn_id, servers in decisions.items()
                       for server in servers)
        outcomes = yield from self.fan_out(api.Commit, pairs,
                                           name="phase2",
                                           fault_point=fault_point,
                                           timeout=timeout)
        errors = [o for o in outcomes if isinstance(o, ReproError)]
        if errors:
            self.host.poll()
        acked: dict[int, list] = {txn_id: [] for txn_id in decisions}
        for (txn_id, _), outcome in zip(pairs, outcomes):
            if isinstance(outcome, ReproError):
                acked.pop(txn_id, None)
            elif txn_id in acked:
                acked[txn_id].append(outcome)
        for txn_id in sorted(acked):
            self.host.forget_when_durable(txn_id, acked[txn_id])
        return len(pairs) - len(errors), (errors[0] if errors else None)

    def fan_out(self, verb, pairs, *, name: str, fault_point=None,
                timeout=None):
        """Generator: the one phase-2 fan-out — ``verb`` (``api.Commit``
        or ``api.Abort``) to every ``(txn_id, server)`` pair at once,
        every reply drained, each waited for at most ``timeout``. Returns
        the outcomes in ``pairs`` order, a participant's error (down,
        unreachable, refused, too slow) in place of its reply: a failed
        Commit keeps the decision, a failed Abort is left to presumed
        abort — the caller's call."""
        if not pairs:
            return []

        def send(txn_id, server):
            return (yield from rpc.call(self.sim, self.channel(server),
                                        verb(self.host.dbid, txn_id),
                                        timeout))

        return (yield from rpc.gather_all(
            self.sim, [send(*pair) for pair in pairs], name=name,
            return_exceptions=True, fault_point=fault_point,
            fault_node=self.host.db.name))

    def _cast_commits(self, txn_id: int, participants):
        """Generator: E6 mode (``sync_commit=False``). Every Commit verb
        is SENT (each child agent has received it and started
        processing), but the application regains control without waiting
        for the replies — so its next transaction's sends queue behind
        the still-running commit processing. The N sends overlap each
        other; each send still blocks on its rendezvous."""
        replies = yield from rpc.gather_all(
            self.sim,
            [rpc.cast(self.sim, self.channel(server),
                      api.Commit(self.host.dbid, txn_id))
             for server in participants],
            name=f"phase2-cast-{txn_id}",
            fault_point="twopc.fanout:phase2",
            fault_node=self.host.db.name)

        def finish():
            acked = []
            for reply in replies:
                acked.append((yield from rpc.wait_reply(reply)))
            self.host.forget_when_durable(txn_id, acked)

        self.sim.spawn(finish(), f"async-phase2-{txn_id}")

    def close(self) -> None:
        """Close the DLFM connections, letting go of a decided transaction
        still open (a client killed mid-phase-2)."""
        if self._decided:
            self._let_go()
        for chan in self._chans.values():
            chan.close()
        self._chans = {}
