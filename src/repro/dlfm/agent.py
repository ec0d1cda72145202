"""DLFM child agents (paper §3.5).

The main daemon spawns one child agent per host-DB connection; all
requests from that connection are served by it, one at a time — while it
is busy, further sends from the host block (rendezvous channel), which is
the mechanism behind the paper's synchronous-commit lesson (E6).

A child agent owns one local-database session. Forward operations of a
host transaction accumulate in one local transaction; Prepare performs
the hardening (forced) local COMMIT; phase-2 Commit/Abort run through
the manager's retry loops on fresh sessions and commit lazily: a Commit
reply says "applied" and carries the ``durable`` handle the host waits
on before it forgets its decision.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.dlfm import api, schema
from repro.dlfm.manager import TxnFacts
from repro.errors import ReproError, TransactionAborted, TwoPCProtocolError
from repro.kernel.channel import Channel
from repro.kernel.rpc import serve_loop
from repro.minidb.config import RPC


#: The kind of work (``dfm_txn.work``) each forward op does.
WORK_OF = {api.LinkFile: schema.WORK_LINK,
           api.UnlinkFile: schema.WORK_UNLINK,
           api.DeleteGroup: schema.WORK_DELETE,
           api.RegisterGroup: schema.WORK_REGISTER,
           api.ExportGroup: schema.WORK_MOVE,
           api.ImportGroup: schema.WORK_MOVE}


class ChildAgent:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.chan = Channel(dlfm.sim, capacity=0, name="dlfm-agent")
        self.session = None
        self.current: Optional[tuple[str, int]] = None
        self.prepared = False
        self.failed = False
        #: True once any op of the current transaction changed local
        #: state. A transaction that stays False (its only ops failed and
        #: were rolled back to their statement savepoints) has nothing to
        #: harden: Prepare answers with the read-only vote instead.
        self.wrote = False
        #: What the current transaction did (:class:`TxnFacts`).
        self.facts = TxnFacts()

    def serve(self):
        yield from serve_loop(self.chan, self.dispatch)
        # Connection gone: presumed abort. A local transaction that never
        # reached Prepare dies with its connection — otherwise its locks
        # would outlive the host session that abandoned it. A PREPARED
        # transaction stays indoubt, as §3.3 requires.
        if self.session is not None and not self.prepared:
            try:
                yield from self.session.rollback()
            except ReproError:
                pass  # crashed local db: restart recovery discards it
        self.session = None
        self.current = None

    # ------------------------------------------------------------------ dispatch

    def dispatch(self, req):
        with self.dlfm.sim.tracer.span(f"dlfm.{type(req).__name__}",
                                       dbid=getattr(req, "dbid", None),
                                       txn=getattr(req, "txn_id", None)):
            return (yield from self._dispatch(req))

    def _dispatch(self, req):
        self.dlfm.metrics.rpcs += 1
        yield from self.dlfm.config.local_db.timing.charge(RPC)

        if isinstance(req, api.BeginTxn):
            return self._begin(req)
        if isinstance(req, api.Batch):
            return (yield from self._batch(req))
        if isinstance(req, (api.LinkFile, api.UnlinkFile, api.RegisterGroup,
                            api.DeleteGroup, api.ExportGroup,
                            api.ImportGroup)):
            return (yield from self._forward(req))
        if isinstance(req, api.CommitPiece):
            self._check_txn(req)
            # A committed piece is already durable: the transaction can
            # never vote read-only, whatever happens afterwards. Its
            # local commit released the group fences' S locks.
            self.wrote = True
            self.facts.groups.clear()
            return (yield from self.dlfm.op_commit_piece(self.session, req))
        if isinstance(req, api.Prepare):
            return (yield from self._prepare(req))
        if isinstance(req, api.Commit):
            return (yield from self._commit(req))
        if isinstance(req, api.Abort):
            return (yield from self._abort(req))
        if isinstance(req, api.ListIndoubt):
            return (yield from self.dlfm.op_list_indoubt(req))
        if isinstance(req, api.EnsureArchived):
            return (yield from self.dlfm.op_ensure_archived(req))
        if isinstance(req, api.RestoreToBackup):
            return (yield from self.dlfm.op_restore_to_backup(req))
        if isinstance(req, api.ReconcileFiles):
            return (yield from self.dlfm.op_reconcile(req))
        raise TwoPCProtocolError(f"unknown DLFM request {req!r}")

    # ------------------------------------------------------------------ handlers

    def _begin(self, req: api.BeginTxn):
        if self.current is not None and not self.failed:
            raise TwoPCProtocolError(
                f"BeginTxn {req.txn_id} while {self.current} is active")
        self.session = self.dlfm.db.session()
        self.current = (req.dbid, req.txn_id)
        self.prepared = False
        self.failed = False
        self.wrote = False
        self.facts = TxnFacts()
        return {"started": True}

    def _check_txn(self, req) -> None:
        if self.current != (req.dbid, req.txn_id):
            raise TwoPCProtocolError(
                f"request for txn {(req.dbid, req.txn_id)} but agent is on "
                f"{self.current}")

    def _forward(self, req):
        self._check_txn(req)
        if self.failed:
            raise TransactionAborted(
                "local transaction already rolled back; the host must "
                "abort the whole transaction", reason="failed")
        dlfm, args = self.dlfm, (self.session, req, self.facts)
        try:
            if isinstance(req, api.LinkFile):
                result = yield from dlfm.op_link_file(*args)
            elif isinstance(req, api.UnlinkFile):
                result = yield from dlfm.op_unlink_file(*args)
            elif isinstance(req, api.RegisterGroup):
                result = yield from dlfm.op_register_group(*args)
            elif isinstance(req, api.ExportGroup):
                result = yield from dlfm.op_export_group(*args)
            elif isinstance(req, api.ImportGroup):
                result = yield from dlfm.op_import_group(*args)
            else:
                result = yield from dlfm.op_delete_group(*args)
            # Only a SUCCESSFUL op dirties the transaction: a failed one
            # was rolled back to its statement savepoint and left no
            # local state behind.
            self.wrote = True
            self.facts.work.add(WORK_OF[type(req)])
            return result
        except TransactionAborted:
            # A severe local error (deadlock/timeout/log-full) already
            # rolled the local transaction back; the host database will
            # roll back the full transaction (§3.2).
            self.failed = True
            raise

    def _batch(self, req: api.Batch):
        """One rendezvous, many ops: the RPC-batching fast path.

        Implicit BeginTxn on first contact, the ops in order, optionally
        phase-1 Prepare piggybacked after the last one. Ops are
        all-or-nothing within the batch: a statement-level failure at op k
        compensates ops 0..k-1 (reverse order, ``in_backout``) and
        re-raises, leaving the local transaction as if the batch never
        arrived — the host can still do statement-level backout or retry.
        A Batch never carries a RegisterGroup: registrations ship alone.
        """
        if self.current is None:
            self._begin(api.BeginTxn(req.dbid, req.txn_id))
        self.dlfm.metrics.batches += 1
        self.dlfm.metrics.batched_ops += len(req.ops)
        results = []
        applied = []
        try:
            for op in req.ops:
                results.append((yield from self._forward(op)))
                applied.append(op)
        except TransactionAborted:
            raise  # local txn already rolled back; nothing to compensate
        except Exception:
            for op in reversed(applied):
                yield from self._forward(replace(op, in_backout=True))
            raise
        reply = {"results": results}
        if req.prepare:
            reply["prepare"] = yield from self._prepare(
                api.Prepare(req.dbid, req.txn_id))
        return reply

    def _prepare(self, req: api.Prepare):
        self._check_txn(req)
        if self.failed:
            raise TransactionAborted("cannot prepare a failed transaction",
                                     reason="failed")
        if not self.wrote:
            # Read-only participant optimization: the local transaction
            # changed nothing, so there is nothing to harden and no
            # in-doubt exposure — release the local session now and let
            # the coordinator skip this server in phase 2 (no dfm_txn
            # entry, no host decision entry, no Commit RPC).
            if self.session is not None:
                yield from self.session.rollback()
            self.dlfm.metrics.readonly_votes += 1
            self._finish(req)
            return {"vote": "read-only"}
        result = yield from self.dlfm.op_prepare(self.session, req,
                                                 self.facts)
        self.prepared = True
        return result

    def _commit(self, req: api.Commit):
        if self.current == (req.dbid, req.txn_id) and not self.prepared:
            raise TwoPCProtocolError(
                f"Commit for txn {req.txn_id} before Prepare")
        result = yield from self.dlfm.op_commit(req)
        self._finish(req)
        return result

    def _abort(self, req: api.Abort):
        if self.current == (req.dbid, req.txn_id) and not self.prepared:
            # Abort before prepare: plain local rollback (§3.3).
            if self.session is not None and not self.failed:
                yield from self.session.rollback()
            self.dlfm.metrics.aborts += 1
            self._finish(req)
            return {"outcome": "rolled-back"}
        # After prepare (or an unknown transaction resolved indoubt):
        # phase-2 abort via the delayed-update records; idempotent.
        result = yield from self.dlfm.op_abort_prepared(req)
        self._finish(req)
        return result

    def _finish(self, req) -> None:
        if self.current == (req.dbid, req.txn_id):
            self.current = None
            self.session = None
            self.prepared = False
            self.failed = False
            self.wrote = False
            self.facts = TxnFacts()
