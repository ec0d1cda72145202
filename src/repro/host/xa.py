"""XA (global/distributed) transactions at the host database (§3.3).

"In the case of an XA transaction, the host database also generates a
local transaction id that is different from the global XA transaction
id. ... [the local] id is passed to the DLFM in each of the API
invocation."

Here the host is itself a *participant* of an external transaction
manager while remaining the *coordinator* of its DLFMs — the same
coordinator an application COMMIT runs (:mod:`repro.host.session`), with
the TM's verdict arriving between its two halves:

* :func:`xa_prepare` — runs the session's phase 1
  (``prepare_participants``), then prepares the host's own local
  transaction: ONE forced PREPARE log record (locks kept) whose payload
  is the branch — gtrid, write-participant servers, read-only voters.
  From then on the outcome belongs to the TM.
* :func:`xa_commit` / :func:`xa_rollback` — the TM's verdict, run on a
  session re-attached to the prepared branch: ``commit_decided`` (the
  decision rides the local COMMIT record, then phase 2) or
  ``rollback``.

The branch has no other store: it exists iff the host database holds
its transaction PREPARED — restart resurrects it, payload included, from
the log — and :func:`xa_recover` lists exactly those. A crash before the
PREPARE force leaves nothing (presumed abort sweeps the DLFMs); one
after the verdict's COMMIT record leaves an ordinary host decision that
restart and the in-doubt poller re-drive.

Note what the DLFMs see: only the LOCAL transaction id — monotonically
increasing per host database — never the gtrid. That is the paper's
design point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataLinkError


@dataclass(frozen=True)
class XAPrepareResult:
    """Phase-1 outcome the external TM sees for this host branch.

    ``vote == "commit"``: the branch is in doubt and the TM must call
    :func:`xa_commit` or :func:`xa_rollback`. ``vote == "read-only"``
    (XA_RDONLY): the whole branch — every DLFM participant and the
    host's own local transaction — read without writing, so it was
    released at phase 1: no PREPARE record, and the TM must NOT drive
    phase 2 for it. ``readonly_servers`` lists the participants
    individually released by their read-only vote (phase 2 skips them
    even when the branch as a whole votes commit).
    """

    txn_id: int
    vote: str
    readonly_servers: tuple = ()


def xa_prepare(session, gtrid: str):
    """Generator: phase 1 of the global transaction for this host branch.

    Returns an :class:`XAPrepareResult` carrying the LOCAL transaction
    id (distinct from ``gtrid``) and this branch's vote. The session is
    detached from the branch afterwards and free for new work.
    """
    host = session.host
    if session.idle:
        raise DataLinkError(f"nothing to prepare for gtrid {gtrid!r}")
    txn_id = session.begin()

    # 1. The coordinator's phase 1 (the DLFMs see the local txn id). A
    # failure aborts everyone and propagates: gtrid unknown, presumed abort.
    writers, readonly = yield from session.prepare_participants()

    local_txn = session.session.txn
    if not writers and local_txn.last_lsn is None:
        # 2a. Read-only fast path: every participant voted read-only and
        # the local transaction wrote nothing — release the whole branch
        # at phase 1 (XA_RDONLY). Read locks drop now, no PREPARE record
        # is forced, and the TM never drives phase 2 for this gtrid.
        yield from host.db.commit(local_txn)
        host.metrics.readonly_branches += 1
        vote = "read-only"
    else:
        # 2b. The host votes yes: one force hardens the local
        # transaction and, on the same record, the servers phase 2 must
        # reach (read-only voters are already released). A host crash
        # before it leaves DLFM sub-transactions with no decision:
        # restart's presumed abort sweeps them.
        yield from host.db.prepare(local_txn, payload={
            "gtrid": gtrid, "servers": writers, "readonly": readonly})
        vote = "commit"
    session.detach()
    return XAPrepareResult(txn_id, vote, tuple(readonly))


def _branch(host, gtrid: str):
    """The PREPARED local transaction of branch ``gtrid``."""
    for txn in host.db.indoubt_transactions():
        if txn.payload and txn.payload["gtrid"] == gtrid:
            return txn
    raise DataLinkError(f"unknown gtrid {gtrid!r}")


def xa_commit(host, gtrid: str):
    """Generator: the TM decided commit for this branch.

    Returns ``{"txn_id", "servers", "readonly"}`` — the participants
    phase 2 was driven to, and those already released at phase 1 by
    their read-only vote (no phase-2 message goes to them).
    """
    txn = _branch(host, gtrid)
    servers = txn.payload["servers"]
    session = host.session().attach(txn, servers)
    try:
        yield from session.commit_decided(servers)
    finally:
        session.close()
    return {"txn_id": txn.id, "servers": tuple(servers),
            "readonly": tuple(txn.payload["readonly"])}


def xa_rollback(host, gtrid: str):
    """Generator: the TM decided rollback for this branch. Nothing is
    forced (presumed abort): should the host crash before its next log
    force, restart resurrects the branch in doubt and the TM's recovery
    scan (:func:`xa_recover`) rolls it back again."""
    txn = _branch(host, gtrid)
    session = host.session().attach(txn, txn.payload["servers"])
    try:
        yield from session.rollback()
    finally:
        session.close()
    return txn.id


def xa_recover(host) -> dict:
    """The branches awaiting the TM's verdict (after a host restart
    too): ``{gtrid: {"txn_id", "readonly"}}`` — for each the TM must
    call :func:`xa_commit` or :func:`xa_rollback`. ``readonly`` lists
    the participants released at phase 1 by a read-only vote; a branch
    that voted read-only as a whole finished there and never appears.
    """
    return {txn.payload["gtrid"]: {"txn_id": txn.id,
                                   "readonly": tuple(txn.payload["readonly"])}
            for txn in host.db.indoubt_transactions() if txn.payload}
