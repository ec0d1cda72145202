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
  (``prepare_participants``), durably registers the gtrid → (local txn
  id, write-participant servers) mapping, and prepares the host's own
  local transaction (PREPARE log record, locks kept). From then on the
  outcome belongs to the TM.
* :func:`xa_commit` / :func:`xa_rollback` — the TM's verdict, run on a
  session re-attached to the prepared branch: ``commit_decided`` (the
  decision rides the local COMMIT record, then phase 2) or
  ``rollback``. A crash in between is repaired by host restart's
  in-doubt resolution; :func:`xa_recover` + :func:`xa_finish_pending`
  clear the registrations left behind.

Note what the DLFMs see: only the LOCAL transaction id — monotonically
increasing per host database — never the gtrid. That is the paper's
design point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataLinkError, ReproError


@dataclass(frozen=True)
class XAPrepareResult:
    """Phase-1 outcome the external TM sees for this host branch.

    ``vote == "commit"``: the branch is indoubt and the TM must call
    :func:`xa_commit` or :func:`xa_rollback`. ``vote == "read-only"``
    (XA_RDONLY): the whole branch — every DLFM participant and the
    host's own local transaction — read without writing, so it was
    released at phase 1: no PREPARE record, no ``xa_pending`` rows, and
    the TM must NOT drive phase 2 for it. ``readonly_servers`` lists
    the participants individually released by their read-only vote
    (phase 2 skips them even when the branch as a whole votes commit).
    """

    txn_id: int
    vote: str
    readonly_servers: tuple = ()


def _bootstrap(host) -> None:
    if "xa_pending" not in host.db.catalog.tables:
        from repro.sql.parser import parse as parse_sql
        host.db.ddl(parse_sql(
            "CREATE TABLE xa_pending (gtrid TEXT, txn_id INT, server TEXT)"))
        host.db.ddl(parse_sql(
            "CREATE INDEX xa_pending_g ON xa_pending (gtrid)"))
        host.db.set_table_stats("xa_pending", card=100_000,
                                colcard={"gtrid": 100_000})


def xa_prepare(session, gtrid: str):
    """Generator: phase 1 of the global transaction for this host branch.

    Returns an :class:`XAPrepareResult` carrying the LOCAL transaction
    id (distinct from ``gtrid``) and this branch's vote. The session is
    detached from the branch afterwards and free for new work.
    """
    host = session.host
    _bootstrap(host)
    if (session.session.txn is None and not session.participants
            and not session._buffered):
        raise DataLinkError(f"nothing to prepare for gtrid {gtrid!r}")
    txn_id = session._ensure_txn()

    # 1. The coordinator's phase 1 (the DLFMs see the local txn id). A
    # failure aborts every participant and the local transaction and
    # propagates; nothing is registered yet, so the TM finds the gtrid
    # unknown — presumed abort.
    writers, readonly = yield from session.prepare_participants()

    local_txn = session.session.txn
    if not writers and (local_txn is None or local_txn.last_lsn is None):
        # 2a. Read-only fast path: every participant voted read-only and
        # the local transaction wrote nothing — release the whole branch
        # at phase 1 (XA_RDONLY). Read locks drop now, no PREPARE record
        # is forced, nothing is registered, and the TM never drives
        # phase 2 for this gtrid.
        if local_txn is not None:
            yield from host.db.commit(local_txn)
        host.metrics.readonly_branches += 1
        vote = "read-only"
    else:
        # 2b. Durably register the branch — the servers phase 2 must
        # reach: read-only voters are already released — BEFORE the
        # host votes yes, then prepare its own local transaction. (A
        # host crash in between leaves DLFM sub-transactions with no
        # decision: restart's presumed abort sweeps them.)
        reg = host.db.session()
        for server in ["*"] + writers:
            yield from reg.execute(
                "INSERT INTO xa_pending (gtrid, txn_id, server) "
                "VALUES (?, ?, ?)", (gtrid, txn_id, server))
        yield from reg.commit()
        yield from host.db.prepare(local_txn)
        vote = "commit"
    # The session must not touch the branch any more; its connections
    # close so the child agents let go of the prepared sub-transactions.
    session.session.txn = None
    session.close()
    session._reset()
    result = XAPrepareResult(txn_id, vote, tuple(readonly))
    host.xa_votes[gtrid] = result
    return result


def _pending_rows(host, gtrid: str):
    reader = host.db.session()
    rows = yield from reader.execute(
        "SELECT txn_id, server FROM xa_pending WHERE gtrid = ?", (gtrid,))
    yield from reader.commit()
    if not rows.rows:
        raise DataLinkError(f"unknown gtrid {gtrid!r}")
    txn_id = rows.rows[0][0]
    servers = sorted(s for _, s in rows.rows if s != "*")
    return txn_id, servers


def _attach(host, txn_id: int, servers, txn):
    """A coordinator session re-attached to a branch some earlier
    session prepared (possibly before a host crash)."""
    session = host.session()
    session.session.txn = txn
    session.txn_id = txn_id
    session.participants = set(servers)
    return session


def xa_commit(host, gtrid: str):
    """Generator: the TM decided commit for this branch.

    Returns ``{"txn_id", "servers", "readonly"}`` — the participants
    phase 2 was driven to, and those already released at phase 1 by
    their read-only vote (no phase-2 message goes to them).
    """
    txn_id, servers = yield from _pending_rows(host, gtrid)
    session = _attach(host, txn_id, servers, host.db.find_prepared(txn_id))
    try:
        yield from session.commit_decided(servers)
    finally:
        session.close()
    yield from _forget(host, gtrid)
    vote = host.xa_votes.pop(gtrid, None)
    return {"txn_id": txn_id, "servers": tuple(servers),
            "readonly": vote.readonly_servers if vote is not None else ()}


def xa_rollback(host, gtrid: str):
    """Generator: the TM decided rollback for this branch."""
    txn_id, servers = yield from _pending_rows(host, gtrid)
    try:
        txn = host.db.find_prepared(txn_id)
    except ReproError:
        txn = None  # host crashed before the local prepare: already undone
    session = _attach(host, txn_id, servers, txn)
    try:
        yield from session.rollback()
    finally:
        session.close()
    yield from _forget(host, gtrid)
    host.xa_votes.pop(gtrid, None)
    return txn_id


def _forget(host, gtrid: str):
    cleaner = host.db.session()
    yield from cleaner.execute("DELETE FROM xa_pending WHERE gtrid = ?",
                               (gtrid,))
    yield from cleaner.commit()


def xa_recover(host):
    """Generator: classify surviving branches (after a host restart too).

    Returns ``{gtrid: {"state", "txn_id", "readonly"}}``:

    * ``state == "indoubt"`` — the local transaction is still prepared;
      the TM must call :func:`xa_commit` or :func:`xa_rollback`.
    * ``state == "commit-pending"`` — the local commit happened but
      phase 2 never finished; :func:`xa_finish_pending` re-drives it.

    ``readonly`` lists participants released at phase 1 by a read-only
    vote (best effort: the vote record is volatile, so after a restart
    it is empty — correctly so, since those participants were already
    pruned from the durable registration and need no phase 2). Branches
    that voted read-only as a whole never appear here: they finished at
    phase 1 and left no ``xa_pending`` rows behind.
    """
    if "xa_pending" not in host.db.catalog.tables:
        return {}
    reader = host.db.session()
    rows = yield from reader.execute(
        "SELECT gtrid, txn_id FROM xa_pending WHERE server = ?", ("*",))
    yield from reader.commit()
    prepared_ids = {t.id for t in host.db.indoubt_transactions()}
    status = {}
    for gtrid, txn_id in rows.rows:
        vote = host.xa_votes.get(gtrid)
        status[gtrid] = {
            "state": ("indoubt" if txn_id in prepared_ids
                      else "commit-pending"),
            "txn_id": txn_id,
            "readonly": vote.readonly_servers if vote is not None else ()}
    return status


def xa_finish_pending(host):
    """Generator: re-drive phase 2 for every committed-but-unfinished
    branch (idempotent at the DLFMs) and erase its registration."""
    status = yield from xa_recover(host)
    finished = []
    for gtrid, info in sorted(status.items()):
        if info["state"] != "commit-pending":
            continue
        txn_id, servers = yield from _pending_rows(host, gtrid)
        session = host.session()
        try:
            _, error = yield from session.commit_participants(
                {txn_id: servers})
        finally:
            session.close()
        if error is not None:
            raise error
        yield from _forget(host, gtrid)
        finished.append(gtrid)
    return finished
