"""Indoubt-transaction resolution (paper §3.3).

"If DLFM fails after prepare then that transaction remains in an indoubt
state. It is the host database's responsibility for resolving the
indoubt transactions with the DLFM. Either host database restart
processing does it, or, if DLFM is unavailable at restart, host database
spawns a daemon whose sole purpose is to poll the DLFM periodically and
resolve the indoubts when the DLFM is up."

Here both are one process, the host's poller (:func:`indoubt_poller`):
restart starts it and returns (instant restart), so its first pass runs
beside the new transactions; every later hand-off of unfinished 2PC
work has it pass again.
"""

from __future__ import annotations

from repro.dlfm import api
from repro.errors import CrashedError, ReproError
from repro.kernel import rpc
from repro.kernel.sim import Timeout

#: Seconds between the poller's attempts on an unavailable DLFM.
POLL_PERIOD = 5.0


def resolve_indoubts(host):
    """Generator: one full resolution pass. Returns a summary dict.

    Presumed abort, driven through the coordinator's own phase-2 steps
    (a :class:`~repro.host.session.HostSession` opened for the pass):
    first re-drive Commit for every transaction with a durable decision
    (``host.pending_decisions()`` — after a crash mid-fan-out many are
    in doubt together, so all (transaction, server) pairs go out at
    once); then every transaction a DLFM still reports as prepared has
    no decision and is aborted — unless the host still has a say in
    it: a decision taken since (its phase 2 is on the way), or a live
    local transaction (its coordinator is in phase 1, or it is an XA
    branch whose outcome belongs to the external transaction manager).
    A pass runs beside live traffic (in the poller, from the instant the
    host restarts), but never on a crashed host, which reads no decision
    until it restarts; nor does it re-drive a decision whose COMMIT
    record still waits for its force. A pass belongs to the host
    incarnation it began in: after every wait it fails if its host
    crashed meanwhile, restarted or not (the next incarnation's restart
    starts a poller of its own). A reply slower than POLL_PERIOD fails
    the pass.
    """
    recoveries = host.db.metrics.recoveries

    def still_mine():
        if host.db.crashed or host.db.metrics.recoveries != recoveries:
            raise CrashedError(f"host {host.dbid} crashed mid-resolution")

    coordinator = host.session()
    try:
        committed, error = yield from coordinator.commit_participants(
            host.pending_decisions(), timeout=POLL_PERIOD)
        still_mine()
        host.metrics.indoubt_commits += committed
        if error is not None:
            raise error

        servers = sorted(host.dlfms)
        listed = yield from rpc.gather_all(
            host.sim,
            [rpc.call(host.sim, coordinator.channel(server),
                      api.ListIndoubt(host.dbid), POLL_PERIOD)
             for server in servers],
            name="indoubt-list")
        still_mine()
        spoken_for = ({txn.id for txn in host.db.txns.active}
                     | set(host.pending_decisions()))
        outcomes = yield from coordinator.fan_out(
            api.Abort,
            [(txn_id, server) for server, txn_ids in zip(servers, listed)
             for txn_id in txn_ids if txn_id not in spoken_for],
            name="indoubt-abort", timeout=POLL_PERIOD)
        still_mine()
    finally:
        coordinator.close()
    errors = [o for o in outcomes if isinstance(o, ReproError)]
    aborted = len(outcomes) - len(errors)
    host.metrics.indoubt_aborts += aborted
    if errors:
        raise errors[0]
    return {"committed": committed, "aborted": aborted}


def indoubt_poller(host):
    """Generator (the host's one poller, spawned by ``HostDB.poll`` at
    restart or at a hand-off): a pass at once, then one every POLL_PERIOD
    until one succeeds with nothing handed over since it began. Returns
    the last pass's summary."""
    while True:
        host.pass_again = False
        try:
            result = yield from resolve_indoubts(host)
            if not host.pass_again:
                return result
        except ReproError:
            pass
        yield Timeout(POLL_PERIOD)
