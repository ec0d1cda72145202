"""Deterministic tests of the phase-2 retry loop (Fig. 4) and the
periodic statistics guard."""

from repro.dlfm import api
from repro.dlfm.daemons.gc import GC_PERIOD
from repro.kernel import Timeout, rpc

from tests.dlfm.conftest import insert_clip


def _prepared_txn(media):
    """Drive a transaction through phase 1 by hand; return its id."""
    host = media.host

    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        txn_id = session.txn_id
        yield from session.send_control("fs1",
                                        api.Prepare(host.dbid, txn_id))
        yield from session.session.commit()
        return txn_id

    return media.run(go())


def test_phase2_commit_retries_through_held_locks(media):
    """An interloper X-locks the dfm_txn row; op_commit keeps retrying
    until the lock clears, then succeeds — never gives up, never loses
    the transaction."""
    dlfm = media.dlfms["fs1"]
    dlfm.db.config.lock_timeout = 2.0
    dlfm.config.commit_retry_delay = 1.0
    txn_id = _prepared_txn(media)

    def scenario():
        blocker = dlfm.db.session()
        yield from blocker.execute(
            "SELECT * FROM dfm_txn WHERE txn_id = ? FOR UPDATE", (txn_id,))

        chan = dlfm.connect()
        reply = yield from rpc.cast(
            media.sim, chan, api.Commit(media.host.dbid, txn_id))
        yield Timeout(10.0)   # several retry cycles happen meanwhile
        retries_while_blocked = dlfm.metrics.commit_retries
        yield from blocker.rollback()
        result = yield from rpc.wait_reply(reply)
        chan.close()
        return retries_while_blocked, result

    retries, result = media.run(scenario())
    assert retries >= 2                      # kept retrying while blocked
    assert result["outcome"] == "committed"  # and eventually won
    assert media.dlfms["fs1"].linked_count() == 1
    assert dlfm.db.table_rows("dfm_txn") == []


def test_phase2_failed_attempt_holds_no_locks_while_waiting(media):
    """Between attempts the retry loop must have rolled the failed
    attempt's local transaction back: nothing held, nothing waiting,
    no transaction left active besides the blocker's. (A leaked lock
    here would deadlock the very retry that is supposed to recover.)"""
    dlfm = media.dlfms["fs1"]
    dlfm.db.config.lock_timeout = 1.0
    dlfm.config.commit_retry_delay = 4.0
    txn_id = _prepared_txn(media)

    def scenario():
        blocker = dlfm.db.session()
        yield from blocker.execute(
            "SELECT * FROM dfm_txn WHERE txn_id = ? FOR UPDATE", (txn_id,))
        blocker_id = blocker.txn.id
        chan = dlfm.connect()
        reply = yield from rpc.cast(
            media.sim, chan, api.Commit(media.host.dbid, txn_id))
        # attempt 1 times out at ~1 s; sample mid retry-delay, before
        # attempt 2 starts at ~5 s
        yield Timeout(2.5)
        active = [t.id for t in dlfm.db.txns.active]
        waiting = sorted(dlfm.db.locks._waiting)
        foreign = {
            head.resource: holders
            for head in dlfm.db.locks.heads.values()
            if (holders := {t for t in head.holders if t != blocker_id})
        }
        yield from blocker.rollback()
        result = yield from rpc.wait_reply(reply)
        chan.close()
        return blocker_id, active, waiting, foreign, result

    blocker_id, active, waiting, foreign, result = media.run(scenario())
    assert active == [blocker_id]   # the failed attempt's txn is gone
    assert waiting == []            # …and is not parked on any lock
    assert foreign == {}            # …and holds nothing anywhere
    assert result["outcome"] == "committed"
    assert media.dlfms["fs1"].linked_count() == 1


def test_statistics_guard_runs_periodically(media):
    """A user RUNSTATS is repaired by the next GC housekeeping sweep."""
    dlfm = media.dlfms["fs1"]
    dlfm.db.runstats("dfm_file")   # sabotage
    assert dlfm.db.catalog.stats_for("dfm_file").manual is False

    def wait_for_gc():
        yield Timeout(GC_PERIOD + 5)

    media.run(wait_for_gc())
    assert dlfm.db.catalog.stats_for("dfm_file").manual is True
    assert dlfm.metrics.stats_repins >= 1
