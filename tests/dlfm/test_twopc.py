"""Two-phase commit, indoubt resolution and crash recovery (§3.3, E10)."""

import pytest

from repro.dlfm import api
from repro.errors import TwoPCProtocolError
from repro.kernel import Timeout, rpc

from tests.dlfm.conftest import insert_clip, url


def test_txn_table_empty_after_clean_commit(media):
    metrics = media.dlfms["fs1"].metrics
    prepares_before = metrics.prepares
    commits_before = metrics.commits

    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()

    media.run(go())
    assert media.dlfms["fs1"].db.table_rows("dfm_txn") == []
    assert metrics.prepares == prepares_before + 1
    assert metrics.commits == commits_before + 1


def test_direct_protocol_out_of_order_commit_rejected(media):
    dlfm = media.dlfms["fs1"]

    def go():
        chan = dlfm.connect()
        yield from rpc.call(media.sim, chan, api.BeginTxn("hostdb", 12345))
        with pytest.raises(TwoPCProtocolError):
            yield from rpc.call(media.sim, chan,
                                api.Commit("hostdb", 12345))
        return True

    assert media.run(go()) is True


def test_commit_is_idempotent_for_unknown_txn(media):
    """Redelivered phase-2 verbs after recovery must be harmless."""
    dlfm = media.dlfms["fs1"]

    def go():
        chan = dlfm.connect()
        result = yield from rpc.call(media.sim, chan,
                                     api.Commit("hostdb", 99999))
        again = yield from rpc.call(media.sim, chan,
                                    api.Abort("hostdb", 99999))
        return result, again

    result, again = media.run(go())
    assert result["outcome"] == "already-finished"
    assert again["outcome"] == "already-finished"


def test_dlfm_crash_before_prepare_loses_subtransaction(media):
    """Host abort after a DLFM crash finds nothing to undo — the local
    database's own recovery already rolled the in-flight work back."""
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        # crash the DLFM mid-transaction (before prepare)
        media.dlfms["fs1"].crash()
        media.dlfms["fs1"].restart()
        with pytest.raises(Exception):
            yield from session.commit()  # channel died → commit fails
        return True

    assert media.run(go()) is True
    assert media.dlfms["fs1"].linked_count() == 0
    assert media.dlfms["fs1"].db.table_rows("dfm_txn") == []


def test_dlfm_crash_after_prepare_leaves_indoubt_then_host_resolves(media):
    """The E10 core: prepared + crashed → indoubt → host resolution
    commits it (the decision exists)."""
    dlfm = media.dlfms["fs1"]
    host = media.host

    def prepare_and_crash():
        session = media.session()
        yield from insert_clip(session, 0)
        txn_id = session.txn_id
        # run phase 1 by hand so we can crash between prepare and commit
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        # the coordinator's decision step: durable on the host side
        yield from host.decide(session.session, txn_id, ["fs1"])
        dlfm.crash()
        return txn_id

    txn_id = media.run(prepare_and_crash())
    dlfm.restart()
    # the prepared txn survived into restart as indoubt
    def list_indoubt():
        chan = dlfm.connect()
        result = yield from rpc.call(media.sim, chan,
                                     api.ListIndoubt(host.dbid))
        chan.close()
        return result

    assert media.run(list_indoubt()) == [txn_id]

    def resolve():
        from repro.host.indoubt import resolve_indoubts
        return (yield from resolve_indoubts(host))

    result = media.run(resolve())
    assert result == {"committed": 1, "aborted": 0}
    assert media.dlfms["fs1"].linked_count() == 1


def test_prepared_txn_without_decision_aborts(media):
    """Presumed abort: host crashed before committing its decision."""
    host = media.host

    def prepare_only():
        session = media.session()
        yield from insert_clip(session, 0)
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        return txn_id

    media.run(prepare_only())

    def resolve():
        from repro.host.indoubt import resolve_indoubts
        return (yield from resolve_indoubts(host))

    result = media.run(resolve())
    assert result == {"committed": 0, "aborted": 1}
    assert media.dlfms["fs1"].linked_count() == 0


def test_phase2_abort_restores_unlink_and_drops_new_links(media):
    """Delayed-update scheme: abort after prepare must undo hardened
    metadata (the paper's 'rolling back transaction update after local
    database commit')."""
    host = media.host

    def setup():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()

    media.run(setup())

    def prepared_then_abort():
        session = media.session()
        # one transaction: unlink clip0, link clip1
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (1, "new", url(1)))
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        # host decides ABORT (e.g. another participant voted no)
        yield from session.send_control("fs1", api.Abort(host.dbid,
                                                         txn_id))
        yield from session.session.rollback()
        return txn_id

    media.run(prepared_then_abort())
    rows = media.dlfms["fs1"].file_entries()
    # clip0 back to linked; clip1's entry gone
    linked = [r for r in rows if r[8] == "linked"]
    assert len(linked) == 1
    assert linked[0][0] == "/v/clip0.mpg"
    assert media.dlfms["fs1"].db.table_rows("dfm_txn") == []


def test_commit_survives_dlfm_crash_and_restart_between_phases(media):
    host = media.host
    dlfm = media.dlfms["fs1"]

    def phase1():
        session = media.session()
        yield from insert_clip(session, 2)
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        yield from host.decide(session.session, txn_id, ["fs1"])
        return txn_id

    txn_id = media.run(phase1())
    dlfm.crash()
    dlfm.restart()

    def finish():
        from repro.host.indoubt import resolve_indoubts
        return (yield from resolve_indoubts(host))

    media.run(finish())
    assert dlfm.linked_count() == 1
    # decision forgotten after successful phase 2
    assert host.decision_rows() == []


def test_host_crash_and_restart_redrives_phase2(media):
    host = media.host

    def phase1():
        session = media.session()
        yield from insert_clip(session, 3)
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        yield from host.decide(session.session, txn_id, ["fs1"])
        return txn_id

    media.run(phase1())
    host.crash()

    def restart():
        return (yield from host.restart())

    result = media.run(restart())
    assert result["committed"] == 1
    assert media.dlfms["fs1"].linked_count() == 1


def test_indoubt_poller_waits_for_dlfm_to_return(media):
    host = media.host
    dlfm = media.dlfms["fs1"]

    def phase1():
        session = media.session()
        yield from insert_clip(session, 1)
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        yield from host.decide(session.session, txn_id, ["fs1"])
        return txn_id

    media.run(phase1())
    dlfm.crash()

    def root():
        from repro.host.indoubt import indoubt_poller
        poller = media.sim.spawn(indoubt_poller(host, "fs1"), "poller")
        yield Timeout(20)   # DLFM stays down for a while
        dlfm.restart()
        result = yield from poller.join()
        return result

    result = media.run(root())
    assert result["committed"] == 1
    assert dlfm.linked_count() == 1
