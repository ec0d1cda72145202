"""Two-phase commit, indoubt resolution and crash recovery (§3.3, E10)."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.chaos.invariants import check_invariants
from repro.dlff.filter import DLFM_ADMIN
from repro.dlfm import api
from repro.errors import TwoPCProtocolError
from repro.host import DatalinkSpec
from repro.kernel import Timeout, rpc
from repro.system import System

from tests.dlfm.conftest import insert_clip, url
from tests.conftest import restart_and_resolve, run_until_durable


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
        yield from host.decide(session.session, ["fs1"])
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
    host.crash()
    result = media.run(restart_and_resolve(host))
    # The one "committed" is the fixture's DDL decision, re-sent and
    # answered already-finished: its FORGET was never durable.
    assert result == {"committed": 1, "aborted": 1}
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
        yield from host.decide(session.session, ["fs1"])
        return txn_id

    txn_id = media.run(phase1())
    dlfm.crash()
    dlfm.restart()

    def finish():
        from repro.host.indoubt import resolve_indoubts
        return (yield from resolve_indoubts(host))

    media.run(finish())
    assert dlfm.linked_count() == 1
    # decision forgotten once phase 2 is durable at fs1
    run_until_durable(media)
    assert host.decision_rows() == []


def test_host_crash_and_restart_redrives_phase2(media):
    host = media.host

    def phase1():
        session = media.session()
        yield from insert_clip(session, 3)
        txn_id = session.txn_id
        yield from session.send_control("fs1", api.Prepare(host.dbid,
                                                           txn_id))
        yield from host.decide(session.session, ["fs1"])
        return txn_id

    media.run(phase1())
    host.crash()
    result = media.run(restart_and_resolve(host))
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
        yield from host.decide(session.session, ["fs1"])
        return txn_id

    media.run(phase1())
    dlfm.crash()

    def root():
        host.poll()
        yield Timeout(20)   # DLFM stays down for a while
        dlfm.restart()
        result = yield from host.poller.join()
        return result

    result = media.run(root())
    assert result["committed"] == 1
    assert dlfm.linked_count() == 1


# --------------------------------------------------------------------------
# Phase 2 is applied, not forced: the window between the lazy COMMIT and
# the next force of the DLFM's log.

def _media_with_plan(*rules):
    """The ``media`` deployment with a fault plan, injection off."""
    system = System(seed=7, injector=FaultInjector(FaultPlan(list(rules))))
    system.injector.enabled = False

    def setup():
        for i in range(5):
            system.create_user_file("fs1", f"/v/clip{i}.mpg", owner="alice",
                                    content=f"VIDEO-{i}" * 20)
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("title", "TEXT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})

    system.run(setup())
    run_until_durable(system)
    return system


def test_crash_before_phase2_is_durable_redrives_commit_from_the_decision():
    """The DLFM acknowledges phase 2 ("applied") and dies at the next
    force — the copy daemon's pass, hardening the idle log — before the
    COMMIT is durable. The handle fails, the host keeps its decision and
    its in-doubt poller re-drives Commit once the DLFM is back: the file
    ends linked once, taken over, archived from one queue entry."""
    system = _media_with_plan(FaultRule("wal.unforced:dlfm-fs1", "crash"))
    host, dlfm = system.host, system.dlfms["fs1"]

    def link():
        session = system.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        return session.txn_id

    system.injector.enabled = True
    system.run(link())
    assert dlfm.db.table_rows("dfm_txn") == []          # applied
    txn_id = next(iter(host.pending_decisions()))       # not forgotten
    system.sim.run(until=system.sim.now + 10.0, raise_failures=False)
    system.sim.consume_failures()
    assert [c["point"] for c in system.injector.crashes] == [
        "wal.unforced:dlfm-fs1"]
    assert host.pending_decisions() == {txn_id: ("fs1",)}
    dlfm.restart()
    [row] = dlfm.db.table_rows("dfm_txn")               # in doubt again
    assert row[1] == txn_id and row[2] == "prepared"
    run_until_durable(system)
    assert host.pending_decisions() == {}
    assert dlfm.linked_count() == 1
    assert system.servers["fs1"].fs.stat("/v/clip0.mpg").owner == DLFM_ADMIN
    assert len(dlfm.db.table_rows("dfm_archive")) <= 1
    system.sim.run(until=system.sim.now + 30.0)         # the copy daemon
    assert dlfm.db.table_rows("dfm_archive") == []
    assert dlfm.metrics.files_archived == 1
    assert check_invariants(system) == []


def test_a_lost_phase2_abort_resolves_to_abort_again(media):
    """A phase-2 Abort commits lazily too, and its reply carries no
    handle: a crash that loses it leaves the transaction prepared with
    no host decision, and presumed abort aborts it again."""
    host, dlfm = media.host, media.dlfms["fs1"]
    run_until_durable(media)

    def prepare_then_abort():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.prepare_participants()
        yield from session.rollback()

    media.run(prepare_then_abort())
    assert dlfm.db.table_rows("dfm_txn") == []
    dlfm.crash()
    dlfm.restart()
    assert len(dlfm.db.table_rows("dfm_txn")) == 1 and dlfm.linked_count() == 1
    assert host.pending_decisions() == {}

    def resolve():
        from repro.host.indoubt import resolve_indoubts
        return (yield from resolve_indoubts(host))

    assert media.run(resolve()) == {"committed": 0, "aborted": 1}
    assert dlfm.db.table_rows("dfm_txn") == [] and dlfm.linked_count() == 0
    media.sim.run(until=media.sim.now + 10.0)
    assert check_invariants(media) == []


def test_resolution_beside_live_traffic_leaves_phase_one_alone(media):
    """The poller's pass runs beside live traffic: a transaction that is
    prepared at the DLFM while its coordinator is still in phase 1 has
    no decision yet, but it is not an orphan — presumed abort must not
    touch it."""
    from repro.host.indoubt import resolve_indoubts
    host, dlfm = media.host, media.dlfms["fs1"]

    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        result = yield from resolve_indoubts(host)
        yield from session.commit_decided(writers)
        return result

    assert media.run(go())["aborted"] == 0
    assert dlfm.linked_count() == 1
    run_until_durable(media)
    assert host.pending_decisions() == {}


def test_resolution_leaves_a_decision_whose_commit_record_is_not_forced(
        media, monkeypatch):
    """A decision exists once its COMMIT record is durable, not once it
    is appended: a pass that runs while the record waits for its log
    force must neither re-drive the Commit nor presume-abort the
    transaction, whose coordinator is about to send phase 2 itself."""
    from repro.host.indoubt import resolve_indoubts
    from repro.kernel.sim import Event
    host, dlfm = media.host, media.dlfms["fs1"]
    gate = Event(media.sim, latch=True, name="held-force")
    force_wal = host.db._force_wal

    def held(lsn, txn, record):
        yield gate.wait()
        yield from force_wal(lsn, txn, record)

    monkeypatch.setattr(host.db, "_force_wal", held)

    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        deciding = media.sim.spawn(session.commit_decided(writers), "decide")
        yield Timeout(1.0)
        assert host.db.wal.decisions and host.pending_decisions() == {}
        result = yield from resolve_indoubts(host)
        gate.trigger(None)
        yield from deciding.join()
        return result

    assert media.run(go()) == {"committed": 0, "aborted": 0}
    assert host.metrics.indoubt_commits == 0
    assert dlfm.linked_count() == 1
    run_until_durable(media)
    assert host.pending_decisions() == {}


def test_resolution_refuses_to_run_on_a_crashed_host(media):
    """A crashed host has no decisions in memory: a pass then would
    presume-abort a transaction whose decision is durable in its log."""
    from repro.errors import CrashedError
    from repro.host.indoubt import resolve_indoubts
    host, dlfm = media.host, media.dlfms["fs1"]

    def decide():
        session = media.session()
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        yield from host.decide(session.session, writers)

    media.run(decide())
    host.crash()
    with pytest.raises(CrashedError):
        media.run(resolve_indoubts(host))
    assert len(dlfm.db.table_rows("dfm_txn")) == 1
    assert media.run(restart_and_resolve(host))["aborted"] == 0
    assert dlfm.linked_count() == 1


# --------------------------------------------------------------------------
# The host finishes every phase 2 it starts: whatever the coordinator
# leaves unfinished goes to its in-doubt poller, with no host restart and
# no pass run by hand.

def test_a_live_host_redrives_a_phase2_a_participant_crash_lost(media):
    """fs1 dies between the phases: phase 2 fails, the application rolls
    back, fs1 comes back. The host stayed up, and its poller re-drives
    the Commit from the decision within a few poll periods."""
    from repro.host.indoubt import POLL_PERIOD
    host, dlfm = media.host, media.dlfms["fs1"]
    session = media.session()

    def prepare():
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        return writers

    writers = media.run(prepare())
    txn_id = session.txn_id
    dlfm.crash()

    def commit_then_rollback():
        with pytest.raises(TwoPCProtocolError):
            yield from session.commit_decided(writers)
        yield from session.rollback()

    media.run(commit_then_rollback())
    dlfm.restart()
    assert host.decision_rows() == [(txn_id, "fs1")]
    run_until_durable(media, limit=4 * POLL_PERIOD)
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 1
    assert host.db.metrics.recoveries == 0


def test_the_poller_gives_up_on_a_reply_a_partition_dropped():
    """The poller's first pass sends its Commit and a partition drops
    the reply. The pass waits for it at most one poll period, fails,
    and the next pass finds phase 2 done and forgets the decision."""
    from repro.host.indoubt import POLL_PERIOD
    system = _media_with_plan(FaultRule("rpc.reply:dlfm-agent", "partition"))
    host, dlfm = system.host, system.dlfms["fs1"]

    def decide():
        session = system.session()
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        yield from host.decide(session.session, writers)

    system.run(decide())
    system.injector.enabled = True
    host.poll()
    run_until_durable(system, limit=4 * POLL_PERIOD)
    assert [f["point"] for f in system.injector.fired] == [
        "rpc.reply:dlfm-agent"]
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 1


def test_a_hand_off_during_a_pass_gets_a_pass_of_its_own():
    """A decision handed to the poller while its pass runs (each
    request to a DLFM agent delayed 1 s) is not in that pass's snapshot:
    the poller passes once more before it stops, so the decision is
    still re-driven and forgotten."""
    from repro.host.indoubt import POLL_PERIOD
    system = _media_with_plan(FaultRule("channel.send:dlfm-agent", "delay",
                                        delay=1.0, max_fires=None))
    host, dlfm = system.host, system.dlfms["fs1"]

    def prepared(i):
        session = system.session()
        yield from insert_clip(session, i)
        writers, _ = yield from session.prepare_participants()
        return session, writers

    def root():
        first, writers = yield from prepared(0)
        yield from host.decide(first.session, writers)
        late, writers = yield from prepared(1)
        system.injector.enabled = True
        host.poll()
        yield Timeout(0.5)          # the pass has read the one decision
        yield from host.decide(late.session, writers)
        assert not host.poller.finished
        host.poll()                 # as if the late phase 2 had failed

    system.run(root())
    run_until_durable(system, limit=4 * POLL_PERIOD)
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 2


# --------------------------------------------------------------------------
# One poller per host: restart hands it the whole in-doubt pass and
# returns, it runs one pass at a time, and a host crash ends it.

def test_a_host_restarted_before_its_dlfm_hands_the_dlfm_to_its_poller(media):
    """§3.3: "if DLFM is unavailable at restart, host database spawns a
    daemon whose sole purpose is to poll the DLFM". A link is prepared
    at fs1 with no decision; host and fs1 crash, and the host comes back
    first. Its restart hands the pass to the poller at once; the pass
    fails on fs1, and the poller aborts the link (presumed abort) once
    fs1 is back."""
    from repro.host.indoubt import POLL_PERIOD
    host, dlfm = media.host, media.dlfms["fs1"]
    run_until_durable(media)        # setup's decisions are forgotten

    def prepare():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.prepare_participants()

    media.run(prepare())
    host.db.wal.force()             # ... and their FORGET records kept
    host.crash()
    dlfm.crash()
    restarted_at = media.sim.now
    poller = media.run(host.restart())
    assert media.sim.now == restarted_at and poller is host.poller
    media.sim.run(until=media.sim.now + POLL_PERIOD)
    assert not poller.finished          # fs1 is down: the pass failed
    dlfm.restart()
    media.sim.run(until=media.sim.now + 4 * POLL_PERIOD,
                  stop_when=lambda: not dlfm.db.table_rows("dfm_txn"))
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 0


def _count_passes(monkeypatch, sim):
    """Wrap the resolution pass: returns a record of the passes in
    flight now and at most, and of the process that ran each one."""
    from repro.host import indoubt
    real = indoubt.resolve_indoubts
    passes = {"now": 0, "most": 0, "by": []}

    def counted(host):
        passes["by"].append(sim._current_proc)
        passes["now"] += 1
        passes["most"] = max(passes["most"], passes["now"])
        try:
            return (yield from real(host))
        finally:
            passes["now"] -= 1

    monkeypatch.setattr(indoubt, "resolve_indoubts", counted)
    return passes


def test_the_host_runs_one_resolution_pass_at_a_time(monkeypatch):
    """fs1 and fs2 are both down across one phase 2, so both Commits
    fail and both are handed over. Every pass covers every server, and
    the host runs one at a time: one poller, not one per server."""
    from repro.host.indoubt import POLL_PERIOD
    system = System(seed=7, servers=("fs1", "fs2"))
    host = system.host
    passes = _count_passes(monkeypatch, system.sim)

    def setup():
        for server in ("fs1", "fs2"):
            system.create_user_file(server, "/v/clip0.mpg", owner="alice")
        yield from host.create_datalink_table(
            "clips", [("id", "INT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})

    system.run(setup())
    run_until_durable(system)
    session = system.session()

    def prepare():
        for i, server in enumerate(("fs1", "fs2")):
            yield from session.execute(
                "INSERT INTO clips (id, video) VALUES (?, ?)",
                (i, url(0, server)))
        writers, _ = yield from session.prepare_participants()
        return writers

    writers = system.run(prepare())
    assert writers == ["fs1", "fs2"]
    for dlfm in system.dlfms.values():
        dlfm.crash()

    def commit_then_rollback():
        with pytest.raises(TwoPCProtocolError):
            yield from session.commit_decided(writers)
        yield from session.rollback()
        yield Timeout(2 * POLL_PERIOD)      # passes fail while both are down

    system.run(commit_then_rollback())
    for dlfm in system.dlfms.values():
        dlfm.restart()
    run_until_durable(system, limit=4 * POLL_PERIOD)
    assert host.pending_decisions() == {}
    assert passes["most"] == 1 and len(passes["by"]) >= 2
    for dlfm in system.dlfms.values():
        assert dlfm.db.table_rows("dfm_txn") == []
        assert dlfm.linked_count() == 1


def test_a_host_crash_during_its_restart_pass_ends_the_old_poller(
        monkeypatch):
    """A live host hands a lost phase 2 to its poller. The host crashes
    (the poller with it), restarts, and crashes again while the new
    poller's first pass waits on a Commit reply (each request to a DLFM
    agent is delayed 1 s): that crash kills the pass. The second
    restart's poller re-drives the decision; neither earlier poller runs
    another pass, and the deployment checks clean."""
    system = _media_with_plan(FaultRule("channel.send:dlfm-agent", "delay",
                                        delay=1.0, max_fires=None))
    host, dlfm = system.host, system.dlfms["fs1"]
    passes = _count_passes(monkeypatch, system.sim)
    session = system.session()

    def prepare():
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        return writers

    writers = system.run(prepare())
    dlfm.crash()

    def commit_then_rollback():
        with pytest.raises(TwoPCProtocolError):
            yield from session.commit_decided(writers)
        yield from session.rollback()
        yield Timeout(1)                    # its first pass fails

    system.run(commit_then_rollback())
    first = host.poller
    assert first in passes["by"] and not first.finished
    dlfm.restart()
    host.crash()
    crashed_at = len(passes["by"])
    system.injector.enabled = True

    def restart_twice():
        killed = yield from host.restart()
        yield Timeout(0.5)                  # the Commit is on its way
        host.crash()
        assert host.poller is None          # the pass died with its host
        yield from host.restart()
        return killed

    killed = system.run(restart_twice())
    system.injector.enabled = False
    run_until_durable(system)
    system.sim.run(until=system.sim.now + 60)   # the Copy daemon archives
    assert first not in passes["by"][crashed_at:]
    assert passes["by"][crashed_at:].count(killed) == 1
    assert not killed.finished
    assert passes["most"] == 1
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 1
    assert check_invariants(system) == []


def test_a_restart_pass_ends_with_its_host_incarnation(monkeypatch):
    """Restart 1's poller pass waits on its Commit reply (each request
    to a DLFM agent is delayed 1 s) when the host crashes, 0.5 s in, and
    restarts again 0.1 s later. The crash kills that pass and it hands
    nothing on; only restart 2's poller asks the DLFM for its in-doubt
    list, once — never two passes in one incarnation."""
    from repro.host import indoubt
    system = _media_with_plan(FaultRule("channel.send:dlfm-agent", "delay",
                                        delay=1.0, max_fires=None))
    host, dlfm, sim = system.host, system.dlfms["fs1"], system.sim
    session = system.session()

    def prepare():
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        return writers

    writers = system.run(prepare())
    dlfm.crash()

    def commit_then_rollback():
        with pytest.raises(TwoPCProtocolError):
            yield from session.commit_decided(writers)
        yield from session.rollback()

    system.run(commit_then_rollback())
    host.crash()
    dlfm.restart()
    assert len(host.db.wal.decisions) == 1

    listers: dict = {}                  # incarnation → passes that listed
    real_gather_all = indoubt.rpc.gather_all

    def gather_all(sim_, gens, **kwargs):
        if kwargs.get("name") == "indoubt-list":
            listers.setdefault(host.db.metrics.recoveries, set()).add(
                sim._current_proc)
        return (yield from real_gather_all(sim_, gens, **kwargs))

    monkeypatch.setattr(indoubt.rpc, "gather_all", gather_all)
    system.injector.enabled = True

    def crash_then_restart():
        first = yield from host.restart()
        yield Timeout(0.5)                  # the Commit is on its way
        host.crash()
        yield Timeout(0.1)
        handed_on = host.poller
        second = yield from host.restart()
        outcome = yield from second.join()
        return first, handed_on, second, outcome

    first, handed_on, second, outcome = system.run(crash_then_restart())
    system.injector.enabled = False
    assert handed_on is None and not first.finished
    assert outcome == {"committed": 1, "aborted": 0}
    assert listers == {host.db.metrics.recoveries: {second}}
    run_until_durable(system)
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 1


def test_new_transactions_commit_beside_the_restart_pass():
    """Instant restart: one decision is pending on fs1 when the host
    crashes, and its re-driven Commit is delayed 1 s. restart() returns
    at the crash instant, and a new one-link transaction commits while
    the poller's pass still waits on that Commit."""
    system = _media_with_plan(FaultRule("channel.send:dlfm-agent", "delay",
                                        delay=1.0))
    host, dlfm, sim = system.host, system.dlfms["fs1"], system.sim

    def decide():
        session = system.session()
        yield from insert_clip(session, 0)
        writers, _ = yield from session.prepare_participants()
        yield from host.decide(session.session, writers)

    system.run(decide())
    host.crash()
    assert len(host.db.wal.decisions) == 1
    crashed_at = sim.now
    system.injector.enabled = True

    def restart_then_commit():
        poller = yield from host.restart()
        assert sim.now == crashed_at
        yield Timeout(0.1)              # the re-driven Commit is on its way
        session = system.session()
        yield from insert_clip(session, 1)
        yield from session.commit()
        return poller

    poller = system.run(restart_then_commit())
    assert [f["point"] for f in system.injector.fired] == [
        "channel.send:dlfm-agent"]
    assert not poller.finished          # its Commit is still delayed
    assert sim.now < crashed_at + 1.0
    system.injector.enabled = False
    assert system.run(poller.join()) == {"committed": 1, "aborted": 0}
    run_until_durable(system)
    assert host.pending_decisions() == {}
    assert dlfm.db.table_rows("dfm_txn") == []
    assert dlfm.linked_count() == 2
