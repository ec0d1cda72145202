"""XA global transactions (§3.3): local txn id ≠ global id; host is both
participant (to the TM) and coordinator (of its DLFMs)."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.chaos.invariants import check_invariants
from repro.errors import CrashedError, DataLinkError, TransactionAborted
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.host.xa import xa_commit, xa_prepare, xa_recover, xa_rollback
from repro.shard import ShardedSystem
from repro.system import System
from tests.conftest import (restart_and_resolve, run_until_durable,
                            run_until_polled)


@pytest.fixture
def xa_system():
    system = System(seed=61, servers=("fs1", "fs2"))

    def setup():
        yield from system.host.create_datalink_table(
            "gt", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in ("fs1", "fs2"):
            for i in range(3):
                system.create_user_file(server, f"/g/f{i}", owner="u")

    system.run(setup())
    return system


def start_branch(system, session, ids=((1, "fs1", 0), (2, "fs2", 0))):
    for row_id, server, file_index in ids:
        yield from session.execute(
            "INSERT INTO gt (id, doc) VALUES (?, ?)",
            (row_id, build_url(server, f"/g/f{file_index}")))


def count_rows(system):
    def go():
        session = system.host.db.session()
        result = yield from session.execute("SELECT COUNT(*) FROM gt")
        yield from session.commit()
        return result.scalar()
    return system.run(go())


def test_local_txn_id_differs_from_gtrid(xa_system):
    def go():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        prepared = yield from xa_prepare(session, "gtrid-ABC-001")
        decision = yield from xa_commit(xa_system.host, "gtrid-ABC-001")
        return prepared, decision

    prepared, decision = xa_system.run(go())
    assert isinstance(prepared.txn_id, int)  # the paper's point: an integer
    assert prepared.txn_id != "gtrid-ABC-001"  # distinct from the global id
    assert prepared.vote == "commit"
    assert prepared.readonly_servers == ()
    assert decision["txn_id"] == prepared.txn_id
    assert sorted(decision["servers"]) == ["fs1", "fs2"]
    assert decision["readonly"] == ()
    assert xa_system.dlfms["fs1"].linked_count() == 1
    assert xa_system.dlfms["fs2"].linked_count() == 1
    assert count_rows(xa_system) == 2


def test_xa_rollback_undoes_both_sides(xa_system):
    def go():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        yield from xa_prepare(session, "g2")
        yield from xa_rollback(xa_system.host, "g2")

    xa_system.run(go())
    assert xa_system.dlfms["fs1"].linked_count() == 0
    assert xa_system.dlfms["fs2"].linked_count() == 0
    assert count_rows(xa_system) == 0
    assert xa_recover(xa_system.host) == {}
    assert xa_system.host.db.indoubt_transactions() == []


def test_prepared_branch_survives_host_crash_as_indoubt(xa_system):
    host = xa_system.host

    def phase1():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        return (yield from xa_prepare(session, "g3"))

    local_id = xa_system.run(phase1()).txn_id
    host.db.crash()
    summary = host.db.restart()
    assert summary["prepared"] == [local_id]

    assert xa_recover(host) == {"g3": {"txn_id": local_id, "readonly": ()}}
    xa_system.run(xa_commit(host, "g3"))
    assert xa_recover(host) == {}
    assert count_rows(xa_system) == 2
    assert xa_system.dlfms["fs1"].linked_count() == 1


def test_indoubt_branch_locks_block_other_readers(xa_system):
    """After restart the prepared branch's rows stay X-locked."""
    host = xa_system.host

    def phase1():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        yield from xa_prepare(session, "g4")

    xa_system.run(phase1())
    host.db.crash()
    host.db.restart()

    def try_read():
        from repro.errors import LockTimeoutError
        session = host.db.session()
        with pytest.raises(LockTimeoutError):
            yield from session.execute("SELECT * FROM gt", ())
        return True

    assert xa_system.run(try_read()) is True

    def decide():
        yield from xa_rollback(host, "g4")

    xa_system.run(decide())
    assert count_rows(xa_system) == 0


def test_host_crash_after_commit_decision_redrives_phase2():
    """The host dies inside xa_commit's phase-2 fan-out: the decision
    rode the local COMMIT record, so it is an ordinary host decision —
    host restart re-drives phase 2 from the WAL and nothing is left for
    the TM: the branch is no longer in doubt."""
    plan = FaultPlan([FaultRule("twopc.fanout:phase2", "crash",
                                prob=1.0, max_fires=1)], name="t")
    injector = FaultInjector(plan)
    injector.enabled = False
    system = _two_server_system(batch=False, injector=injector)
    host = system.host

    def commit_and_crash():
        session = system.session()
        yield from start_branch(system, session)
        yield from xa_prepare(session, "g5")
        injector.enabled = True
        with pytest.raises(CrashedError):
            yield from xa_commit(host, "g5")

    system.run(commit_and_crash())
    injector.enabled = False
    assert host.db.crashed
    system.sim.run(until=system.sim.now + 60.0)   # stray Commits land
    system.sim.consume_failures()
    resolved = system.run(restart_and_resolve(host), "host-restart")
    assert resolved["aborted"] == 0 and resolved["committed"] >= 2

    assert xa_recover(host) == {}
    assert system.dlfms["fs1"].linked_count() == 1
    assert system.dlfms["fs2"].linked_count() == 1
    assert host.decision_rows() == []
    assert check_invariants(system) == []


def test_host_restart_leaves_tm_owned_branch_in_doubt(xa_system):
    """Presumed abort must not touch a branch the host itself holds
    PREPARED: its outcome is the TM's, however long that takes."""
    host = xa_system.host

    def phase1():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        yield from xa_prepare(session, "g-held")

    xa_system.run(phase1())
    host.crash()
    resolved = xa_system.run(restart_and_resolve(host), "host-restart")
    assert resolved["aborted"] == 0

    def commit():
        yield from xa_commit(host, "g-held")

    xa_system.run(commit())
    assert xa_system.dlfms["fs1"].linked_count() == 1
    assert xa_system.dlfms["fs2"].linked_count() == 1
    assert count_rows(xa_system) == 2
    run_until_durable(xa_system)
    assert check_invariants(xa_system) == []


def test_dlfm_prepare_failure_rolls_back_global_branch(xa_system):
    def go():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        xa_system.dlfms["fs2"].crash()
        xa_system.dlfms["fs2"].restart()
        with pytest.raises(TransactionAborted):
            yield from xa_prepare(session, "g6")

    xa_system.run(go())
    assert xa_system.dlfms["fs1"].linked_count() == 0
    assert count_rows(xa_system) == 0
    assert xa_recover(xa_system.host) == {}
    assert xa_system.host.db.txns.active == []


def test_prepare_with_no_work_rejected(xa_system):
    def go():
        session = xa_system.session()
        with pytest.raises(DataLinkError):
            yield from xa_prepare(session, "empty")
        return True

    assert xa_system.run(go()) is True


def test_xa_readonly_branch_released_at_phase1(xa_system):
    """Every participant votes read-only and the local txn wrote nothing:
    the whole branch finishes at phase 1 (XA_RDONLY) — no PREPARE
    record, nothing for the TM to drive."""
    from repro.dlfm import api
    from repro.errors import LinkError
    host = xa_system.host

    def go():
        session = xa_system.session()
        # fs1 joins but its DLFM transaction writes nothing (the failed
        # link leaves no state) and the host session never writes.
        with pytest.raises(LinkError):
            yield from session.dlfm_call("fs1", api.LinkFile(
                host.dbid, session.begin(), "/g/missing",
                host.group_ids[("gt", "doc")], "r-ro-1"))
        return (yield from xa_prepare(session, "g-ro"))

    result = xa_system.run(go())
    assert result.vote == "read-only"
    assert result.readonly_servers == ("fs1",)
    assert host.metrics.readonly_branches == 1
    assert host.db.indoubt_transactions() == []
    assert xa_system.dlfms["fs1"].db.table_rows("dfm_txn") == []
    assert xa_recover(host) == {}  # nothing survives to resolve

    def commit_released():
        with pytest.raises(DataLinkError):
            yield from xa_commit(host, "g-ro")  # branch already finished
        return True

    assert xa_system.run(commit_released()) is True


def test_xa_local_read_only_branch_releases_locks(xa_system):
    """A SELECT-only branch votes read-only and its read locks drop at
    phase 1, so a writer is not blocked behind a finished branch."""
    host = xa_system.host

    def go():
        session = xa_system.session()
        yield from session.execute("SELECT COUNT(*) FROM gt")
        prepared = yield from xa_prepare(session, "g-local")
        assert prepared.vote == "read-only"
        # The branch is done: a writer must get the table immediately.
        writer = host.db.session()
        yield from writer.execute(
            "INSERT INTO gt (id, doc, doc__recid) VALUES (?, ?, ?)",
            (9, "plain", None))
        yield from writer.commit()
        return prepared

    prepared = xa_system.run(go())
    assert prepared.readonly_servers == ()
    assert count_rows(xa_system) == 1


def test_xa_mixed_readonly_participant_in_results(xa_system):
    """fs1 writes, fs2 joins read-only: the branch votes commit but the
    TM sees fs2 released at phase 1 in prepare/recover/commit results."""
    from repro.errors import LinkError
    host = xa_system.host

    def go():
        session = xa_system.session()
        yield from start_branch(xa_system, session, ids=((1, "fs1", 0),))
        with pytest.raises(LinkError):
            yield from session.execute(
                "INSERT INTO gt (id, doc) VALUES (?, ?)",
                (2, build_url("fs2", "/g/missing")))
        prepared = yield from xa_prepare(session, "g-mix")
        status = xa_recover(host)
        decision = yield from xa_commit(host, "g-mix")
        return prepared, status, decision

    prepared, status, decision = xa_system.run(go())
    assert prepared.vote == "commit"
    assert prepared.readonly_servers == ("fs2",)
    assert status == {"g-mix": {"txn_id": prepared.txn_id,
                                "readonly": ("fs2",)}}
    assert decision["servers"] == ("fs1",)  # fs2 pruned from phase 2
    assert decision["readonly"] == ("fs2",)
    assert host.metrics.readonly_votes == 1
    assert xa_system.dlfms["fs1"].linked_count() == 1
    assert xa_recover(host) == {}


def test_unknown_gtrid_rejected(xa_system):
    def go():
        with pytest.raises(DataLinkError):
            yield from xa_commit(xa_system.host, "nope")
        return True

    assert xa_system.run(go()) is True


# ---------------------------------------------------------------- batching hosts

def _two_server_system(batch=True, injector=None):
    system = System(seed=61, servers=("fs1", "fs2"), injector=injector,
                    host_config=HostConfig(batch_datalinks=batch))
    _create_gt(system, ("fs1", "fs2"))
    return system


def _fleet():
    system = ShardedSystem(seed=61, shards=2)   # batches by default
    _create_gt(system, ("fs1",))
    return system


def _create_gt(system, file_servers):
    def setup():
        yield from system.host.create_datalink_table(
            "gt", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in file_servers:
            for i in range(3):
                system.create_user_file(server, f"/g/f{i}", owner="u")

    system.run(setup())


def _linked(system):
    return sum(dlfm.linked_count() for dlfm in system.dlfms.values())


@pytest.mark.parametrize("make", [_two_server_system, _fleet])
def test_xa_commit_on_a_batching_host_links_the_buffered_files(make):
    """With batch_datalinks the branch's links sit in the session buffer
    until phase 1: xa_prepare must ship them (Batch + Prepare), or
    xa_commit commits host rows whose files were never linked."""
    system = make()
    assert system.host.config.batch_datalinks
    ids = ((1, "fs1", 0), (2, sorted(system.servers)[-1], 1))

    def go():
        session = system.session()
        yield from start_branch(system, session, ids=ids)
        prepared = yield from xa_prepare(session, "g-batch")
        assert prepared.vote == "commit"
        assert _linked(system) == 2   # hardened at prepare
        return (yield from xa_commit(system.host, "g-batch"))

    decision = system.run(go())
    assert decision["servers"]
    assert _linked(system) == 2
    assert count_rows(system) == 2
    assert xa_recover(system.host) == {}
    run_until_durable(system)
    assert system.host.decision_rows() == []
    assert check_invariants(system) == []


@pytest.mark.parametrize("make", [_two_server_system, _fleet])
def test_xa_rollback_on_a_batching_host_unlinks_everything(make):
    system = make()
    ids = ((1, "fs1", 0), (2, sorted(system.servers)[-1], 1))

    def go():
        session = system.session()
        yield from start_branch(system, session, ids=ids)
        yield from xa_prepare(session, "g-batch")
        assert _linked(system) == 2
        yield from xa_rollback(system.host, "g-batch")

    system.run(go())
    assert _linked(system) == 0
    assert count_rows(system) == 0
    assert xa_recover(system.host) == {}
    assert check_invariants(system) == []


# ---------------------------------------------------------------- one store: the PREPARE record

def test_host_crash_at_the_prepare_force_leaves_no_branch():
    """The host dies with the PREPARE record appended but not durable,
    and fs2 is down while it restarts. The branch was never prepared, so
    there is nothing for the TM to find — and above all nothing to
    COMMIT: the rolled-back host rows must not get their files linked
    (a registration forced ahead of the PREPARE once reported this
    branch commit-pending and sent Commit for it)."""
    plan = FaultPlan([FaultRule("wal.force.before:host-*", "crash")],
                     name="t")
    injector = FaultInjector(plan)
    injector.enabled = False
    system = _two_server_system(batch=False, injector=injector)
    host = system.host
    prepare = host.db.prepare

    def armed_prepare(txn, **kwargs):
        injector.enabled = True     # the next host log force is PREPARE's
        return prepare(txn, **kwargs)

    host.db.prepare = armed_prepare

    def branch():
        session = system.session()
        yield from start_branch(system, session)
        with pytest.raises(CrashedError):
            yield from xa_prepare(session, "g-hole")

    system.run(branch())
    injector.enabled = False
    assert host.db.crashed and len(injector.crashes) == 1
    system.dlfms["fs2"].crash()

    system.run(host.restart(), "host-restart")
    system.sim.run(until=system.sim.now + 1.0)
    assert not host.poller.finished        # its pass failed on fs2
    system.dlfms["fs2"].restart()
    assert xa_recover(host) == {}          # the TM's recovery scan
    run_until_polled(system)
    assert host.poller.finished
    assert _linked(system) == 0
    assert count_rows(system) == 0
    assert check_invariants(system) == []


def test_a_branch_costs_two_host_log_forces(xa_system):
    """One force for PREPARE (the branch rides on it), one for the
    verdict's COMMIT (the 2PC decision rides on that)."""
    host = xa_system.host
    forces = host.db.wal.metrics.forces

    def phase1():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        yield from xa_prepare(session, "g-forces")

    xa_system.run(phase1())
    assert host.db.wal.metrics.forces - forces == 1
    xa_system.run(xa_commit(host, "g-forces"))
    assert host.db.wal.metrics.forces - forces == 2
    assert not [t for t in host.db.catalog.tables if t.startswith("xa")]


def test_readonly_voters_survive_a_host_restart(xa_system):
    """They ride the PREPARE payload with the rest of the branch."""
    from repro.errors import LinkError
    host = xa_system.host

    def phase1():
        session = xa_system.session()
        yield from start_branch(xa_system, session, ids=((1, "fs1", 0),))
        with pytest.raises(LinkError):
            yield from session.execute(
                "INSERT INTO gt (id, doc) VALUES (?, ?)",
                (2, build_url("fs2", "/g/missing")))
        return (yield from xa_prepare(session, "g-ro-restart"))

    prepared = xa_system.run(phase1())
    host.crash()
    xa_system.run(host.restart(), "host-restart")
    assert xa_recover(host) == {"g-ro-restart": {
        "txn_id": prepared.txn_id, "readonly": ("fs2",)}}
    decision = xa_system.run(xa_commit(host, "g-ro-restart"))
    assert decision == {"txn_id": prepared.txn_id, "servers": ("fs1",),
                        "readonly": ("fs2",)}
    assert xa_system.dlfms["fs1"].linked_count() == 1
    run_until_durable(xa_system)
    assert check_invariants(xa_system) == []


@pytest.mark.parametrize("drained", [True, False])
def test_branch_prepared_before_a_fuzzy_checkpoint_is_found_after_a_crash(
        drained):
    """The checkpoint's transaction table carries the prepared
    transaction's last LSN — its PREPARE record — so restart finds the
    payload behind the checkpoint, whether or not the restart's drain
    has replayed the host's cold pages yet."""
    system = System(seed=61, servers=("fs1", "fs2"))
    _create_gt(system, ("fs1", "fs2"))
    host = system.host

    def go():
        session = system.session()
        yield from start_branch(system, session)
        prepared = yield from xa_prepare(session, "g-ckpt")
        other = host.db.session()    # open across the checkpoint: fuzzy
        yield from other.execute("CREATE TABLE side (k INT)")
        yield from other.execute("INSERT INTO side (k) VALUES (1)")
        host.db.checkpoint()
        yield from other.commit()
        return prepared

    prepared = system.run(go())
    host.crash()
    system.run(host.restart(), "host-restart")
    if drained:
        system.sim.run(stop_when=lambda: not host.db.replay_pending)
    assert xa_recover(host) == {"g-ckpt": {"txn_id": prepared.txn_id,
                                           "readonly": ()}}
    decision = system.run(xa_commit(host, "g-ckpt"))
    assert decision["servers"] == ("fs1", "fs2")
    assert count_rows(system) == 2 and _linked(system) == 2
    run_until_durable(system)
    assert check_invariants(system) == []


def test_rollback_taken_back_by_a_crash_leaves_a_branch_the_tm_can_find(
        xa_system):
    """A rollback forces nothing (presumed abort): a host crash before
    the next log force takes the ABORT record back and restart
    resurrects the branch PREPARED. It must then be in ``xa_recover``
    again, payload and all, so the TM — which has forgotten it — can
    presume abort and roll it back once more. (The chaos ``xa`` op
    walked into this; the old registration table's forced DELETE used to
    harden the ABORT record as a side effect.)"""
    host = xa_system.host

    def go():
        session = xa_system.session()
        yield from start_branch(xa_system, session)
        prepared = yield from xa_prepare(session, "g-again")
        yield from xa_rollback(host, "g-again")
        return prepared

    prepared = xa_system.run(go())
    assert xa_recover(host) == {}
    host.crash()
    xa_system.run(host.restart(), "host-restart")
    assert [txn.id for txn in host.db.indoubt_transactions()] \
        == [prepared.txn_id]
    assert xa_recover(host) == {"g-again": {"txn_id": prepared.txn_id,
                                            "readonly": ()}}
    xa_system.run(xa_rollback(host, "g-again"))
    assert host.db.txns.active == [] and host.db.locks.total_locks == 0
    assert count_rows(xa_system) == 0 and _linked(xa_system) == 0
    assert check_invariants(xa_system) == []
