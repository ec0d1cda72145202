"""The 2PC coordinator: parallel fan-out, read-only votes, crash windows.

The coordinator prepares and commits its participants concurrently; one
no-vote aborts everyone including already-prepared participants (§3.3).
A DLFM whose local transaction wrote nothing votes read-only at Prepare,
is released at end of phase 1, and gets no decision entry and no phase-2
Commit. The decision itself rides the host's COMMIT record, so a host
crash after that record is forced re-drives phase 2 from the WAL.
"""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.chaos.invariants import check_invariants
from repro.errors import CrashedError, LinkError, TransactionAborted
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.host.hostdb import HostDB
from repro.kernel import Timeout
from repro.sql.parser import parse as parse_sql
from repro.system import System
from tests.conftest import restart_and_resolve, run_until_durable


def _make(servers=("fs1", "fs2", "fs3"), injector=None, **host_kwargs):
    system = System(seed=11, servers=servers,
                    host_config=HostConfig(**host_kwargs),
                    injector=injector)

    def setup():
        yield from system.host.create_datalink_table(
            "spread", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in servers:
            for i in range(4):
                system.create_user_file(server, f"/s/f{i}", owner="u")

    if injector is not None:
        injector.enabled = False  # keep faults out of the fixture setup
    system.run(setup())
    run_until_durable(system)   # the fixture's DDL decision forgotten
    if injector is not None:
        injector.enabled = True
    return system


def _link(session, row_id, server, path="/s/f0"):
    yield from session.execute(
        "INSERT INTO spread (id, doc) VALUES (?, ?)",
        (row_id, build_url(server, path)))


def _touch_readonly(session, row_id, server):
    """Make ``server`` a participant whose local txn wrote nothing: the
    failed link's statement backout leaves no DLFM state behind."""
    with pytest.raises(LinkError):
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (row_id, build_url(server, "/s/does-not-exist")))


def test_readonly_participant_skips_phase2(monkeypatch):
    """fs2 joins the transaction but writes nothing: it votes read-only,
    gets no decision entry and no phase-2 Commit RPC."""
    system = _make()
    decision_rows = {}
    orig = HostDB.forget_decision

    def spy(self, txn_id):
        # Capture the live decisions the instant before phase 2 forgets
        # them.
        decision_rows["rows"] = self.decision_rows()
        orig(self, txn_id)

    monkeypatch.setattr(HostDB, "forget_decision", spy)
    fs1, fs2 = system.dlfms["fs1"], system.dlfms["fs2"]
    rpcs_before = {}

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        assert sorted(session.participants) == ["fs1", "fs2"]
        rpcs_before["fs1"] = fs1.metrics.rpcs
        rpcs_before["fs2"] = fs2.metrics.rpcs
        yield from session.commit()

    system.run(go())
    run_until_durable(system)
    txn_id = decision_rows["rows"][0][0]
    assert decision_rows["rows"] == [(txn_id, "fs1")]  # no fs2 entry
    # fs1 saw Prepare + Commit; fs2 saw ONLY Prepare.
    assert fs1.metrics.rpcs - rpcs_before["fs1"] == 2
    assert fs2.metrics.rpcs - rpcs_before["fs2"] == 1
    assert fs1.metrics.readonly_votes == 0
    assert fs2.metrics.readonly_votes == 1
    assert system.host.metrics.readonly_votes == 1
    assert fs2.db.table_rows("dfm_txn") == []  # never went in doubt
    assert fs1.linked_count() == 1
    assert system.host.decision_rows() == []


def test_all_readonly_transaction_has_no_phase2_at_all():
    system = _make(servers=("fs1", "fs2"))
    fs1, fs2 = system.dlfms["fs1"], system.dlfms["fs2"]
    commits_before = system.host.metrics.commits

    def go():
        session = system.session()
        yield from _touch_readonly(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        yield from session.commit()

    system.run(go())
    assert system.host.metrics.readonly_votes == 2
    assert fs1.metrics.readonly_votes == 1
    assert fs2.metrics.readonly_votes == 1
    assert system.host.decision_rows() == []
    assert fs1.db.table_rows("dfm_txn") == []
    assert fs2.db.table_rows("dfm_txn") == []
    assert system.host.metrics.commits - commits_before == 1


def test_no_vote_aborts_already_prepared_participants():
    """Three participants fan out in parallel; fs3 is dead, so its
    prepare fails while fs1/fs2 may already have prepared — everyone
    must abort (§3.3)."""
    system = _make()

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        yield from _link(session, 3, "fs3")
        system.dlfms["fs3"].crash()
        system.dlfms["fs3"].restart()
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    for name in ("fs1", "fs2", "fs3"):
        assert system.dlfms[name].linked_count() == 0
        assert system.dlfms[name].db.table_rows("dfm_txn") == []
    assert system.host.decision_rows() == []
    assert system.host.metrics.prepare_failures == 1


def test_host_crash_between_parallel_prepares_leaves_only_indoubt():
    """The coordinator dies inside the scatter→gather window of phase 1:
    the in-flight prepares finish server-side, so every participant ends
    in doubt (a dfm_txn row, no open local transaction) and presumed
    abort mops up after restart."""
    plan = FaultPlan([FaultRule("twopc.fanout:prepare", "crash",
                                prob=1.0, max_fires=1)], name="t")
    system = _make(servers=("fs1", "fs2"),
                   injector=FaultInjector(plan))

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    assert system.host.db.crashed
    system.sim.run(until=system.sim.now + 60.0)  # drain detached prepares
    assert system.sim.consume_failures() == []
    for name in ("fs1", "fs2"):
        dlfm = system.dlfms[name]
        # In doubt, never dangling: prepared (dfm_txn row) with no open
        # local transaction left behind.
        assert len(dlfm.db.table_rows("dfm_txn")) == 1
        assert dlfm.db.txns.active == []
    # Restart runs distributed recovery: no decision was ever logged, so
    # presumed abort resolves both in-doubt participants. (The two
    # "committed" are the fixture's DDL decisions: their unforced FORGET
    # records died with the host, so Commit is re-sent and answered
    # already-finished.)
    resolved = system.run(restart_and_resolve(system.host), "host-restart")
    assert resolved == {"committed": 2, "aborted": 2}
    for name in ("fs1", "fs2"):
        assert system.dlfms[name].db.table_rows("dfm_txn") == []
        assert system.dlfms[name].linked_count() == 0


def test_indoubt_resolution_with_mixed_readonly_and_write_set():
    """Host dies in the phase-2 fan-out window: the write participant's
    decision re-drives Commit after restart; the read-only voter was
    already released and needs nothing."""
    plan = FaultPlan([FaultRule("twopc.fanout:phase2", "crash",
                                prob=1.0, max_fires=1)], name="t")
    system = _make(servers=("fs1", "fs2"),
                   injector=FaultInjector(plan))

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        # The decision is already durable when the crash hits phase 2,
        # so the failure surfaces as the crash itself, not an abort.
        with pytest.raises(CrashedError):
            yield from session.commit()

    system.run(go())
    assert system.host.db.crashed
    system.sim.run(until=system.sim.now + 60.0)
    system.sim.consume_failures()
    resolved = system.run(restart_and_resolve(system.host), "host-restart")
    assert resolved["aborted"] == 0
    assert resolved["committed"] == 1  # fs1's decision re-driven
    assert system.dlfms["fs1"].linked_count() == 1  # decision survived
    assert system.dlfms["fs2"].linked_count() == 0
    assert system.dlfms["fs2"].db.table_rows("dfm_txn") == []
    assert system.host.decision_rows() == []


def test_commit_then_rollback_durable_state():
    system = _make()

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        yield from _link(session, 3, "fs3")
        yield from session.commit()
        yield from _link(session, 4, "fs1", path="/s/f1")
        yield from session.rollback()

    system.run(go())
    run_until_durable(system)
    assert sorted((name, system.dlfms[name].linked_count())
                  for name in system.dlfms) == [
        ("fs1", 1), ("fs2", 1), ("fs3", 1)]
    assert system.host.metrics.commits == 2   # the fixture's DDL + ours
    assert system.host.metrics.rollbacks == 1
    assert system.host.decision_rows() == []


def test_host_crash_after_forced_commit_record_redrives_from_wal():
    """Default configuration, plain ``System()``: the host dies right
    after the COMMIT record (which carries the decision) is forced and
    before any phase-2 message. Restart finds the decision in the WAL
    and re-drives Commit; nothing was ever written to a decision table."""
    plan = FaultPlan([FaultRule("wal.force.after:host-hostdb", "crash",
                                prob=1.0, max_fires=1)], name="t")
    system = _make(servers=("fs1",), injector=FaultInjector(plan))
    fs1 = system.dlfms["fs1"]
    phase2_before = fs1.metrics.commits

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        with pytest.raises(CrashedError):
            yield from session.commit()
        # The application reacts with ROLLBACK: it must not abort what
        # may already be committed in the durable log.
        yield from session.rollback()

    system.run(go())
    assert system.host.db.crashed
    assert len(fs1.db.table_rows("dfm_txn")) == 1   # prepared, in doubt
    assert fs1.metrics.commits == phase2_before   # no phase-2 message yet
    resolved = system.run(restart_and_resolve(system.host), "host-restart")
    assert resolved == {"committed": 1, "aborted": 0}
    assert fs1.linked_count() == 1
    assert fs1.db.table_rows("dfm_txn") == []
    run_until_durable(system)
    assert system.host.decision_rows() == []
    assert check_invariants(system) == []


def test_host_crash_after_a_drops_commit_record_still_drops_the_table():
    """A datalink table's DROP is finished after the COMMIT record that
    decides it is forced. The host dying in between must not leave the
    table — and its rows naming files the re-driven Commit lets the
    Delete-Group daemon unlink — behind: restart finishes the drop the
    durable decision names."""
    plan = FaultPlan([FaultRule("wal.force.after:host-hostdb", "crash")],
                     name="t")
    injector = FaultInjector(plan)
    system = _make(servers=("fs1",), injector=injector)

    def link():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from session.commit()

    def drop():
        session = system.session()
        yield from session.drop_table("spread")
        with pytest.raises(CrashedError):
            yield from session.commit()

    def settle():
        yield Timeout(60.0)

    injector.enabled = False
    system.run(link())
    injector.enabled = True
    system.run(drop())
    assert system.host.db.crashed
    injector.enabled = False
    system.run(restart_and_resolve(system.host), "host-restart")
    system.run(settle())
    assert "spread" not in system.host.db.catalog.tables
    assert system.dlfms["fs1"].linked_count() == 0
    assert check_invariants(system) == []


def test_lost_forget_record_only_resends_an_idempotent_commit():
    """FORGET is appended unforced: a crash right after a fully
    acknowledged commit loses it, restart rediscovers the decision and
    re-sends Commit, which the DLFM answers as already finished."""
    system = _make(servers=("fs1",))
    fs1 = system.dlfms["fs1"]

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from session.commit()

    system.run(go())
    run_until_durable(system)
    assert system.host.decision_rows() == []
    assert fs1.linked_count() == 1
    system.host.crash()
    resolved = system.run(restart_and_resolve(system.host), "host-restart")
    assert resolved == {"committed": 1, "aborted": 0}
    assert fs1.linked_count() == 1
    assert system.host.decision_rows() == []
    assert check_invariants(system) == []


def test_an_unforgotten_decision_survives_checkpoints_and_a_host_crash():
    """The host's log may be truncated at a checkpoint only down to its
    oldest decision not yet FORGOTTEN: restart reads the participants
    back from that COMMIT record. Here phase 2 never ran, two checkpoints
    and a stream of plain commits pile up behind the decision, and the
    host crashes — restart must still re-drive Commit to fs1."""
    system = _make(servers=("fs1",))
    host, fs1 = system.host, system.dlfms["fs1"]
    session = system.session()

    def decide_without_phase2():
        yield from _link(session, 1, "fs1")
        writers, _ = yield from session.prepare_participants()
        yield from host.decide(session.session, writers)

    def plain_commits(first):
        plain = host.db.session()
        for k in range(first, first + 20):
            yield from plain.execute(f"INSERT INTO churn (k) VALUES ({k})")
            yield from plain.commit()
        host.db.checkpoint()

    system.run(decide_without_phase2())
    [(txn_id, server)] = host.decision_rows()
    assert server == "fs1"
    host.db.ddl(parse_sql("CREATE TABLE churn (k INT)"))
    system.run(plain_commits(0))
    system.run(plain_commits(20))
    assert host.db.wal.base == host.db.wal.decisions[txn_id] - 1
    session.close()
    host.crash()
    resolved = system.run(restart_and_resolve(host), "host-restart")
    assert resolved == {"committed": 1, "aborted": 0}
    assert fs1.linked_count() == 1
    run_until_durable(system)
    assert host.decision_rows() == []
    assert check_invariants(system) == []
