"""E10 — crash matrix: transactional guarantees across failures
(§3.3, §3.4, §3.5).

Each scenario crashes a component at a chosen point and verifies the
system converges to a consistent state after recovery:

  A  DLFM crash before prepare        → sub-transaction vanishes
  B  DLFM crash after prepare, host decided commit → link survives
  C  DLFM crash after prepare, no decision         → presumed abort
  D  host crash after decision, before phase 2     → phase 2 re-driven
  E  DLFM crash with pending delete-group work     → daemon resumes
  F  DLFM crash with pending archive copies        → copy daemon resumes
  G  restore to backup + reconcile                 → both sides converge
"""

from benchmarks.conftest import print_table, run_once
from repro.dlfm import api
from repro.errors import ReproError
from repro.host import DatalinkSpec, build_url
from repro.host.indoubt import resolve_indoubts
from repro.kernel.sim import Timeout
from repro.system import System


def _fresh(seed):
    system = System(seed=seed)

    def setup():
        yield from system.host.create_datalink_table(
            "t", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for i in range(12):
            system.create_user_file("fs1", f"/x/f{i:02d}", owner="u")

    system.run(setup())
    return system


def _link(system, session, i):
    yield from session.execute(
        "INSERT INTO t (id, doc) VALUES (?, ?)",
        (i, build_url("fs1", f"/x/f{i:02d}")))


def scenario_a():
    """DLFM crash before prepare."""
    system = _fresh(1)
    dlfm = system.dlfms["fs1"]

    def go():
        session = system.session()
        yield from _link(system, session, 0)
        dlfm.crash()
        dlfm.restart()
        try:
            yield from session.commit()
        except ReproError:
            yield from session.rollback()

    system.run(go())
    return dlfm.linked_count() == 0 and dlfm.db.table_rows("dfm_txn") == []


def _prepare_with_decision(system, record_decision: bool):
    """Run a txn through phase 1 by hand; optionally log the decision."""
    def go():
        session = system.session()
        yield from _link(system, session, 0)
        txn_id = session.txn_id
        yield from session.send_control(
            "fs1", api.Prepare(system.host.dbid, txn_id))
        yield from system.host.decide(
            session.session, ["fs1"] if record_decision else [])
        return txn_id

    return system.run(go())


def scenario_b():
    """DLFM crash after prepare; decision was commit."""
    system = _fresh(2)
    dlfm = system.dlfms["fs1"]
    _prepare_with_decision(system, record_decision=True)
    dlfm.crash()
    dlfm.restart()
    result = system.run(resolve_indoubts(system.host))
    # Phase 2 is applied, not forced: the host forgets the decision at
    # fs1's next log force (the Copy daemon's pass on an idle DLFM).
    system.sim.run(until=system.sim.now + 60.0,
                   stop_when=lambda: not system.host.decision_rows())
    return (result["committed"] == 1 and dlfm.linked_count() == 1
            and system.host.decision_rows() == [])


def scenario_c():
    """DLFM crash after prepare; no decision → presumed abort."""
    system = _fresh(3)
    dlfm = system.dlfms["fs1"]
    _prepare_with_decision(system, record_decision=False)
    dlfm.crash()
    dlfm.restart()
    result = system.run(resolve_indoubts(system.host))
    return (result["aborted"] == 1 and dlfm.linked_count() == 0
            and dlfm.db.table_rows("dfm_txn") == [])


def scenario_d():
    """Host crash after decision, before phase 2."""
    system = _fresh(4)
    _prepare_with_decision(system, record_decision=True)
    system.host.crash()
    poller = system.run(system.host.restart())
    result = system.run(poller.join())
    return (result["committed"] == 1
            and system.dlfms["fs1"].linked_count() == 1)


def scenario_e():
    """DLFM crash with committed-but-unprocessed delete-group work."""
    system = _fresh(5)
    dlfm = system.dlfms["fs1"]

    def fill():
        session = system.session()
        for i in range(6):
            yield from _link(system, session, i)
        yield from session.commit()

    system.run(fill())
    next(p for p in dlfm._daemon_procs if "delgrpd" in p.name).kill()

    def drop():
        session = system.session()
        yield from session.drop_table("t")
        yield from session.commit()

    system.run(drop())
    before_crash = dlfm.linked_count()
    dlfm.crash()
    dlfm.restart()

    def wait():
        yield Timeout(30)

    system.run(wait())
    return before_crash == 6 and dlfm.linked_count() == 0


def scenario_f():
    """DLFM crash with pending archive entries; copy daemon resumes."""
    system = _fresh(6)
    dlfm = system.dlfms["fs1"]

    def fill():
        session = system.session()
        for i in range(4):
            yield from _link(system, session, i)
        yield from session.commit()

    system.run(fill())
    assert system.archive.copy_count() == 0
    dlfm.crash()
    dlfm.restart()

    def wait():
        yield Timeout(30)

    system.run(wait())
    return system.archive.copy_count() == 4


def scenario_g():
    """Backup → destructive changes → restore + reconcile converge."""
    system = _fresh(7)
    dlfm = system.dlfms["fs1"]

    def go():
        session = system.session()
        for i in range(3):
            yield from _link(system, session, i)
        yield from session.commit()
        backup_id = yield from system.backup()
        # post-backup damage: unlink 1, delete its file, link another
        yield from session.execute("DELETE FROM t WHERE id = 0")
        yield from session.commit()
        yield from system.filtered_fs("fs1").delete("/x/f00", "u")
        yield from _link(system, session, 5)
        yield from session.commit()
        yield from system.restore(backup_id)
        result = yield from system.reconcile()
        return result

    result = system.run(go())
    clean = result["fs1"] == {"relinked": 0, "removed": 0, "dangling": [],
                              "conflicts": [], "nulled": 0}
    linked_ok = dlfm.linked_count() == 3
    file_back = system.servers["fs1"].fs.exists("/x/f00")
    return clean and linked_ok and file_back


SCENARIOS = [
    ("A crash before prepare → work vanishes", scenario_a),
    ("B prepared + commit decision → survives", scenario_b),
    ("C prepared, no decision → presumed abort", scenario_c),
    ("D host crash after decision → phase-2 redriven", scenario_d),
    ("E delete-group resumes after crash", scenario_e),
    ("F copy daemon resumes after crash", scenario_f),
    ("G restore + reconcile converge", scenario_g),
]


def test_e10_crash_matrix(benchmark):
    def run():
        return [(name, fn()) for name, fn in SCENARIOS]

    results = run_once(benchmark, run)
    print_table(
        "E10 — crash/recovery matrix",
        ["scenario", "invariants hold"],
        [(name, "yes" if ok else "NO") for name, ok in results])
    assert all(ok for _, ok in results)
