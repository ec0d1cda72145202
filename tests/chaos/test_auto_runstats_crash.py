"""Chaos: crash injected INSIDE an auto-RUNSTATS refresh.

The ``runstats.refresh:<db>`` crash point fires at commit time, after
the transaction is durable but before the statistics refresh runs. The
invariants: committed data survives, the half-triggered refresh leaves
no torn statistics (the old version stays wholly in force), and after
restart the plan cache re-binds consistently — first back to the stale
scan plan, then to the index plan once auto-RUNSTATS actually completes.
"""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import CrashedError
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig

SQL = "SELECT v FROM t WHERE k = ?"


def build(seed=5):
    plan = FaultPlan(name="runstats-crash", rules=[
        FaultRule("runstats.refresh:autostats", "crash", max_fires=1),
    ])
    injector = FaultInjector(plan)
    sim = Simulator(seed=seed, injector=injector)
    db = Database(sim, "autostats", DBConfig(
        auto_runstats=True, auto_runstats_threshold=50))
    injector.register_crash("autostats", db.crash)

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    injector.enabled = False
    sim.run_process(setup())
    injector.enabled = True
    return sim, db, injector


def grow(db, start, count):
    def go():
        session = db.session()
        for i in range(start, start + count):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (i, f"v{i}"))
        yield from session.commit()

    db.sim.run_process(go())


def test_crash_inside_refresh_rebinds_consistently(seed=5):
    sim, db, injector = build(seed)
    assert db.explain(SQL)["access"] == "table_scan"   # newborn stats

    with pytest.raises(CrashedError):
        grow(db, 0, 60)            # trips the threshold → injected crash
    assert injector.crashes and (
        injector.crashes[0]["point"] == "runstats.refresh:autostats")
    # The refresh never ran: no torn stats, no half-bumped version.
    assert db.metrics.auto_runstats_runs == 0

    injector.enabled = False       # recovery runs clean
    db.restart()
    version_after_restart = db.catalog.stats_version("t")

    def query(k):
        def go():
            session = db.session()
            result = yield from session.execute(SQL, (k,))
            yield from session.commit()
            return result.rows
        return sim.run_process(go())

    # Committed data survived; the re-bound plan is the STALE scan plan
    # (statistics were untouched by the aborted refresh).
    assert query(59) == [("v59",)]
    assert db.explain(SQL)["access"] == "table_scan"
    assert db.catalog.stats_for("t").card == 0
    assert db.catalog.stats_version("t") == version_after_restart

    # Counters were volatile: growth after restart starts from zero and
    # the NEXT threshold crossing completes the refresh, re-binding the
    # cached plan to the index.
    grow(db, 60, 49)
    assert db.metrics.auto_runstats_runs == 0          # 49 < 50
    grow(db, 109, 1)
    assert db.metrics.auto_runstats_runs == 1
    assert db.catalog.stats_for("t").card == 110
    assert db.explain(SQL)["access"] == "index_scan"
    assert query(109) == [("v109",)]


def test_crash_schedule_is_deterministic():
    def run(seed):
        sim, db, injector = build(seed)
        with pytest.raises(CrashedError):
            grow(db, 0, 60)
        return [(f["t"], f["point"], f["kind"]) for f in injector.fired]

    assert run(11) == run(11)
