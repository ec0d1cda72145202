"""Auto-RUNSTATS: mutation counters trigger threshold-based refreshes.

The engine keeps a volatile per-table mutation counter (DB2's in-memory
UDI counters); at commit, any table whose counter crossed
``threshold + AUTO_RUNSTATS_FRACTION * card`` (0.2) gets a RUNSTATS,
bumping the stats version so cached plans re-bind. Hand-crafted (manual) statistics are
never overwritten — the paper's pinning guard stays authoritative.
"""

import pytest

from repro.minidb import Database, DBConfig


def make_db(sim, **cfg):
    cfg.setdefault("auto_runstats", True)
    cfg.setdefault("auto_runstats_threshold", 20)
    db = Database(sim, "autostats", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(setup())
    return db


def insert_rows(db, start, count, per_commit=None):
    def go():
        session = db.session()
        for i in range(start, start + count):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (i, f"v{i}"))
            if per_commit and (i - start + 1) % per_commit == 0:
                yield from session.commit()
        yield from session.commit()

    db.sim.run_process(go())


def test_validation():
    with pytest.raises(ValueError):
        DBConfig(auto_runstats_threshold=0).validate()


def test_threshold_trigger_at_commit(sim):
    db = make_db(sim)
    insert_rows(db, 0, 19)
    assert db.metrics.auto_runstats_runs == 0     # below threshold
    assert db.catalog.stats_for("t").card == 0    # still newborn stats
    insert_rows(db, 19, 1)
    assert db.metrics.auto_runstats_runs == 1     # 20th row trips it
    stats = db.catalog.stats_for("t")
    assert stats.card == 20
    assert not stats.manual
    assert db.stats_mutations.get("t", 0) == 0    # counter reset


def test_refresh_scales_with_cardinality(sim):
    """After a refresh at card=N the next one needs threshold + 0.2 N
    more mutations — big tables refresh proportionally."""
    db = make_db(sim)
    insert_rows(db, 0, 20)
    assert db.metrics.auto_runstats_runs == 1     # card now 20
    insert_rows(db, 20, 23)                       # 23 < 20 + 0.2*20
    assert db.metrics.auto_runstats_runs == 1
    insert_rows(db, 43, 1)                        # 24th crosses
    assert db.metrics.auto_runstats_runs == 2
    assert db.catalog.stats_for("t").card == 44


def test_disabled_by_default(sim):
    db = make_db(sim, auto_runstats=False)
    insert_rows(db, 0, 100)
    assert db.metrics.auto_runstats_runs == 0
    assert db.catalog.stats_for("t").card == 0    # stale, as DB2 ships


def test_manual_stats_are_never_overwritten(sim):
    """The E4 pinning guard wins: set_stats marks statistics manual and
    auto-RUNSTATS skips the table no matter how much it mutates."""
    db = make_db(sim)
    db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
    insert_rows(db, 0, 200)
    assert db.metrics.auto_runstats_runs == 0
    stats = db.catalog.stats_for("t")
    assert stats.manual
    assert stats.card == 1_000_000                # pin intact


def test_user_runstats_resets_the_counter(sim):
    db = make_db(sim)
    insert_rows(db, 0, 15)                        # below threshold
    assert db.stats_mutations.get("t", 0) == 15
    db.runstats("t")
    assert db.stats_mutations.get("t", 0) == 0    # fresh stats, fresh count
    insert_rows(db, 15, 15)                       # 15 < 20 + 0.2*15
    assert db.metrics.auto_runstats_runs == 0


def test_updates_and_deletes_count_as_mutations(sim):
    db = make_db(sim, auto_runstats_threshold=10)
    insert_rows(db, 0, 10)
    assert db.metrics.auto_runstats_runs == 1     # card now 10

    def churn():                                  # 12 = 10 + 0.2*10
        session = db.session()
        yield from session.execute(
            "UPDATE t SET v = ? WHERE k < ?", ("x", 8))   # 8 rows
        yield from session.execute(
            "DELETE FROM t WHERE k >= ?", (6,))            # 4 rows
        yield from session.commit()

    sim.run_process(churn())
    assert db.metrics.auto_runstats_runs == 2
    assert db.catalog.stats_for("t").card == 6


def test_crash_loses_the_volatile_counters(sim):
    """Like DB2's in-memory UDI counters: a crash forgets accumulated
    mutations; post-restart churn starts the count from zero."""
    db = make_db(sim)
    insert_rows(db, 0, 19)
    assert db.stats_mutations.get("t", 0) == 19
    db.crash()
    db.restart()
    assert db.stats_mutations == {}
    insert_rows(db, 19, 1)                        # 1 < threshold now
    assert db.metrics.auto_runstats_runs == 0


def test_refresh_rebinds_cached_plans(sim):
    """The payoff: a scan plan bound while the table looked empty flips
    to the index automatically once auto-RUNSTATS sees the growth."""
    db = make_db(sim, auto_runstats_threshold=100)
    sql = "SELECT v FROM t WHERE k = ?"
    assert db.explain(sql)["access"] == "table_scan"   # card=0 plan
    insert_rows(db, 0, 3000, per_commit=100)
    assert db.metrics.auto_runstats_runs >= 1
    assert db.explain(sql)["access"] == "index_scan"
    assert db.metrics.plan_invalidations >= 1
