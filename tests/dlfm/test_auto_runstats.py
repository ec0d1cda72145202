"""Auto-RUNSTATS on the DLFM local database.

With the local database's ``DBConfig.auto_runstats`` on and the paper's
hand-crafted pinning OFF, ``dfm_file`` growth from ordinary link traffic
trips the mutation threshold and the probe plan flips to the index
WITHOUT any ``set_stats`` call. With pinning ON, auto-RUNSTATS never touches the
pinned tables — the guard stays authoritative.
"""

from dataclasses import replace

from repro.dlfm.config import DLFMConfig
from repro.host import DatalinkSpec, build_url
from repro.system import System

PROBE = "SELECT state FROM dfm_file WHERE filename = ? AND check_flag = ?"


def build_system(pin: bool, auto: bool) -> System:
    config = DLFMConfig.tuned()
    config.pin_statistics = pin
    config.local_db = replace(config.local_db, auto_runstats=auto,
                              auto_runstats_threshold=10)
    return System(seed=13, dlfm_config=config)


def link_files(system: System, count: int):
    def go():
        yield from system.host.create_datalink_table(
            "t", [("id", "INT"), ("f", "TEXT")], {"f": DatalinkSpec()})
        session = system.session()
        for i in range(count):
            path = f"/auto/f{i:04d}"
            system.create_user_file("fs1", path, owner="u")
            yield from session.execute(
                "INSERT INTO t (id, f) VALUES (?, ?)",
                (i, build_url("fs1", path)))
            if (i + 1) % 10 == 0:
                yield from session.commit()
        yield from session.commit()

    system.run(go())


def test_growth_flips_probe_to_index_without_set_stats():
    system = build_system(pin=False, auto=True)
    db = system.dlfms["fs1"].db
    assert db.explain(PROBE)["access"] == "table_scan"  # newborn stats
    link_files(system, 120)
    assert db.metrics.auto_runstats_runs >= 1
    stats = db.catalog.stats_for("dfm_file")
    assert not stats.manual                     # no pinning involved
    assert stats.card > 0
    assert db.explain(PROBE)["access"] == "index_scan"


def test_without_auto_the_probe_stays_a_scan():
    system = build_system(pin=False, auto=False)
    db = system.dlfms["fs1"].db
    link_files(system, 120)
    assert db.metrics.auto_runstats_runs == 0
    assert db.explain(PROBE)["access"] == "table_scan"


def test_pinned_tables_are_never_auto_refreshed():
    system = build_system(pin=True, auto=True)
    db = system.dlfms["fs1"].db
    pinned_card = db.catalog.stats_for("dfm_file").card
    link_files(system, 120)
    stats = db.catalog.stats_for("dfm_file")
    assert stats.manual                         # the guard's stats
    assert stats.card == pinned_card            # untouched by growth
    assert db.explain(PROBE)["access"] == "index_scan"
