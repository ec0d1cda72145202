"""E4 — cost-based optimizer vs hand-crafted statistics (§3.2.1, §4).

Paper claims:
* "When the table size (cardinality) is small, the optimizer could still
  pick table scan even when an index is available. To ensure that the
  optimizer always picks the access plan we want, the statistics in the
  catalog are manually set."
* "Cost based Optimizer does not take locking cost (concurrent accesses)
  into account ... Using the RDBMS as a black box can cause havoc in
  terms of causing the lock timeouts and deadlocks and reducing the
  throughput of the concurrent workload."
* "issuing a runstats operation by user will overwrite the hand-crafted
  statistics ... additional logic is put into DLFM to check for changes
  in metadata statistics and re-invoke the utility."

Arms: (a) pinned statistics (tuned); (b) default statistics; (c) user
RUNSTATS sabotage mid-run with the guard ON.
"""

from benchmarks.conftest import print_table, run_once
from repro.configs import Configuration
from repro.workloads import SystemTestConfig, run_system_test

PROBE = "SELECT state FROM dfm_file WHERE filename = ? AND check_flag = ?"


def _run(pin: bool):
    """``paper()`` with the one flip under test."""
    report = run_system_test(SystemTestConfig(
        clients=30, duration=600, think_time=2.0,
        configuration=Configuration("paper", {"dlfm.pin_statistics": pin})))
    dlfm = report.system.dlfms["fs1"]
    summary = report.summary()
    summary["probe_plan"] = dlfm.db.explain(PROBE)["access"]
    summary["file_table_scans"] = dlfm.db.metrics.table_scans
    summary["stats_repins"] = dlfm.metrics.stats_repins
    summary["aborts"] = report.aborts
    return summary


def test_e4_statistics_ablation(benchmark):
    def run():
        pinned = _run(pin=True)
        default = _run(pin=False)
        return pinned, default

    pinned, default = run_once(benchmark, run)
    print_table(
        "E4 — optimizer statistics ablation (30 hot clients)",
        ["metric", "pinned stats", "default stats", "paper"],
        [
            ("File-table probe plan", pinned["probe_plan"],
             default["probe_plan"], "index vs table scan"),
            ("DLFM table scans", pinned["file_table_scans"],
             default["file_table_scans"], "avoided vs frequent"),
            ("lock timeouts", pinned["lock_timeouts"],
             default["lock_timeouts"], "low vs high"),
            ("deadlocks", pinned["deadlocks"], default["deadlocks"],
             "low vs high"),
            ("inserts/min", pinned["inserts_per_min"],
             default["inserts_per_min"], "higher vs lower"),
            ("p95 latency (s)", round(pinned["p95_latency_s"], 3),
             round(default["p95_latency_s"], 3), "-"),
        ])
    assert pinned["probe_plan"] == "index_scan"
    assert default["probe_plan"] == "table_scan"
    assert pinned["file_table_scans"] < default["file_table_scans"]
    assert pinned["inserts_per_min"] > default["inserts_per_min"]
    # "havoc": contention symptoms appear only in the default arm
    default_pain = (default["lock_timeouts"] + default["deadlocks"]
                    + sum(default["aborts"].values()))
    pinned_pain = (pinned["lock_timeouts"] + pinned["deadlocks"]
                   + sum(pinned["aborts"].values()))
    assert default_pain > pinned_pain


def test_e4_runstats_guard(benchmark):
    """A user RUNSTATS flips plans to table scans; the DLFM guard detects
    the overwrite, re-pins and rebinds (paper's guard logic)."""
    from repro.host import DatalinkSpec, build_url

    def run():
        system = Configuration("paper").system(seed=3)
        dlfm = system.dlfms["fs1"]

        def go():
            yield from system.host.create_datalink_table(
                "t", [("id", "INT"), ("f", "TEXT")], {"f": DatalinkSpec()})
            session = system.session()
            for i in range(10):
                system.create_user_file("fs1", f"/f/{i}", owner="u")
                yield from session.execute(
                    "INSERT INTO t (id, f) VALUES (?, ?)",
                    (i, build_url("fs1", f"/f/{i}")))
                yield from session.commit()

        system.run(go())
        plan_before = dlfm.db.explain(PROBE)["access"]
        pinned_before = dlfm.db.catalog.stats_for("dfm_file").manual
        # user sabotage: RUNSTATS over the (small) metadata tables
        dlfm.db.runstats("dfm_file")
        plan_after_runstats = dlfm.db.explain(PROBE)["access"]
        # the guard notices and repairs
        repaired = dlfm.ensure_statistics()
        plan_after_guard = dlfm.db.explain(PROBE)["access"]
        return (plan_before, pinned_before, plan_after_runstats, repaired,
                plan_after_guard)

    (before, pinned, after_runstats, repaired, after_guard) = run_once(
        benchmark, run)
    print_table(
        "E4b — RUNSTATS sabotage and the statistics guard",
        ["stage", "probe plan"],
        [
            ("pinned statistics (bound)", before),
            ("after user RUNSTATS", after_runstats),
            ("after guard re-pins + rebinds", after_guard),
        ])
    assert pinned is True
    assert before == "index_scan"
    assert after_runstats == "table_scan"   # the paper's failure mode
    assert repaired is True
    assert after_guard == "index_scan"


def test_e4_auto_runstats_flips_without_pinning(benchmark):
    """The modern alternative to catalog surgery: with auto-RUNSTATS on
    and pinning OFF, ordinary link traffic grows ``dfm_file`` past the
    mutation threshold and the probe flips to the index on its own —
    no ``set_stats`` anywhere. Pinned tables stay exempt, so the
    paper's guard and the automation coexist."""
    from repro.host import DatalinkSpec, build_url

    def arm(auto: bool):
        system = Configuration("paper", {
            "dlfm.pin_statistics": False,
            "dlfm.local_db.auto_runstats": auto,
            "dlfm.local_db.auto_runstats_threshold": 10}).system(seed=17)
        dlfm = system.dlfms["fs1"]

        def go():
            yield from system.host.create_datalink_table(
                "t", [("id", "INT"), ("f", "TEXT")], {"f": DatalinkSpec()})
            session = system.session()
            for i in range(150):
                system.create_user_file("fs1", f"/auto/{i}", owner="u")
                yield from session.execute(
                    "INSERT INTO t (id, f) VALUES (?, ?)",
                    (i, build_url("fs1", f"/auto/{i}")))
                if (i + 1) % 10 == 0:
                    yield from session.commit()
            yield from session.commit()

        system.run(go())
        stats = dlfm.db.catalog.stats_for("dfm_file")
        return {
            "probe_plan": dlfm.db.explain(PROBE)["access"],
            "card_seen": stats.card,
            "manual": stats.manual,
            "refreshes": dlfm.db.metrics.auto_runstats_runs,
        }

    def run():
        return arm(auto=True), arm(auto=False)

    auto, cold = run_once(benchmark, run)
    print_table(
        "E4c — auto-RUNSTATS vs cold statistics (no pinning)",
        ["metric", "auto-RUNSTATS", "cold stats"],
        [
            ("File-table probe plan", auto["probe_plan"],
             cold["probe_plan"]),
            ("catalog card", auto["card_seen"], cold["card_seen"]),
            ("stats refreshes", auto["refreshes"], cold["refreshes"]),
        ])
    assert auto["probe_plan"] == "index_scan"
    assert not auto["manual"]               # the flip came from auto-stats
    assert auto["refreshes"] >= 1
    assert cold["probe_plan"] == "table_scan"
    assert cold["refreshes"] == 0
