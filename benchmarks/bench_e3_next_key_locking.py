"""E3 — next-key locking on the multi-indexed File table causes frequent
deadlocks; disabling it removes them (§3.2.1, §4).

Paper claim: "the next key locking feature results in deadlocks
frequently when multiple datalink applications are running concurrently.
... that feature is turned off. With these enhancements, we were able to
run 100-client workload ... without much deadlock/timeout problem."

The workload ingests files with monotonically increasing names (like
timestamped media), so concurrent inserts hit adjacent keys in the
filename index — the collision pattern behind the paper's deadlocks.
"""

from benchmarks.conftest import print_table, run_once
from repro.configs import Configuration
from repro.workloads import SystemTestConfig, run_system_test


def _arm(next_key_locking: bool):
    """``paper()`` with the one flip under test."""
    return run_system_test(SystemTestConfig(
        clients=40, duration=600, think_time=2.0,
        configuration=Configuration("paper", {
            "dlfm.local_db.next_key_locking": next_key_locking})))


def test_e3_next_key_locking_ablation(benchmark):
    def run():
        return _arm(next_key_locking=True), _arm(next_key_locking=False)

    nkl_on, nkl_off = run_once(benchmark, run)
    on, off = nkl_on.summary(), nkl_off.summary()
    print_table(
        "E3 — next-key locking ablation (40 hot clients, adjacent-key "
        "ingest)",
        ["metric", "paper (NKL on)", "NKL on", "paper (NKL off)", "NKL off"],
        [
            ("deadlocks", "frequent", on["deadlocks"], "≈0",
             off["deadlocks"]),
            ("lock timeouts", "-", on["lock_timeouts"], "≈0",
             off["lock_timeouts"]),
            ("aborted txns", "-", sum(on["aborts"].values()), "≈0",
             sum(off["aborts"].values())),
            ("inserts/min", "-", on["inserts_per_min"], "-",
             off["inserts_per_min"]),
            ("p95 latency (s)", "-", round(on["p95_latency_s"], 3), "-",
             round(off["p95_latency_s"], 3)),
        ])
    assert on["deadlocks"] > 5 * max(1, off["deadlocks"])
    assert off["deadlocks"] <= 2
    assert off["inserts_per_min"] >= on["inserts_per_min"]
