"""E8 — long-running work needs periodic local commits (§4).

Paper claim: "Load and reconcile utilities tend to run for a long time
... there is potential for running out of system resources such as log
file ... in the delete group daemon we unlink all the files under
deleted group. If large number of files are linked under one group then
unlinking them in single local DB2 transaction can cause the DB2 log
full error condition. So we issue commits to local DB2 periodically
after processing every N records."

Setup: a table with F linked files on a DLFM whose local database has a
small active log. Arms: delete-group batch size N ∈ {whole group, 200,
50, 10}. The unbatched arm hits log-full and never finishes.
"""

from benchmarks.conftest import print_table, run_once
from repro.bench import Configuration, e8_scenario

FILES = 800
WAL_CAPACITY = 500  # a whole-group transaction (800 records) cannot fit
HORIZON = 600.0


def _run(batch_n: int):
    """The bench's E8 sentinel scenario at the paper experiment's size,
    under ``paper()`` on the uncalibrated clock."""
    result = e8_scenario(
        Configuration("paper", {"timing.enabled": False,
                                "dlfm.local_db.wal_capacity": WAL_CAPACITY,
                                "dlfm.batch_commit_n": batch_n,
                                "dlfm.commit_retry_delay": 5.0}),
        files=FILES, horizon=HORIZON)
    assert result["linked"] == FILES
    return result


def test_e8_batched_commit_sweep(benchmark):
    arms = [FILES * 10, 200, 50, 10]

    def run():
        return [(n, _run(n)) for n in arms]

    results = run_once(benchmark, run)
    rows = []
    for n, r in results:
        label = "whole group" if n > FILES else str(n)
        rows.append((label, r["log_fulls"], r["batch_commits"],
                     f"{r['unlinked']}/{FILES}",
                     "yes" if r["completed"] else "NO"))
    print_table(
        f"E8 — delete-group batch-size sweep ({FILES} files, "
        f"log capacity {WAL_CAPACITY} records)",
        ["batch N", "log-full errors", "local commits", "files unlinked",
         "completed"],
        rows)
    by_n = dict(results)
    unbatched = by_n[FILES * 10]
    assert unbatched["log_fulls"] > 0          # the paper's failure mode
    assert not unbatched["completed"]          # it can never finish
    for n in (200, 50, 10):
        assert by_n[n]["completed"]
        assert by_n[n]["log_fulls"] == 0
    # smaller batches → more local commits
    assert by_n[10]["batch_commits"] > by_n[200]["batch_commits"]
