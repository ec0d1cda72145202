"""E6 — commit must be synchronous w.r.t. the host database (§4).

Paper claim: releasing the application while DLFM still runs phase-2
commit processing leads to a distributed deadlock that no local detector
can see: T1's commit processing at the DLFM waits for a lock held by
T2's sub-transaction; T2's host side waits for a record lock held by
T11 (the application's next transaction); T11 is blocked on its message
send because the DLFM child agent is still busy with T1's commit. T1's
commit keeps timing out and retrying forever. Making the commit
synchronous removes the cycle.

We reproduce the exact T1 / T11 / T2 scenario with both commit modes.
"""

from benchmarks.conftest import print_table, run_once
from repro.bench import ARMS, Configuration, e6_scenario

HORIZON = 900.0

#: The script and its configuration are the bench's E6 sentinel's
#: (``paper()`` plus the declared overrides); only the horizon is ours.
E6 = ARMS["e6_sentinel"]


def _scenario(sync_commit: bool):
    return e6_scenario(
        Configuration(E6.base, {**E6.overrides,
                                "host.sync_commit": sync_commit}),
        horizon=HORIZON)


def test_e6_sync_vs_async_commit(benchmark):
    def run():
        return _scenario(sync_commit=False), _scenario(sync_commit=True)

    async_mode, sync_mode = run_once(benchmark, run)
    print_table(
        "E6 — asynchronous vs synchronous phase-2 commit "
        f"(horizon {HORIZON:.0f}s)",
        ["metric", "async commit", "sync commit", "paper"],
        [
            ("transactions completed (of 3)", async_mode["completed"],
             sync_mode["completed"], "stuck vs all"),
            ("T11 completed", async_mode["done"]["T11"] is not None,
             sync_mode["done"]["T11"] is not None, "no vs yes"),
            ("T2 completed", async_mode["done"]["T2"] is not None,
             sync_mode["done"]["T2"] is not None, "no vs yes"),
            ("phase-2 retry attempts", async_mode["commit_retries"],
             sync_mode["commit_retries"], "repeats forever vs 0"),
            ("DLFM lock timeouts", async_mode["dlfm_timeouts"],
             sync_mode["dlfm_timeouts"], "recurring vs 0"),
        ])
    # Async: the cycle persists — T11 and T2 never finish, and T1's
    # phase-2 commit keeps timing out and retrying ("this process will
    # repeat forever as the deadlock cycle persists").
    assert async_mode["done"]["T11"] is None
    assert async_mode["done"]["T2"] is None
    assert async_mode["commit_retries"] >= 5
    # Sync: everything completes. (A bounded number of phase-2 retries is
    # fine — that is Figure 4's retry loop doing its job on a LOCAL
    # conflict, which the local deadlock detector resolves.)
    assert sync_mode["completed"] == 3
    assert sync_mode["commit_retries"] <= 2
