"""Perf — the fast paths behind the flags (DESIGN.md §9).

Not a paper experiment: this measures the two optimisations this repo
carries beyond the paper's tuning lessons — RPC batching with prepare
piggyback (``HostConfig.batch_datalinks``) and WAL group commit
(``DBConfig.group_commit_window``) — and asserts the acceptance gates:

* ≥10× fewer host↔DLFM RPC envelopes at 100 links/transaction;
* ≥2× fewer physical WAL forces across the system;
* the E6 (flags off) and E8 (flags on) outcomes are preserved.

``python -m repro bench`` runs the same harness and also records the
trajectory into ``BENCH_PERF.json``. REPRO_FULL=1 runs the E1 arms at
full bench scale here as well.
"""

from benchmarks.conftest import full_scale, print_table, run_once
from repro.bench import (ARMS, BenchConfig, run_bulk_arm, run_e1_arm,
                         run_e6_sentinel, run_e8_sentinel)


def test_fastpath_bulk_arms(benchmark):
    cfg = BenchConfig()

    def run():
        return {arm: run_bulk_arm(cfg, arm) for arm in ARMS}

    arms = run_once(benchmark, run)
    print_table(
        f"bulk microbenchmark ({cfg.clients} clients x {cfg.txns} txns "
        f"x {cfg.links} links)",
        ["arm", "rpcs", "rpcs/txn", "wal_forces", "saved", "p50_txn",
         "p95_txn"],
        [(arm, a["rpcs"], a["rpcs_per_txn"], a["wal_forces"],
          a["wal_forces_saved"], a["p50_txn_s"], a["p95_txn_s"])
         for arm, a in arms.items()])

    base, fast = arms["baseline"], arms["fast"]
    rpc_reduction = base["rpcs"] / max(fast["rpcs"], 1)
    force_reduction = base["wal_forces"] / max(fast["wal_forces"], 1)
    print(f"\nrpc_reduction={rpc_reduction:.1f}x  "
          f"wal_force_reduction={force_reduction:.2f}x")

    # The acceptance gates (ISSUE: >=10x RPCs, >=2x WAL forces at N=100).
    assert rpc_reduction >= 10
    assert force_reduction >= 2
    # Batching alone must not change force counts; group commit alone
    # must not change RPC counts — the arms decompose cleanly.
    assert arms["batched"]["wal_forces"] == base["wal_forces"]
    assert arms["group_commit"]["rpcs"] == base["rpcs"]
    # Same work in every arm: identical link/unlink totals.
    for arm in ARMS[1:]:
        assert arms[arm]["links"] == base["links"]
        assert arms[arm]["unlinks"] == base["unlinks"]


def test_fastpath_e1_throughput(benchmark):
    cfg = BenchConfig() if full_scale() else BenchConfig.quick_config()

    def run():
        return {mode: run_e1_arm(cfg, mode) for mode in ("off", "on")}

    e1 = run_once(benchmark, run)
    print_table(
        f"E1-style workload ({cfg.e1_clients} clients, "
        f"{cfg.e1_duration:.0f} virtual s)",
        ["flags", "ins/min", "upd/min", "aborts", "rpcs", "wal_forces",
         "p95_latency"],
        [(label, a["inserts_per_min"], a["updates_per_min"], a["aborts"],
          a["rpcs"], a["wal_forces"], a["p95_latency_s"])
         for label, a in e1.items()])
    # The fast paths must not cost throughput or correctness; RPCs drop.
    assert e1["on"]["inserts_per_min"] >= 0.9 * e1["off"]["inserts_per_min"]
    assert e1["on"]["rpcs"] < e1["off"]["rpcs"]


def test_fastpath_sentinels(benchmark):
    cfg = BenchConfig()

    def run():
        return {"e6": run_e6_sentinel(), "e8": run_e8_sentinel(cfg)}

    sentinels = run_once(benchmark, run)
    print_table(
        "sentinels: paper outcomes survive the fast paths",
        ["sentinel", "detail", "preserved"],
        [("E6 (flags off)",
          f"async {sentinels['e6']['async_completed']}/3 done, "
          f"{sentinels['e6']['async_commit_retries']} retries; "
          f"sync {sentinels['e6']['sync_completed']}/3 done",
          sentinels["e6"]["preserved"]),
         ("E8 (flags on)",
          f"unbatched log_fulls={sentinels['e8']['unbatched_log_fulls']}; "
          f"batched completed={sentinels['e8']['batched_completed']}",
          sentinels["e8"]["preserved"])])
    assert sentinels["e6"]["preserved"]
    assert sentinels["e8"]["preserved"]
