"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``systemtest`` — run the paper's system test (E1) at chosen scale and
  print the summary (add ``--untuned`` to see the pathological arm).
* ``trace`` — run a traced scenario, print the observability report
  (lock hotspots, phase-2 retries, latency percentiles); ``--json`` dumps
  the raw span events (deterministic: same seed → identical bytes).
* ``bench`` — run the bench arms under the two shipped configurations
  (the ``all_on`` fleet headline and its shard scaling, LOAD, 2PC
  fan-out, daemon pools, time to first commit after a crash, the E6/E8
  sentinels) and write ``BENCH_PERF.json``; ``--check`` prints and
  enforces each arm's gates, ``--quick`` is the CI scale.
* ``chaos`` — run a seeded fault-injection campaign (crashes, RPC
  delays/duplicates, reply-dropping partitions) with cross-layer
  invariant checking; the summary's first line is the command that
  reproduces the run, and the exit status is 1 on a violation.
* ``experiments`` — list every experiment and the command regenerating it.
* ``paper`` — one-paragraph description of what this reproduces.
"""

from __future__ import annotations

import argparse
import sys

EXPERIMENTS = [
    ("E1", "100-client system test: ~300 ins/min + ~150 upd/min",
     "pytest benchmarks/bench_e1_system_test.py --benchmark-only -s"),
    ("E2", "Fig 4: commit processing acquires locks; retries",
     "pytest benchmarks/bench_e2_commit_locks.py --benchmark-only -s"),
    ("E3", "next-key locking deadlocks",
     "pytest benchmarks/bench_e3_next_key_locking.py --benchmark-only -s"),
    ("E4", "optimizer statistics: table-scan havoc + RUNSTATS guard",
     "pytest benchmarks/bench_e4_optimizer_stats.py --benchmark-only -s"),
    ("E5", "lock escalation brings the system to its knees",
     "pytest benchmarks/bench_e5_escalation.py --benchmark-only -s"),
    ("E6", "async commit → distributed deadlock",
     "pytest benchmarks/bench_e6_sync_commit.py --benchmark-only -s"),
    ("E7", "lock-timeout sweep (the 60 s choice)",
     "pytest benchmarks/bench_e7_timeout_sweep.py --benchmark-only -s"),
    ("E8", "log-full vs batched local commits",
     "pytest benchmarks/bench_e8_batched_commit.py --benchmark-only -s"),
    ("E9", "check-flag unique-index link race",
     "pytest benchmarks/bench_e9_link_race.py --benchmark-only -s"),
    ("E10", "crash/recovery matrix",
     "pytest benchmarks/bench_e10_recovery.py --benchmark-only -s"),
]

PAPER = """\
Reproduction of: Hsiao & Narang, "DLFM: A Transactional Resource
Manager" (IBM Almaden, SIGMOD 2000) — the DataLinks File Manager of DB2
UDB 5.2, which links external files to database transactions: 2PC
between host database and file-server resource managers, a local RDBMS
used as a black-box persistent store, referential integrity via a file
system filter, coordinated backup/restore, and the operational lessons
(next-key locking, optimizer statistics, lock escalation, synchronous
commit, lock timeouts, batched commits) that made it work.
See DESIGN.md and EXPERIMENTS.md."""


def cmd_systemtest(args) -> int:
    from repro.configs import UNTUNED, Configuration
    from repro.workloads import SystemTestConfig, run_system_test

    report = run_system_test(SystemTestConfig(
        clients=args.clients, duration=args.minutes * 60.0,
        seed=args.seed, configuration=Configuration(
            "paper", UNTUNED if args.untuned else None)))
    label = "untuned" if args.untuned else "tuned"
    print(f"system test ({label}, {args.clients} clients, "
          f"{args.minutes} virtual minutes):")
    for key, value in report.summary().items():
        print(f"  {key:<18} {value}")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.report import render_report
    from repro.obs.scenarios import SCENARIOS

    scenario = SCENARIOS.get(args.scenario)
    if scenario is None:
        print(f"unknown scenario {args.scenario!r}; "
              f"choose from: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    tracer, counters, meta = scenario(seed=args.seed)
    if args.json:
        try:
            with open(args.json, "w") as out:
                out.write(tracer.to_json(**meta))
        except OSError as error:
            print(f"cannot write {args.json}: {error}", file=sys.stderr)
            return 2
        print(f"wrote {len(tracer.events)} events to {args.json}")
    for key, value in sorted(meta.items()):
        print(f"  {key:<16} {value}")
    print()
    print(render_report(tracer, counters), end="")
    return 0


def cmd_bench(args) -> int:
    import json
    import os

    from repro.bench import BenchConfig, check, gate_results, run_bench

    # Carry the trajectory forward: each PR's entry is keyed by label, so
    # re-running replaces this PR's point but keeps earlier ones.
    history = None
    if os.path.exists(args.out):
        try:
            with open(args.out) as prev:
                history = json.load(prev).get("history")
        except (OSError, ValueError):
            history = None

    doc = run_bench(BenchConfig(seed=args.seed, quick=args.quick),
                    history=history)
    with open(args.out, "w") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")

    print(f"wrote {args.out}")
    for line in doc["summary"].values():
        print(f"  {line}")
    if args.check:
        for arm, text, passed in gate_results(doc):
            print(f"  gate {'ok    ' if passed else 'FAILED'} {arm}: {text}")
    failures = check(doc)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if args.check and failures else 0


def cmd_chaos(args) -> int:
    from repro.chaos.campaign import CampaignConfig, run_campaign

    result = run_campaign(CampaignConfig(
        seed=args.seed, ops=args.ops, shards=args.shards, base=args.config))

    doc = result.to_doc()
    if args.json:
        print(result.to_json())
    else:
        print(f"python -m repro chaos --seed {doc['seed']} --ops {doc['ops']} "
              f"--shards {doc['shards']} --config {doc['config']}")
        print(f"  plan          {result.plan.name}")
        print(f"  ops run       {len(doc['op_trace'])}")
        print(f"  rounds        {doc['rounds']} "
              f"({result.stuck_rounds} stuck)")
        print(f"  recoveries    {doc['recoveries']}")
        print(f"  faults fired  {len(doc['fired'])}")
        print(f"  crashes       {len(doc['crashes'])}")
        print(f"  violations    {len(doc['violations'])}")
        for violation in result.violations:
            print(f"    [{violation.code}] {violation.node}: "
                  f"{violation.detail}")
    return 0 if result.ok else 1


def cmd_experiments(_args) -> int:
    width = max(len(desc) for _, desc, _ in EXPERIMENTS)
    for exp_id, desc, cmd in EXPERIMENTS:
        print(f"{exp_id:<4} {desc:<{width}}  {cmd}")
    return 0


def cmd_paper(_args) -> int:
    print(PAPER)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("systemtest", help="run the E1 system test")
    st.add_argument("--clients", type=int, default=100)
    st.add_argument("--minutes", type=float, default=30.0,
                    help="virtual duration (paper: 1440)")
    st.add_argument("--seed", type=int, default=42)
    st.add_argument("--untuned", action="store_true",
                    help="use the pathological pre-lessons configuration")
    st.set_defaults(fn=cmd_systemtest)

    tr = sub.add_parser("trace", help="run a traced scenario and report")
    tr.add_argument("scenario", nargs="?", default="commit-retry",
                    help="commit-retry (default), workload, sharded or fleet")
    tr.add_argument("--seed", type=int, default=7)
    tr.add_argument("--json", metavar="PATH",
                    help="also dump the raw trace events as JSON")
    tr.set_defaults(fn=cmd_trace)

    bench = sub.add_parser("bench", help="run the bench arms (fleet, "
                           "LOAD, 2PC fan-out, daemons, restart, E6/E8)")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--out", default="BENCH_PERF.json",
                       help="output document (history is carried forward)")
    bench.add_argument("--quick", action="store_true",
                       help="CI scale: a smaller fleet arm")
    bench.add_argument("--check", action="store_true",
                       help="exit nonzero if an acceptance gate fails")
    bench.set_defaults(fn=cmd_bench)

    chaos = sub.add_parser("chaos", help="seeded fault-injection campaign")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--ops", type=int, default=200,
                       help="workload operations to interleave with faults")
    chaos.add_argument("--shards", type=int, default=0,
                       help="run against a sharded fleet of N DLFM shards "
                            "(0 = the classic single-server system)")
    chaos.add_argument("--config", choices=("paper", "all_on"),
                       default="all_on",
                       help="the shipped configuration the deployment "
                            "runs: 'paper' has every fast path off, "
                            "'all_on' every one on (repro.configs)")
    chaos.add_argument("--json", action="store_true",
                       help="print the full result document (deterministic)")
    chaos.set_defaults(fn=cmd_chaos)

    exps = sub.add_parser("experiments", help="list experiment harnesses")
    exps.set_defaults(fn=cmd_experiments)

    paper = sub.add_parser("paper", help="what this reproduces")
    paper.set_defaults(fn=cmd_paper)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
