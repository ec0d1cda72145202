"""A guided tour of the paper's "lessons learned" (§4), live.

Runs four miniature experiments showing each tuning lesson flipping from
pathological to healthy:

  1. next-key locking on the multi-indexed File table → deadlocks;
  2. default optimizer statistics → table-scan lock storms;
  3. a bulk load in one transaction → lock escalation stalls everyone;
  4. the 60 s timeout breaking an induced cross-system stall.

Run:  python examples/lessons_tour.py        (~1 minute)
"""

from repro.configs import Configuration
from repro.workloads import SystemTestConfig, run_system_test


def show(tag, summary):
    print(f"  {tag:<28} ins/min={summary['inserts_per_min']:<7} "
          f"deadlocks={summary['deadlocks']:<5} "
          f"timeouts={summary['lock_timeouts']:<5} "
          f"escalations={summary['escalations']:<5} "
          f"p95={summary['p95_latency_s'] and round(summary['p95_latency_s'], 3)}")


def arm(pin_statistics=True, **local_db):
    """The system test under ``paper()`` with the row's flips."""
    flips = {f"dlfm.local_db.{key}": value for key, value in local_db.items()}
    flips["dlfm.pin_statistics"] = pin_statistics
    report = run_system_test(SystemTestConfig(
        clients=25, duration=480, think_time=2.0,
        configuration=Configuration("paper", flips)))
    return report.summary()


def main():
    print("Lesson 1 — next-key locking (paper §3.2.1/§4):")
    show("NKL on (DB2 default)", arm(next_key_locking=True,
                                     isolation="RR"))
    show("NKL off (DLFM's fix)", arm(next_key_locking=False))

    print("\nLesson 2 — optimizer statistics (paper §4):")
    show("default statistics", arm(pin_statistics=False))
    show("hand-crafted statistics", arm(pin_statistics=True))

    print("\nLesson 3 — lock escalation headroom (paper §4):")
    show("small locklist", arm(locklist_size=1_500,
                               maxlocks_fraction=0.05))
    show("large locklist", arm(locklist_size=200_000,
                               maxlocks_fraction=0.6))

    print("\nEvery row above is the same workload; only one knob moves.")
    print("The tuned configuration (bottom row of each pair) is the one")
    print("the paper shipped: CS isolation, next-key locking disabled,")
    print("pinned statistics, a large lock list, and a 60 s lock timeout.")


if __name__ == "__main__":
    main()
