"""Command line of the benchmark.

Three ways to call it (``python3 benchmarks/e2e/run.py`` and, with
``PYTHONPATH=src``, ``python -m benchmarks.e2e`` are the same program):

* ``--workload W --seed N --seconds S --trace 0|1`` runs one workload
  and prints, as the last line of standard output, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``: every
  end-to-end metric with ``--trace 0``, every per-layer metric with
  ``--trace 1`` (this is what ``BENCHMARK.json`` names);
* without ``--workload`` it runs all four workloads one after another,
  untraced then traced, prints every metric by name with unit and
  clock, writes the results to ``out/results-<seed>.json`` and exits
  non-zero if a correctness check fails (``--smoke``: tiny sizes);
* ``--compare A.json B.json`` judges two such result files.

Every workload runs in a child process of its own (``PYTHONHASHSEED=0``,
one OS thread), never two at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from benchmarks.e2e import metrics
from benchmarks.e2e.compare import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: The traced run does a quarter of the ops (H, S and N are shares or
#: per-op numbers, so the scale cancels).
TRACED_SHARE = 0.25
#: ``setup_s`` is the median of this many set-ups of the untraced run.
SETUPS = 3
SMOKE = {"seconds": 0.3, "preload": 0.1}


def child(workload: str, seed: int, seconds: float, preload: float,
          setups: int, traced: bool) -> dict:
    """Run one child process to its end and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child",
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--preload", repr(preload),
         "--setups", str(setups), "--traced", str(int(traced)),
         "--out", OUT],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, preload: float,
            trace: bool, setups: int = SETUPS) -> dict:
    """One workload: the untraced run and, on request, the traced one."""
    untraced = child(workload, seed, seconds, preload, setups, False)
    traced = None
    if trace:
        traced = child(workload, seed, seconds * TRACED_SHARE, preload,
                       1, True)
    checks = list(untraced["checks_failed"])
    if traced:
        checks += [f"traced run: {c}" for c in traced["checks_failed"]]
    return {
        "correct": not checks,
        "checks_failed": checks,
        "end_to_end": metrics.end_to_end(untraced),
        "per_layer": metrics.per_layer(untraced, traced),
        "failed_share": untraced["sim"]["failed_share"],
        "untraced": untraced,
        "traced": traced,
    }


# --------------------------------------------------------------- contract

def contract_line(workload: str, seed: int, seconds: float, preload: float,
                  trace: bool) -> str:
    """The one-line result ``BENCHMARK.json``'s command promises."""
    run = measure(workload, seed, seconds, preload, trace,
                  setups=1 if trace else SETUPS)
    if trace:
        listed, values = metrics.PER_LAYER, run["per_layer"]
    else:
        listed, values = metrics.END_TO_END, run["end_to_end"]
    for check in run["checks_failed"]:
        print(f"check failed: {check}", file=sys.stderr)
    doc = {
        "correct": run["correct"],
        "attempted": run["untraced"]["attempted"],
        "failed": run["untraced"]["failed"],
        # A per-layer number whose hook or counter no longer exists is
        # null in the full report; here it reads -1 so the line stays
        # all numbers (bench.trace.missing_hooks counts them).
        "metrics": {m.name: {"value": -1 if values[m.name] is None
                             else values[m.name], "unit": m.unit}
                    for m in listed},
    }
    return json.dumps(doc)


# ------------------------------------------------------------------- full

def commit_hash() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def show(name: str, run: dict) -> None:
    untraced = run["untraced"]
    print(f"\n== {name}  (config {untraced['config']['name']}, "
          f"{untraced['committed']} ops committed of "
          f"{untraced['attempted']}, window {untraced['window']['host_cpu_s']:.1f} s host "
          f"CPU / {untraced['window']['sim_s']:.1f} s simulated)")
    skipped = untraced["config"]["skipped"]
    if skipped:
        print(f"   config overrides skipped: {', '.join(skipped)}")
    latency = untraced["latency"]
    print(f"   latency: {latency['samples']} samples, p50 "
          f"{latency['p50_s']:.6g}, p99 {latency['p99_s']:.6g}, max "
          f"{latency['max_s']:.6g} sim_s"
          + ("" if latency["samples"] >= 1000 else
             "  (fewer than 1 000 samples: no tail number is supported)"))
    rows = [(m, run["end_to_end"][m.name]) for m in metrics.END_TO_END]
    rows += [(m, run["per_layer"][m.name]) for m in metrics.PER_LAYER]
    for metric, value in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {metric.name:38} {shown:>12} {metric.unit:6} "
              f"{metric.clock:5} {metric.kind}  better: {metric.better}")
    print(f"   {'failed_share':38} {run['failed_share']:>12.6g}")
    ratio = run["per_layer"]["bench.host.wall_over_cpu"]
    if ratio > metrics.DISTURBED:
        print(f"   DISTURBED: wall/cpu = {ratio:.2f}")
    for check in run["checks_failed"]:
        print(f"   CHECK FAILED: {check}")


def run_all(workloads, seed: int, seconds: float, preload: float,
            trace: bool, out_path: str) -> int:
    doc = {"meta": {"seed": seed, "seconds": seconds, "preload": preload,
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "commit": commit_hash()},
           "workloads": {}}
    correct = True
    for name in workloads:
        run = measure(name, seed, seconds, preload, trace)
        show(name, run)
        correct = correct and run["correct"]
        doc["workloads"][name] = run
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as out:
        json.dump(doc, out, indent=1, sort_keys=True)
    print(f"\nresults written to {out_path}; "
          f"{'all checks passed' if correct else 'A CHECK FAILED'}")
    return 0 if correct else 1


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks.e2e: the program under test (src/repro) is not "
              "in this checkout", file=sys.stderr)
        return 2
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))

    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window size: about this much host CPU on "
                             "the reference box (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 end-to-end metrics, "
                             "1 per-layer metrics; without: 0 skips the "
                             "traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload under 2 s")
    parser.add_argument("--out", help="result file of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)

    from benchmarks.e2e.workloads import WORKLOADS
    seconds, preload = args.seconds, 1.0
    if args.smoke:
        seconds, preload = SMOKE["seconds"], SMOKE["preload"]
    elif seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            seconds = float(json.load(spec)["run_seconds"])

    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        # The verdict travels in the line's ``correct`` field.
        print(contract_line(args.workload, args.seed, seconds, preload,
                            bool(args.trace)))
        return 0
    out_path = args.out or os.path.join(OUT, f"results-{args.seed}.json")
    return run_all(WORKLOADS, args.seed, seconds, preload, args.trace != 0,
                   out_path)
