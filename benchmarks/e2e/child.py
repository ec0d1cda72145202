"""One workload, one process: set-up (several times, for a steady
``setup_s``), the measured window, the restart step; prints the result
as one JSON object on the last line.

Run by ``cli.py`` with ``PYTHONHASHSEED=0``; a traced child installs the
hooks of ``trace.py`` before anything of ``repro`` is built, so the
wrappers exist for this process only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time


def run(name: str, seed: int, seconds: float, preload: float, setups: int,
        traced: bool, out_dir: str) -> dict:
    tracer = None
    if traced:
        from benchmarks.e2e import trace
        tracer = trace.Tracer()
        tracer.install()
    from benchmarks.e2e.measure import corrected, reference_spin
    from benchmarks.e2e.workloads import WORKLOADS, Scale

    scale = Scale(seconds=seconds, preload=preload)
    setup_times, setup_raw = [], []
    for _ in range(setups):
        # Earlier set-ups are measured and thrown away; the last is used.
        workload = None
        gc.unfreeze()
        gc.collect()
        before = reference_spin()
        started = time.process_time()
        workload = WORKLOADS[name](seed, scale, tracer)
        workload.setup()
        spent = time.process_time() - started
        setup_raw.append(spent)
        setup_times.append(corrected(spent, before, reference_spin()))

    if tracer:
        tracer.start(workload.sim)
    workload.window()
    result = workload.result()
    result["setup_s"] = statistics.median(setup_times)
    result["setup_raw_runs_s"] = setup_raw
    result["host_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        result["trace"] = tracer.finish(
            os.path.join(out_dir, f"trace-{name}.json"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--preload", type=float, default=1.0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.preload,
                 args.setups, bool(args.traced), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
