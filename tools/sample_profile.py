"""Sampling profile of one e2e workload window (stdlib only).

    python3 tools/sample_profile.py e1_paper [--seed 42] [--seconds 10]

Builds the workload exactly as the benchmark's child process does
(``benchmarks.e2e.workloads`` is imported, nothing under
``benchmarks/e2e/`` is changed or re-implemented), runs its set-up
untimed, then samples the measured window with ``setitimer(ITIMER_PROF)``:
every millisecond of *CPU* time a SIGPROF handler notes the
interrupted Python stack. Three tables come out, as shares of all
samples: **self** (the function on top of the stack), **cumulative**
(every function anywhere on it, counted once per sample) and **line**
(the source line on top).

Why sampling and not ``cProfile``: ``cProfile`` bills a fixed cost to
every call, which this code base is made of. Measured when this tool
was written (PR 19's parent), it stretched the ``e1_paper`` window from
8.5 to 33 s and ranked ``BTree.delete`` third at 3.2 % self where
sampling put it first at 6.0 % (a long ``leaf.next`` walk is few calls
and many bytecodes); the e2e benchmark's own outside tracer costs
2.15x. The sampler stretches the window by a few per cent and distorts
nothing by call count (the kernel rounds the interval up to its tick:
expect ~250 samples per CPU second).
Use it to find candidates, then measure with ``benchmarks/e2e/run.py``
with nothing attached.
"""

import argparse
import collections
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INTERVAL_S = 0.001   # asked of the kernel, which rounds it up to its tick
TOP = 25             # rows per table


def _name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)   # 3.11+ / 3.10


class Sampler:
    def __init__(self) -> None:
        self.samples = 0
        self.self_hits = collections.Counter()
        self.cumulative_hits = collections.Counter()
        self.line_hits = collections.Counter()

    def _on_sigprof(self, _signum, frame) -> None:
        self.samples += 1
        code = frame.f_code
        self.self_hits[(code.co_filename, code.co_firstlineno,
                        _name(code))] += 1
        self.line_hits[(code.co_filename, frame.f_lineno,
                        _name(code))] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, _name(code)))
            frame = frame.f_back
        self.cumulative_hits.update(seen)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def table(self, title: str, hits: collections.Counter) -> str:
        lines = [f"{title} (share of {self.samples} samples)"]
        for (filename, lineno, name), count in hits.most_common(TOP):
            where = os.path.relpath(filename, ROOT)
            lines.append(f"  {100.0 * count / self.samples:5.1f} %  "
                         f"{name}  ({where}:{lineno})")
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sample_profile", description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e.workloads import WORKLOADS, Scale
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload](
        args.seed, Scale(seconds=args.seconds), None)
    workload.setup()
    sampler = Sampler()
    started = time.process_time()
    with sampler:
        workload.window()
    spent = time.process_time() - started
    result = workload.result()

    print(f"{args.workload} seed {args.seed}: window {spent:.2f} s CPU, "
          f"{sampler.samples} samples, {result['attempted']} ops attempted, "
          f"{result['failed']} failed, "
          f"{len(result['checks_failed'])} checks failed")
    for title, hits in (("self", sampler.self_hits),
                        ("cumulative", sampler.cumulative_hits),
                        ("line", sampler.line_hits)):
        print()
        print(sampler.table(title, hits))
    return 0 if sampler.samples else 1


if __name__ == "__main__":
    sys.exit(main())
