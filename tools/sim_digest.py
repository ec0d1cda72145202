"""Digest of everything the simulated clock decides, at smoke size.

Runs the four e2e workloads (``--smoke`` sizes, ``--seed`` 42 unless
given, untraced, one set-up) and prints one JSON object: per workload
every ``sim_*`` metric, ``attempted``/``committed``/``failed`` and the
exact ``counters`` block. A change that says it only touches the
interpreter clock must leave this output byte-identical, at both seeds
CI keeps a golden file for:

    python3 tools/sim_digest.py | diff - tests/golden/e2e_smoke_sim.json
    python3 tools/sim_digest.py --seed 7 \
        | diff - tests/golden/e2e_smoke_sim_seed7.json

A change that means to move simulated numbers regenerates the golden
files (``python3 tools/sim_digest.py > tests/golden/e2e_smoke_sim.json``,
and the same with ``--seed 7``) and says so in its description.

Two things are left out because the simulated clock never sees them.
Simulated seconds are rounded to 12 significant digits: the window's
``sim_s`` is a sum of per-lap float differences whose lap boundaries
follow host CPU time, so its last bit (and ``sim_ops_per_s`` with it)
is not a property of the program. ``pool.hits`` is dropped from the
counters: a page found in the pool costs no simulated time (only
``pool.misses`` and ``pool.page_writes`` are billed, and both stay in),
so code that simply looks at fewer rows moves it and nothing else.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(seed: int) -> dict:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e import cli
    from benchmarks.e2e.workloads import WORKLOADS
    out = {}
    for name in WORKLOADS:
        run = cli.child(name, seed, cli.SMOKE["seconds"],
                        cli.SMOKE["preload"], 1, False)
        out[name] = {
            "sim": {k: float(f"{v:.12g}") for k, v in run["sim"].items()},
            "attempted": run["attempted"],
            "committed": run["committed"],
            "failed": run["failed"],
            "checks_failed": run["checks_failed"],
            "counters": {k: v for k, v in run["counters"].items()
                         if k != "pool.hits"},
        }
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    json.dump(digest(parser.parse_args().seed), sys.stdout, indent=1,
              sort_keys=True)
    print()
