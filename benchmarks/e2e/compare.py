"""``--compare A.json B.json``: judge two full runs, one row per
workload and end-to-end metric.

The gap is B against A, as a share of A, signed so that positive is
worse. Two runs of one seed are compared, so simulated numbers must
repeat (1 %) and host numbers may differ by noise (10 %). A host gap
wider than its bound from a single pair of runs cannot be told from
noise: it is reported as *unresolved* (measure ten alternating pairs, as
the README describes), never as unchanged. Exit status is non-zero when
any row is outside its bound.
"""

from __future__ import annotations

import json

from benchmarks.e2e import metrics


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["meta"]["seed"] != b["meta"]["seed"] or \
            a["meta"]["seconds"] != b["meta"]["seconds"]:
        print("the two runs differ in seed or --seconds: simulated numbers "
              "are only comparable between runs of the same inputs")
        return 2
    outside = 0
    print(f"{'workload':18} {'metric':26} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for name in a["workloads"]:
        run_a, run_b = a["workloads"][name], b["workloads"].get(name)
        if run_b is None:
            print(f"{name:18} missing from {path_b}")
            outside += 1
            continue
        for metric in metrics.END_TO_END:
            va = run_a["end_to_end"][metric.name]
            vb = run_b["end_to_end"][metric.name]
            gap = (vb - va) / va if va else 0.0
            worse = gap if metric.better == "lower" else -gap
            bound = metrics.SAME_SEED_BOUND[metric.clock]
            if abs(worse) <= bound:
                verdict = "unchanged"
            elif metric.clock == "host":
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > 0 else "better"
            outside += verdict != "unchanged"
            print(f"{name:18} {metric.name:26} {va:12.6g} {vb:12.6g} "
                  f"{100 * worse:+8.2f}% {100 * bound:5.0f}%  {verdict}")
        gap = run_b["failed_share"] - run_a["failed_share"]
        verdict = ("unchanged" if gap <= metrics.FAILED_SHARE_BOUND
                   else "worse")
        outside += verdict != "unchanged"
        print(f"{name:18} {'failed_share':26} {run_a['failed_share']:12.6g} "
              f"{run_b['failed_share']:12.6g} {gap:+9.4f} "
              f"{metrics.FAILED_SHARE_BOUND:6.3f}  {verdict} (absolute)")
        exact = [m.name for m in metrics.PER_LAYER if m.kind == "C"
                 and run_a["per_layer"][m.name] != run_b["per_layer"][m.name]]
        if exact:
            print(f"{name:18} exact counts that differ: {', '.join(exact)}")
    print(f"{outside} row(s) outside their bound")
    return 1 if outside else 0
