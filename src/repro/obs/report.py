"""Compact text reports over a recorded trace.

``render_report(tracer, counters)`` returns the human-readable summary
printed by ``python -m repro trace``: top lock hotspots (total virtual
time spent waiting per resource), lock requests per database
(requested / avoided / waited), the phase-2 retry breakdown (attempts,
outcomes, abort causes), a per-operation latency table with
p50/p95/p99/max drawn from the tracer's span histograms, and every
nonzero counter of the :func:`repro.obs.counters` dict.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import List


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _table(title: str, columns: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    lines.append("")
    return lines


#: Requested lock modes that make the waiter a READER; everything else
#: (X/IX/SIX) intends to write. The split tells a convoy of fences and
#: lookups from one of writers queueing behind each other.
READER_MODES = frozenset({"S", "IS"})


def lock_hotspots(spans: List[dict], top: int = 10,
                  by_table: bool = False) -> List[dict]:
    """Aggregate ``lock.wait`` spans by (database, resource); sorted by
    total wait. Keeping the database in the key matters for sharded
    fleets: every shard has a ``dfm_file`` heap, and a hotspot report
    that merged them could not say WHICH shard is convoying. Each row
    also splits the waits reader-vs-writer by the requested mode.
    ``by_table`` rolls resources up to ``kind table mode``: a convoy
    spread over reused rids (every ``dfm_txn`` insert queueing on a
    different slot) is one row then, and never ranks otherwise."""
    agg: dict = {}
    for span in spans:
        if span["name"] != "lock.wait":
            continue
        resource = str(span["attrs"].get("resource", "?"))
        if by_table:
            resource = " ".join(re.findall(r"'(\w+)'", resource)[:2]
                                + [str(span["attrs"].get("mode"))])
        db = str(span["attrs"].get("db", "?"))
        entry = agg.setdefault((db, resource), {
            "db": db, "resource": resource, "waits": 0, "total_wait": 0.0,
            "max_wait": 0.0, "deadlocks": 0, "timeouts": 0,
            "reader_waits": 0, "reader_wait": 0.0,
            "writer_waits": 0, "writer_wait": 0.0,
        })
        entry["waits"] += 1
        entry["total_wait"] += span["duration"]
        entry["max_wait"] = max(entry["max_wait"], span["duration"])
        side = ("reader" if span["attrs"].get("mode") in READER_MODES
                else "writer")
        entry[f"{side}_waits"] += 1
        entry[f"{side}_wait"] += span["duration"]
        outcome = span["attrs"].get("outcome")
        if outcome == "deadlock":
            entry["deadlocks"] += 1
        elif outcome == "timeout":
            entry["timeouts"] += 1
    ranked = sorted(agg.values(),
                    key=lambda e: (-e["total_wait"], e["db"], e["resource"]))
    return ranked[:top]


def lock_requests(counters: dict) -> List[List[str]]:
    """Per database with any lock traffic: requested / avoided / waited,
    from the ``locks.<db>.*`` counters."""
    dbs = sorted(name[len("locks."):-len(".acquires")] for name in counters
                 if name.startswith("locks.") and name.endswith(".acquires")
                 and counters[name])
    return [[db] + [str(counters.get(f"locks.{db}.{key}", 0))
                    for key in ("acquires", "avoided", "waits")]
            for db in dbs]


def phase2_breakdown(spans: List[dict]) -> dict:
    """Summarize ``dlfm.phase2`` attempt spans per verb."""
    verbs: dict = defaultdict(lambda: {
        "attempts": 0, "succeeded": 0, "retried": 0,
        "max_attempt": 0, "causes": defaultdict(int),
    })
    for span in spans:
        if span["name"] != "dlfm.phase2":
            continue
        attrs = span["attrs"]
        entry = verbs[str(attrs.get("verb", "?"))]
        entry["attempts"] += 1
        entry["max_attempt"] = max(entry["max_attempt"],
                                   int(attrs.get("attempt", 1)))
        if attrs.get("outcome") == "ok":
            entry["succeeded"] += 1
        else:
            entry["retried"] += 1
            entry["causes"][str(attrs.get("cause", "?"))] += 1
    return {verb: {**entry, "causes": dict(entry["causes"])}
            for verb, entry in sorted(verbs.items())}


def render_report(tracer, counters: dict) -> str:
    """Render the full text report for a finished traced run; ``counters``
    is :func:`repro.obs.counters` of the system it ran."""
    spans = tracer.completed_spans()
    lines: List[str] = []

    counts: dict = defaultdict(int)
    for span in spans:
        counts[span["name"]] += 1
    lines += _table(
        "Span volume",
        ["span", "count"],
        [[name, str(n)] for name, n in sorted(counts.items())])

    waits = [span["duration"] for span in spans
             if span["name"] == "lock.wait"]
    rollup = (f"Lock waits by table and requested mode ({len(waits)} waits, "
              f"{_fmt(sum(waits))} s in all)")
    for by_table, title in ((False, "Top lock hotspots"), (True, rollup)):
        hotspots = lock_hotspots(spans, by_table=by_table)
        if hotspots:
            lines += _table(
                f"{title} (by total wait, virtual seconds; "
                "rd=S/IS waiters, wr=X/IX/SIX/U)",
                ["db", "resource", "waits", "rd", "wr", "total_wait",
                 "rd_wait", "wr_wait", "max_wait", "deadlock", "timeout"],
                [[e["db"], e["resource"], str(e["waits"]),
                  str(e["reader_waits"]), str(e["writer_waits"]),
                  _fmt(e["total_wait"]), _fmt(e["reader_wait"]),
                  _fmt(e["writer_wait"]), _fmt(e["max_wait"]),
                  str(e["deadlocks"]), str(e["timeouts"])]
                 for e in hotspots])

    lock_rows = lock_requests(counters)
    if lock_rows:
        lines += _table(
            "Lock requests (avoided = cursor-stability reads nobody could "
            "observe: billed, never taken)",
            ["db", "requested", "avoided", "waited"], lock_rows)

    phase2 = phase2_breakdown(spans)
    if phase2:
        rows = []
        for verb, entry in phase2.items():
            causes = ",".join(f"{c}:{n}"
                              for c, n in sorted(entry["causes"].items()))
            rows.append([verb, str(entry["attempts"]),
                         str(entry["succeeded"]), str(entry["retried"]),
                         str(entry["max_attempt"]), causes or "-"])
        lines += _table(
            "Phase-2 retry breakdown",
            ["verb", "attempts", "ok", "aborted", "max_attempt", "causes"],
            rows)

    hist_rows = []
    for name, hist in sorted(tracer.histograms.items()):
        if hist.count == 0:
            continue
        summary = hist.summary()
        hist_rows.append([name, str(summary["count"]), _fmt(summary["mean"]),
                          _fmt(summary["p50"]), _fmt(summary["p95"]),
                          _fmt(summary["p99"]), _fmt(summary["max"])])
    if hist_rows:
        lines += _table(
            "Per-op latency (virtual seconds)",
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
            hist_rows)

    counter_rows = [[name, _fmt(value) if isinstance(value, float)
                     else str(value)]
                    for name, value in sorted(counters.items()) if value]
    if counter_rows:
        lines += _table(
            "Counters (nonzero; <layer>.<node>.<field>)",
            ["counter", "value"],
            counter_rows)

    return "\n".join(lines).rstrip() + "\n"
