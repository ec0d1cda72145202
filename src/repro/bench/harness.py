"""The bench: a registry of arms over the two shipped configurations.

``benchmarks/e2e/`` judges a PR; this harness keeps the trajectory in
``BENCH_PERF.json`` and the gates no end-to-end workload checks. One
:class:`Arm` entry says which configuration the arm runs under
(``paper`` or ``all_on``, plus at most a declared override dict and one
declared contrast), what it runs, the gates it must pass, the keys it
adds to the history row and its one summary line — ``run_bench``,
``check`` and the CLI printout are loops over :data:`ARMS` (name → arm).

A gate is a fixed bar or a comparison with the newest *earlier* history
row that carries the key, whatever its label. Everything except
``wall_clock_s`` is simulated: same seed, byte-identical JSON.
"""

from __future__ import annotations

import operator
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.bench import arms
from repro.configs import Configuration

#: The history row this tree's harness writes: ``pr<N>-…`` with N the
#: number of the PR (``tests/test_bench_history.py`` holds it to the
#: last entry of CHANGES.md). Re-running a tree refreshes its own row.
HISTORY_LABEL = "pr45-instant-host-restart"


@dataclass
class BenchConfig:
    seed: int = 42
    #: CI scale: the fleet arm runs a third of its transactions.
    quick: bool = False


@dataclass(frozen=True)
class Arm:
    """One registry entry. A dotted ``path`` names a value in the arm's
    result (``"archive_drain.speedup"``)."""

    name: str
    #: ``"paper"`` or ``"all_on"``.
    base: str
    #: ``run(cfg, config)``, or ``run(cfg, config, contrast)`` for an
    #: arm that declares a contrast.
    run: Callable
    #: ``(path, op, bar)`` holds the value to a fixed bar;
    #: ``(path, op, factor, key)`` to ``factor`` × history key ``key`` of
    #: the newest earlier row (and passes when no earlier row carries
    #: it). ``()`` says "no gate".
    gates: tuple
    #: History-row key → path.
    history: dict
    #: One line; each ``{path}`` is filled in from the result.
    summary: str
    #: Declared overrides applied to every run of the arm.
    overrides: dict = field(default_factory=dict)
    #: The one declared difference of the arm's comparison run.
    contrast: Optional[dict] = None


ARMS = {arm.name: arm for arm in (
    Arm("fleet", "all_on", arms.run_fleet,
        # No bar on shard_scaling (the one host is the bound: ~1x); what
        # must not happen is a ratio bought with a slower one-shard arm.
        gates=(("1.failed", "==", 0),
               ("8.failed", "==", 0),
               ("8.ops_per_sec", ">", 0),
               ("8.ops_per_sec", ">=", 0.9, "fleet_ops_per_sec"),
               ("1.ops_per_sec", ">=", 0.9, "fleet_one_shard_ops_per_sec")),
        history={"fleet_ops_per_sec": "8.ops_per_sec",
                 "fleet_one_shard_ops_per_sec": "1.ops_per_sec",
                 "fleet_shard_scaling": "shard_scaling",
                 "fleet_dlfm_forces_per_commit":
                     "8.dlfm_forces_per_commit"},
        summary="{8.ops_per_sec} ops/s at 8 shards, {shard_scaling}x one "
                "shard's {1.ops_per_sec} ({1.retries} aborted attempts "
                "there, {8.retries} at 8; {8.dlfm_forces_per_commit} DLFM "
                "log forces per committed transaction at 8)"),
    Arm("load", "all_on", arms.run_load,
        gates=(("linked", ">=", 10_000),
               ("load_sim_s", "<=", 1.10, "load_all_on_sim_s")),
        history={"load_all_on_sim_s": "load_sim_s"},
        summary="{files} files in {load_sim_s} sim-s"),
    Arm("multi_server", "all_on", arms.run_multi_server,
        gates=(("p95_ratio", "<=", 1.25),),
        history={"multi_server_p95_ratio": "p95_ratio"},
        summary="p95 commit at 4 participants {4.p95_commit_s}s, "
                "{p95_ratio}x one participant's {1.p95_commit_s}s"),
    Arm("daemons", "paper", arms.run_daemons,
        gates=(("archive_drain.speedup", ">=", 3),
               ("restore_storm.speedup", ">=", 2)),
        history={"archive_drain_speedup": "archive_drain.speedup",
                 "restore_storm_speedup": "restore_storm.speedup"},
        summary="4 workers drain a 200-file archive backlog "
                "{archive_drain.speedup}x and serve a 64-restore storm "
                "{restore_storm.speedup}x faster than one",
        # Keep the periodic sweeper out of the measured window: the arm
        # drives the sweep itself. Archive transfers are billed, so
        # workers have transfer time to overlap.
        overrides={"dlfm.copy_period": 1e6, "timing.archive": True},
        # all_on's worker count, against paper's single worker.
        contrast={"dlfm.copy_workers": 4, "dlfm.retrieve_workers": 4}),
    Arm("recovery", "all_on", arms.run_recovery,
        gates=(("first_commit_s", "<=", 1.1,
                "recovery_first_commit_instant_s"),
               ("seed_txns", ">=", 500)),
        history={"recovery_first_commit_instant_s": "first_commit_s"},
        summary="first commit {first_commit_s}s after a restart over "
                "{seed_txns} committed transactions ({redone} records "
                "left to replay; it read {index_pages_read} index-image "
                "pages and left {index_pages_drained} to the page "
                "worker, which wrote {cleaned} pages before the crash)"),
    Arm("e6_sentinel", "paper", arms.run_e6_sentinel,
        gates=(("preserved", "==", True),),
        history={},
        summary="asynchronous phase 2 completes {async.completed}/3 with "
                "{async.commit_retries} retries, synchronous "
                "{sync.completed}/3 (preserved: {preserved})",
        overrides={
            # The script's delays are written against the uncalibrated
            # clock.
            "timing.enabled": False,
            # RR + next-key locking at the DLFM: T1's commit-time scan
            # S-locks the key-range boundary T2's uncommitted insert
            # holds X — the local wait the cycle needs.
            "dlfm.local_db.isolation": "RR",
            "dlfm.local_db.next_key_locking": True,
            # DB2's default LOCKTIMEOUT is -1 (wait forever); the paper's
            # 60 s is the DLFM side's. A finite host timeout would break
            # the cycle.
            "host.db.lock_timeout": 1e9},
        contrast={"host.sync_commit": False}),
    Arm("e8_sentinel", "all_on", arms.run_e8_sentinel,
        gates=(("preserved", "==", True),),
        history={},
        summary="unbatched delete-group {unbatched.log_fulls} log-fulls and "
                "completed {unbatched.completed}, batched "
                "{batched.log_fulls} and {batched.completed} "
                "(preserved: {preserved})",
        overrides={"dlfm.local_db.wal_capacity": 120,
                   "dlfm.commit_retry_delay": 5.0},
        # A whole-group transaction: ten times the files in the group.
        contrast={"dlfm.batch_commit_n": 2_000}),
)}


def run_arm(arm: Arm, cfg: BenchConfig) -> dict:
    """Run one arm; its ``config`` block is what the systems it built
    actually held, not what the registry meant them to."""
    config = Configuration(arm.base, arm.overrides)
    if arm.contrast is None:
        result = arm.run(cfg, config)
    else:
        result = arm.run(cfg, config, Configuration(
            arm.base, {**arm.overrides, **arm.contrast}))
    result["config"] = {**config.ran, "contrast": arm.contrast}
    return result


def _at(result: dict, path: str):
    for step in path.split("."):
        result = result[step]
    return result


def report(results: dict, refs: dict) -> dict:
    """Arm name → its one line, plus what each relative gate compares
    with."""
    lines = {}
    for arm in ARMS.values():
        line = re.sub(r"\{([\w.]+)\}",
                      lambda m: str(_at(results[arm.name], m[1])),
                      arm.summary)
        for gate in arm.gates:
            if len(gate) == 4:
                ref = refs.get(gate[3])
                line += (f" (no earlier row carries {gate[3]})"
                         if ref is None
                         else f" (previous row's {gate[3]}: {ref})")
        lines[arm.name] = f"{arm.name}: {line}"
    return lines


# -------------------------------------------------------------------- history

def src_loc() -> dict:
    """Physical source lines per ``repro`` package (top-level modules
    under ``"."``), plus the total — ROADMAP's "least code" yardstick."""
    root = Path(__file__).resolve().parents[1]
    out: dict = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "."
        with path.open(encoding="utf-8") as handle:
            out[package] = out.get(package, 0) + sum(1 for _ in handle)
    out["total"] = sum(out.values())
    return out


def update_history(history: list | None, entry: dict) -> list:
    """Append ``entry`` to the trajectory, or replace (in place in the
    ordering) the row that already has its label. Rows from other PRs
    are preserved — the whole point of the trajectory."""
    rows = list(history or [])
    labels = [row.get("label") for row in rows]
    if entry["label"] in labels:
        rows[labels.index(entry["label"])] = entry
    else:
        rows.append(entry)
    return rows


def reference(history: list | None, key: str):
    """``key`` from the newest row before this tree's own that carries
    it, whatever that row's label; None when no earlier row does."""
    rows = history or []
    labels = [row.get("label") for row in rows]
    if HISTORY_LABEL in labels:
        rows = rows[:labels.index(HISTORY_LABEL)]
    return next((row[key] for row in reversed(rows)
                 if row.get(key) is not None), None)


# --------------------------------------------------------------------- driver

def assemble(cfg: BenchConfig, results: dict,
             history: list | None = None) -> dict:
    """The BENCH_PERF document for ``results`` (arm name → result)."""
    entry = {"label": HISTORY_LABEL}
    for arm in ARMS.values():
        entry.update({key: _at(results[arm.name], path)
                      for key, path in arm.history.items()})
    refs = {key: reference(history, key) for key in entry if key != "label"}
    loc = src_loc()
    entry["src_loc_total"] = loc["total"]
    summary = report(results, refs)
    entry["headline"] = "; ".join(summary.values())
    return {
        "schema": 2,
        "seed": cfg.seed,
        "quick": cfg.quick,
        "arms": results,
        "references": refs,
        "summary": summary,
        "headline_ops_per_sec": entry["fleet_ops_per_sec"],
        "src_loc": loc,
        "history": update_history(history, entry),
    }


def run_bench(cfg: BenchConfig, history: list | None = None) -> dict:
    """Run every arm and return the BENCH_PERF document."""
    started = time.monotonic()
    doc = assemble(cfg, {name: run_arm(arm, cfg)
                         for name, arm in ARMS.items()}, history)
    doc["wall_clock_s"] = round(time.monotonic() - started, 3)
    return doc


OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "==": operator.eq}


def gate_results(doc: dict) -> list:
    """``(arm name, gate text, passed)`` for every gate of every arm."""
    out = []
    for name, arm in ARMS.items():
        for path, op, bar, *key in arm.gates:
            value = _at(doc["arms"][name], path)
            if not key:
                out.append((name, f"{path} {op} {bar}",
                            bool(OPS[op](value, bar))))
                continue
            ref = doc["references"].get(key[0])
            out.append((name, f"{path} {op} {bar} x the previous history "
                              f"row's {key[0]}",
                        ref is None or bool(OPS[op](value, bar * ref))))
    return out


def check(doc: dict) -> list[str]:
    """Acceptance gates; returns a list of failure strings (empty = pass)."""
    return [f"gate {text!r} failed — {doc['summary'][name]}"
            for name, text, passed in gate_results(doc) if not passed]
