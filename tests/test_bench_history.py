"""BENCH_PERF.json history: the trajectory must grow, and the gates
that read it must compare against the row before this tree's own.

Gate tests rebuild the document from the committed BENCH_PERF.json's
arm results (``assemble``), so none of them runs an arm."""

import copy
import json
import re
from pathlib import Path

from repro.bench.harness import (HISTORY_LABEL, BenchConfig, assemble, check,
                                 reference, src_loc, update_history)

ROOT = Path(__file__).parents[1]
COMMITTED = json.loads((ROOT / "BENCH_PERF.json").read_text())

PR2_ROW = {"label": "pr2-batched-rpcs-group-commit", "headline": "old"}


def document(history=None, **values):
    """The committed run's results with ``values`` (``arm__key`` → value)
    patched in, assembled over ``history``."""
    results = copy.deepcopy(COMMITTED["arms"])
    for name, value in values.items():
        arm, key = name.split("__")
        results[arm][key] = value
    return assemble(BenchConfig(quick=True), results, history)


def test_new_label_appends_after_prior_rows():
    entry = {"label": HISTORY_LABEL, "headline": "new"}
    history = update_history([PR2_ROW], entry)
    assert [row["label"] for row in history] == [PR2_ROW["label"],
                                                HISTORY_LABEL]


def test_rerun_replaces_own_row_in_place():
    first = {"label": HISTORY_LABEL, "headline": "run-1"}
    second = {"label": HISTORY_LABEL, "headline": "run-2"}
    history = update_history([PR2_ROW], first)
    history = update_history(history, second)
    assert [row["label"] for row in history] == [PR2_ROW["label"],
                                                HISTORY_LABEL]
    assert history[-1]["headline"] == "run-2"


def test_empty_and_none_history_start_one_row():
    entry = {"label": HISTORY_LABEL}
    assert update_history(None, entry) == [entry]
    assert update_history([], entry) == [entry]


def test_foreign_rows_are_never_dropped():
    rows = [{"label": f"pr{i}"} for i in range(5)]
    history = update_history(list(rows), {"label": HISTORY_LABEL})
    assert history[:5] == rows


def test_src_loc_counts_every_package_once():
    loc = src_loc()
    assert loc["total"] == sum(v for k, v in loc.items() if k != "total")
    assert {"host", "minidb", "dlfm", "kernel", "."} <= set(loc)
    assert all(isinstance(v, int) and v > 0 for v in loc.values())


def test_reference_is_the_newest_earlier_row_that_carries_the_key():
    rows = [{"label": "pr1", "k": 1.0},
            {"label": "pr2", "k": 2.0},
            {"label": "pr3"},                        # does not carry it
            {"label": HISTORY_LABEL, "k": 9.0},      # this tree's own row
            {"label": "pr99", "k": 7.0}]             # later than ours
    assert reference(rows, "k") == 2.0
    assert reference(rows[:3], "k") == 2.0
    assert reference(rows[:1], "other") is None
    assert reference(None, "k") is None


def test_history_gates_read_the_previous_row_whatever_its_label():
    """Fails at the parent: its headline gate looked the reference up
    under its OWN label, so the first run after a label bump compared
    against nothing (``headline_ops_per_sec_ref: null``)."""
    ops = COMMITTED["arms"]["fleet"]["8"]["ops_per_sec"]
    previous = [PR2_ROW, {"label": "pr19-someone-else",
                          "fleet_ops_per_sec": round(ops / 0.8, 1)}]
    doc = document(previous)
    assert doc["references"]["fleet_ops_per_sec"] == round(ops / 0.8, 1)
    [failure] = check(doc)
    assert "8.ops_per_sec >= 0.9" in failure
    assert str(round(ops / 0.8, 1)) in failure and str(ops) in failure
    # Within 10 % of the previous row passes, as does a rerun that finds
    # its own row already in the file (the row before it still counts).
    near = [{"label": "pr19-someone-else", "fleet_ops_per_sec": ops + 1}]
    assert check(document(near)) == []
    own = {"label": HISTORY_LABEL, "fleet_ops_per_sec": 1.0}
    assert len(check(document(previous + [own]))) == 1


def test_load_gate_compares_against_the_previous_history_row():
    """The LOAD arm has no strawman: its simulated duration may not
    exceed the previous history row's by more than 10% — and with no
    earlier measurement on record the gate says nothing."""
    def gate(load_sim_s, ref):
        history = ([] if ref is None else
                   [{"label": "pr19-someone-else", "load_all_on_sim_s": ref}])
        return [f for f in check(document(history,
                                          load__load_sim_s=load_sim_s))
                if "load_sim_s" in f]

    assert gate(129.4, 129.38) == []
    assert gate(142.3, 129.38) == []
    assert gate(999.0, None) == []
    [failure] = gate(142.4, 129.38)
    assert "142.4" in failure and "129.38" in failure


def test_load_reference_is_the_previous_row_whatever_its_label():
    """The committed document: its last row is this tree's, and every
    reference is the newest earlier row's value (None when none has
    one — printed as such, not as ``previous row Nones``)."""
    rows = COMMITTED["history"]
    assert rows[-1]["label"] == HISTORY_LABEL
    for key, ref in COMMITTED["references"].items():
        assert ref == reference(rows, key)
    assert (rows[-1]["load_all_on_sim_s"]
            == COMMITTED["arms"]["load"]["load_sim_s"])
    assert (COMMITTED["headline_ops_per_sec"]
            == rows[-1]["fleet_ops_per_sec"]
            == COMMITTED["arms"]["fleet"]["8"]["ops_per_sec"])
    assert "no earlier row carries" in document([])["summary"]["load"]
    assert "previous row's load_all_on_sim_s: 120.0" in document(
        [{"label": "pr19", "load_all_on_sim_s": 120.0}])["summary"]["load"]


def test_rebased_numbers_carry_new_keys_no_earlier_row_has():
    """The fleet headline and the all_on LOAD replace differently built
    arms (451.0 ops/s, 29.35 sim-s): under new key names the first row
    they appear in has nothing to be compared with by construction."""
    before = [row for row in COMMITTED["history"]
              if int(re.match(r"pr(\d+)-", row["label"])[1]) < 20]
    assert len(before) == 11
    for key in ("fleet_ops_per_sec", "load_all_on_sim_s",
                "fleet_shard_scaling"):
        assert all(key not in row for row in before)
        assert reference(before, key) is None
    # ... and the one-shard baseline became a history key (and a gate)
    # only when the ratio stopped being one, in PR 23.
    rows = COMMITTED["history"]
    first = next(row for row in rows if "fleet_one_shard_ops_per_sec" in row)
    assert first["label"].startswith("pr23-")
    assert (rows[-1]["fleet_one_shard_ops_per_sec"]
            == COMMITTED["arms"]["fleet"]["1"]["ops_per_sec"])


def test_multi_server_gate_bites_when_fanout_latency_grows():
    """The multi-server gate has no serial strawman to beat: p95 commit
    at the widest fan-out must stay within 1.25x of one participant."""
    assert check(document(multi_server__p95_ratio=1.0)) == []
    assert check(document(multi_server__p95_ratio=1.25)) == []
    [failure] = check(document(multi_server__p95_ratio=2.9))
    assert "p95_ratio <= 1.25" in failure and "2.9x" in failure


def test_history_label_is_the_pr_changes_md_ends_with():
    """PRs 17 and 19 forgot to bump the label and overwrote PR 16's row
    (fails at the parent: label ``pr16-…``, last entry PR 19)."""
    entries = re.findall(r"^- PR (\d+):", (ROOT / "CHANGES.md").read_text(),
                         flags=re.MULTILINE)
    label = re.match(r"pr(\d+)-", HISTORY_LABEL)
    assert label and label[1] == entries[-1]
