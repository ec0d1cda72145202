"""BENCH_PERF.json history accumulation: the trajectory must grow."""

from repro.bench.harness import HISTORY_LABEL, update_history


PR2_ROW = {"label": "pr2-batched-rpcs-group-commit", "headline": "old"}


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


def test_multi_server_gate_bites_when_fanout_latency_grows():
    """The multi-server gate has no serial strawman to beat: p95 commit
    at the widest fan-out must stay within 1.25x of one participant."""
    from repro.bench.harness import check

    def doc(ratio):
        return {"bulk": {"ratios": {"rpc_reduction": 63,
                                    "wal_force_reduction": 2.3}},
                "config": {"ms_server_counts": [1, 2, 4]},
                "multi_server": {"p95_ratio": ratio},
                "sentinels": {}}

    def gate(failures):
        return [f for f in failures if f.startswith("multi_server")]

    assert gate(check(doc(1.0))) == []
    assert gate(check(doc(1.25))) == []
    [failure] = gate(check(doc(2.9)))
    assert "4 participants" in failure and "2.9x" in failure


def test_src_loc_counts_every_package_once():
    from repro.bench.harness import src_loc
    loc = src_loc()
    assert loc["total"] == sum(v for k, v in loc.items() if k != "total")
    assert {"host", "minidb", "dlfm", "kernel", "."} <= set(loc)
    assert all(isinstance(v, int) and v > 0 for v in loc.values())


def test_load_gate_compares_against_the_previous_history_row():
    """The LOAD arm has no strawman: its simulated duration may not
    exceed the previous history row's by more than 10% — and with no
    earlier measurement on record the gate says nothing."""
    from repro.bench.harness import check

    def doc(load_sim_s, ref):
        return {"bulk": {"ratios": {"rpc_reduction": 63,
                                    "wal_force_reduction": 2.3}},
                "load": {"files": 10_000, "load_sim_s": load_sim_s},
                "load_sim_s_ref": ref,
                "sentinels": {}}

    def gate(failures):
        return [f for f in failures if f.startswith("LOAD")]

    assert gate(check(doc(29.35, 29.351))) == []
    assert gate(check(doc(32.2, 29.351))) == []
    assert gate(check(doc(99.0, None))) == []
    [failure] = gate(check(doc(32.3, 29.351)))
    assert "32.3" in failure and "29.351" in failure


def test_load_reference_is_the_previous_row_whatever_its_label():
    import json
    from pathlib import Path

    doc = json.loads((Path(__file__).parents[1]
                      / "BENCH_PERF.json").read_text())
    rows = doc["history"]
    assert rows[-1]["label"] == HISTORY_LABEL
    assert doc["load_sim_s_ref"] == rows[-2]["load_sim_s"]
    assert rows[-1]["load_sim_s"] == doc["load"]["load_sim_s"]
