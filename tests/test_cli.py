"""CLI smoke tests (`python -m repro`)."""

import json

import pytest

from repro.__main__ import main


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("E1", "E5", "E10"):
        assert exp_id in out
    assert "bench_e6_sync_commit" in out


def test_paper_summary(capsys):
    assert main(["paper"]) == 0
    out = capsys.readouterr().out
    assert "SIGMOD 2000" in out
    assert "DataLinks" in out


def test_systemtest_runs_small(capsys):
    assert main(["systemtest", "--clients", "3", "--minutes", "1",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "inserts_per_min" in out
    assert "tuned" in out


def test_systemtest_untuned_flag(capsys):
    assert main(["systemtest", "--clients", "3", "--minutes", "1",
                 "--untuned"]) == 0
    assert "untuned" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_trace_commit_retry_scenario(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "commit-retry", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "commit_retries" in out
    assert "Phase-2 retry breakdown" in out
    assert "Top lock hotspots" in out
    assert "span.dlfm.phase2" in out
    data = out_path.read_text()
    assert data.startswith('{"events":[') or data.startswith('{"meta"')
    assert '"dlfm.phase2"' in data


def test_trace_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["trace", "commit-retry", "--seed", "11",
                 "--json", str(a)]) == 0
    assert main(["trace", "commit-retry", "--seed", "11",
                 "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_trace_unknown_scenario_fails(capsys):
    assert main(["trace", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_names_a_configuration_and_refuses_a_version_1_replay(
        tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert main(["chaos", "--ops", "10", "--config", "paper", "--json",
                 "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["version"], doc["config"]) == (5, "paper")
    with pytest.raises(SystemExit):     # replaced by --config, not kept
        main(["chaos", "--read-isolation", "SI"])
    capsys.readouterr()
    doc["version"] = 1
    out.write_text(json.dumps(doc))
    assert main(["chaos", "--replay", str(out)]) == 2
    assert "version 1" in capsys.readouterr().err
    doc["version"] = 3                  # predates the xa op: refused too
    out.write_text(json.dumps(doc))
    assert main(["chaos", "--replay", str(out)]) == 2
    assert "version 3" in capsys.readouterr().err
