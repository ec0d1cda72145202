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
        capsys):
    """The run is its command line: there is no replay document, so
    ``--replay`` (like the old ``--read-isolation``) is an argparse
    error."""
    assert main(["chaos", "--ops", "10", "--config", "paper",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == "paper" and "version" not in doc
    for flag in (["--replay", "chaos_repro.json"],
                 ["--read-isolation", "SI"], ["--corrupt", "leaked-lock"]):
        with pytest.raises(SystemExit):
            main(["chaos", *flag])
    capsys.readouterr()


def _rerun_line(argv, capsys) -> tuple:
    """Run ``argv``; return its exit code and the arguments of the
    command its first line prints."""
    code = main(argv)
    line = capsys.readouterr().out.splitlines()[0]
    prefix = "python -m repro "
    assert line.startswith(prefix)
    return code, line[len(prefix):].split()


def test_chaos_prints_the_command_that_reproduces_it(capsys):
    argv = ["chaos", "--seed", "3", "--ops", "12", "--shards", "2"]
    assert main([*argv, "--json"]) == 0
    first = capsys.readouterr().out
    code, rerun = _rerun_line(argv, capsys)
    assert code == 0
    assert rerun == [*argv, "--config", "all_on"]
    assert main([*rerun, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_a_chaos_violation_exits_1_and_prints_the_same_line(
        capsys, monkeypatch):
    from repro.chaos import campaign
    from repro.chaos.invariants import Violation

    argv = ["chaos", "--ops", "12", "--config", "paper"]
    code, clean = _rerun_line(argv, capsys)
    assert code == 0
    monkeypatch.setattr(campaign, "check_invariants", lambda system: [
        Violation("leaked-locks", "dlfm-fs1", "seeded")])
    assert _rerun_line(argv, capsys) == (1, clean)
