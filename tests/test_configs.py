"""``repro.configs`` is the one place in ``src/`` that builds a
deployment configuration: who calls the builders, and that the trace
scenarios run what they declare."""

import re
from pathlib import Path

import pytest

from repro import configs
from repro.configs import Configuration
from repro.obs import scenarios
from tests.conftest import assert_holds_declared_configuration

SRC = Path(configs.__file__).parent


def test_only_configs_and_the_constructor_defaults_call_the_builders():
    """``DLFMConfig.tuned(`` / ``TimingModel.calibrated(`` appear in
    ``src/repro`` only in ``configs.py`` and in the two constructor
    defaults (their own definitions are ``def``s, not calls); the chaos
    campaign, the trace scenarios, the system-test runner and the CLI
    build no configuration of their own."""
    callers = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"DLFMConfig\.tuned\(|TimingModel\.calibrated\(",
                     path.read_text())}
    assert callers == {"configs.py", "system.py", "dlfm/manager.py"}
    for name in ("chaos/campaign.py", "obs/scenarios.py",
                 "workloads/runner.py", "__main__.py"):
        text = (SRC / name).read_text()
        assert not re.search(r"\b(DLFMConfig|HostConfig|DBConfig|"
                             r"TimingModel|System|ShardedSystem)\(", text), name
    for name in ("chaos/campaign.py", "chaos/shrink.py", "__main__.py"):
        assert "read_isolation" not in (SRC / name).read_text(), name


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_each_trace_scenario_runs_its_declared_configuration(
        name, monkeypatch):
    built = []
    real = Configuration.system

    def recording(self, *args, **kwargs):
        system = real(self, *args, **kwargs)
        built.append((self, system))
        return system

    monkeypatch.setattr(Configuration, "system", recording)
    kwargs = {"clients": 2, "duration": 20.0} if name == "workload" else {}
    monkeypatch.setattr("repro.bench.arms.FLEET_TXNS_QUICK", 2)
    _tracer, _registry, meta = scenarios.SCENARIOS[name](**kwargs)

    base, overrides = scenarios.CONFIGURATIONS[name]
    [(configuration, system)] = built       # one deployment, built here
    assert (configuration.base, configuration.overrides) == (base, overrides)
    assert meta["config"] == base
    assert_holds_declared_configuration(configuration, system)
