"""``repro.configs`` is the one place in ``src/`` that builds a
deployment configuration: who calls the builders, that the trace
scenarios run what they declare, and that every configuration field
has a caller that needs a second value."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro import configs
from repro.chaos.campaign import CampaignConfig
from repro.configs import Configuration
from repro.dlfm.config import DLFMConfig
from repro.host import HostConfig
from repro.minidb.config import DBConfig, TimingModel
from repro.obs import scenarios
from repro.workloads import SystemTestConfig
from tests.conftest import assert_holds_declared_configuration

SRC = Path(configs.__file__).parent
REPO = SRC.parent.parent

#: The configuration surface: every field of these is one option.
CONFIG_CLASSES = (DBConfig, TimingModel, DLFMConfig, HostConfig,
                  SystemTestConfig, CampaignConfig)
#: Where a second value counts; tests (``test_*.py`` here too) and
#: examples do not.
SHIPPED = ("src", "benchmarks")
#: ``Configuration`` override-key prefixes and the class they walk into.
OVERRIDE_ROOTS = {"dlfm": DLFMConfig, "dlfm.local_db": DBConfig,
                  "host": HostConfig, "host.db": DBConfig,
                  "timing": TimingModel}
#: Fields kept although nothing shipped sets a second value — one reason
#: each. An entry whose field gains such a writer must leave the list.
ONE_VALUE_KEPT = {
    # The frozen e2e benchmark reads it, and tests shrink pages to reach
    # page boundaries at tier-1 speed.
    "DBConfig.rows_per_page",
    # Containers, not values: the host's and a DLFM's database options
    # are DBConfig's fields, each held to this rule there.
    "HostConfig.db",
    "DLFMConfig.local_db",
}


def _second_value(node, cls, name) -> bool:
    """Does ``node``, written to ``cls.name``, differ from its literal
    default? A computed value counts: it is not the default by text."""
    default = next(f.default for f in dataclasses.fields(cls)
                   if f.name == name)  # MISSING for a default_factory
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return True
    return default is dataclasses.MISSING or value != default


def _writers(tree):
    """Yield ``(classes, field name, value node)`` for every keyword
    argument to a configuration constructor, ``replace`` or the e2e
    benchmark's ``override``, every attribute
    store outside ``self``, and every ``Configuration`` override key in
    ``tree``."""
    by_name = {cls.__name__: (cls,) for cls in CONFIG_CLASSES}
    by_name["replace"] = by_name["override"] = CONFIG_CLASSES
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            for keyword in node.keywords:
                if called in by_name and keyword.arg is not None:
                    yield by_name[called], keyword.arg, keyword.value
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self")):
                    yield CONFIG_CLASSES, target.attr, node.value
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                str):
                    root, _, name = key.value.rpartition(".")
                    if root in OVERRIDE_ROOTS:
                        yield (OVERRIDE_ROOTS[root],), name, value


def test_every_option_has_a_second_value_outside_tests():
    """DESIGN §7: a configuration field is an option only while a
    shipped caller — ``src/``, ``benchmarks/`` — sets a value other than
    its default. One value in use is a constant."""
    fields = {f"{cls.__name__}.{f.name}": cls
              for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)}
    covered = set()
    for root in SHIPPED:
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name.startswith(("test_", "conftest")):
                continue
            for classes, name, value in _writers(ast.parse(path.read_text())):
                for cls in classes:
                    key = f"{cls.__name__}.{name}"
                    if key in fields and _second_value(value, cls, name):
                        covered.add(key)
    assert set(ONE_VALUE_KEPT) <= set(fields)
    assert not covered & set(ONE_VALUE_KEPT), "stale ONE_VALUE_KEPT entry"
    one_value = sorted(set(fields) - covered - set(ONE_VALUE_KEPT))
    assert one_value == [], (
        f"{len(one_value)} field(s) with no second value outside tests: "
        f"{', '.join(one_value)}")


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
    for name in ("chaos/campaign.py", "__main__.py"):
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
    _tracer, _counters, meta = scenarios.SCENARIOS[name](**kwargs)

    base, overrides = scenarios.CONFIGURATIONS[name]
    [(configuration, system)] = built       # one deployment, built here
    assert (configuration.base, configuration.overrides) == (base, overrides)
    assert meta["config"] == base
    assert_holds_declared_configuration(configuration, system)
