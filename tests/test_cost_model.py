"""One cost model: every simulated second the system bills is priced by
``TimingModel.price`` and slept in ``minidb.config.bill``. Every other
``Timeout(`` in ``src/repro`` is a policy wait named here, with the
reason it is not billed service work."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The billing path: the one generator that turns a price into time.
BILLING = {"minidb/config.py:bill(seconds)"}

#: Waits a policy chooses, not work the cost model prices.
POLICY_WAITS = {
    "minidb/session.py:Session.execute(stall)":
        "the restart stall: statements wait out restart's traffic gate",
    "workloads/runner.py:run_system_test.client("
    "rng.expovariate(1.0 / config.think_time))": "client think time",
    "dlfm/manager.py:DLFM._phase2(backoff.next())": "phase-2 retry backoff",
    "dlfm/daemons/delete_group.py:DeleteGroupDaemon.process_txn("
    "backoff.next())": "retry backoff",
    "host/session.py:HostSession.ship(0.05 * (attempt + 1))":
        "backoff while a group is mid-move between shards",
    "dlfm/daemons/copyd.py:CopyDaemon.run(self.dlfm.config.copy_period)":
        "daemon period",
    "dlfm/daemons/gc.py:GarbageCollector.run(GC_PERIOD)": "daemon period",
    "host/indoubt.py:indoubt_poller(POLL_PERIOD)": "the in-doubt poll",
    "kernel/channel.py:Channel.send(rule.delay)": "injected fault delay",
    "kernel/rpc.py:_fanout_faults(rule.delay)": "injected fault delay",
}

#: Scripts that drive a deployment: their waits are the script's own.
SCRIPTS = ("bench/arms.py:", "obs/scenarios.py:", "chaos/campaign.py:")


def _callee(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _visit(node, scope, rel):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _visit(child, scope + (child.name,), rel)
            continue
        if isinstance(child, ast.Call) and _callee(child.func) == "Timeout":
            args = ", ".join(ast.unparse(arg) for arg in child.args)
            yield f"{rel}:{'.'.join(scope)}({args})"
        yield from _visit(child, scope, rel)


def timeout_sites() -> set:
    """``path:Qualified.function(argument)`` of every ``Timeout(``
    call."""
    return {site for path in sorted(SRC.rglob("*.py"))
            for site in _visit(ast.parse(path.read_text()), (),
                               path.relative_to(SRC).as_posix())}


def test_every_timeout_is_billed_or_a_named_policy_wait():
    sites = timeout_sites()
    unnamed = {site for site in sites - BILLING - set(POLICY_WAITS)
               if not site.startswith(SCRIPTS)}
    assert unnamed == set()
    assert BILLING | set(POLICY_WAITS) <= sites, "stale entry"
