"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.kernel import Simulator
from repro.minidb import Database, DBConfig


@pytest.fixture
def sim():
    return Simulator(seed=1234)


@pytest.fixture
def db(sim):
    return Database(sim, "testdb", DBConfig())


def assert_holds_declared_configuration(configuration, system):
    """``system`` was built by ``configuration.system()`` and holds
    exactly the named base plus the declared overrides: the live
    objects equal ``.ran``, which equals a fresh build field for field."""
    from dataclasses import asdict

    from repro.configs import Configuration
    ran = configuration.ran
    assert (ran["name"], ran["overrides"]) == (configuration.base,
                                               configuration.overrides)
    for live in system.dlfms.values():
        assert asdict(live.config) == ran["dlfm"]
    assert asdict(system.host.config) == ran["host"]
    dlfm, host = Configuration(configuration.base,
                               configuration.overrides).build()
    assert (ran["dlfm"], ran["host"]) == (asdict(dlfm), asdict(host))


def bill_only(monkeypatch, **prices):
    """Price every kind in the cost table (``minidb.config.PRICES``) at
    0.0 except ``prices`` (kind → seconds per unit), so sim-clock
    deltas isolate what a test bills."""
    from repro.minidb.config import PRICES
    for kind in PRICES:
        monkeypatch.setitem(PRICES, kind, prices.get(kind, 0.0))


def run_until_durable(system, limit=60.0):
    """Run ``system``'s simulation until the host holds no 2PC decision
    (at most ``limit`` sim-seconds). Phase 2 is applied, not forced: the
    host forgets a decision only once each participant's next log force
    has made its phase-2 COMMIT durable — on an idle DLFM, the copy
    daemon's periodic pass."""
    sim = system.sim
    sim.run(until=sim.now + limit,
            stop_when=lambda: not system.host.pending_decisions())


def run_until_polled(system, limit=60.0):
    """Run ``system``'s simulation until the host's in-doubt poller has
    finished (at most ``limit`` sim-seconds): what a restart or a failed
    phase 2 handed over is resolved, or the poller still retries."""
    sim, host = system.sim, system.host
    sim.run(until=sim.now + limit,
            stop_when=lambda: host.poller is None or host.poller.finished)


def restart_and_resolve(host):
    """Generator: restart ``host`` — which returns at once, its in-doubt
    pass handed to the poller — then join the poller; returns the
    summary of its last pass (``{"committed": n, "aborted": m}``)."""
    yield from host.restart()
    return (yield from host.poller.join())


def run(sim, gen, until=None):
    """Run one root generator to completion and return its result."""
    return sim.run_process(gen, until=until)


def setup_files_table(db, rows=0):
    """Generator: create the canonical test table with a unique name index."""
    session = db.session()
    yield from session.execute(
        "CREATE TABLE files (id INT, name TEXT, size INT, state TEXT)")
    yield from session.execute("CREATE UNIQUE INDEX files_name ON files (name)")
    yield from session.execute("CREATE INDEX files_state ON files (state)")
    for i in range(rows):
        yield from session.execute(
            "INSERT INTO files (id, name, size, state) VALUES (?, ?, ?, ?)",
            (i, f"file-{i:05d}", i * 10, "linked" if i % 2 == 0 else "free"))
    yield from session.commit()
    return session


def run_until_clean(db, limit=60.0):
    """Run ``db``'s simulation until its background page worker is done:
    every page a restart left to replay is replayed, every index-image
    page read, every page a checkpoint left dirty written and the log
    truncated behind them (at most ``limit`` sim-seconds). Checkpoints
    are fuzzy: they write no page, so a test that pins what a checkpoint
    leaves on disk or in the log waits for the worker first."""
    sim = db.sim
    sim.run(until=sim.now + limit, stop_when=lambda: db._worker is None)
