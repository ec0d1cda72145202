"""Parallel daemon processes: claims, concurrency, crash safety."""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultRule
from repro.dlfm import DLFMConfig
from repro.dlfm.daemons import delete_group, retrieved
from repro.errors import CrashedError
from repro.host import DatalinkSpec, build_url
from repro.system import System


def build_system(seed=7, injector=None, bill_archive=False, **knobs):
    """System with one recovery=yes datalink table and N user files."""
    config = DLFMConfig.tuned()
    config.local_db.timing.archive = bill_archive
    for knob, value in knobs.items():
        setattr(config, knob, value)
    # Keep the periodic sweeper parked; these tests drive sweeps directly.
    config.copy_period = 1e6
    system = System(seed=seed, dlfm_config=config, injector=injector)

    def setup():
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})

    system.run(setup())
    return system


def link_files(system, count):
    def go():
        session = system.session()
        for i in range(count):
            path = f"/v/clip{i}.mpg"
            system.create_user_file("fs1", path, owner="alice",
                                    content="V" * 100)
            yield from session.execute(
                "INSERT INTO clips (id, video) VALUES (?, ?)",
                (i, build_url("fs1", path)))
        yield from session.commit()
    system.run(go())


# ------------------------------------------------------------------ claims

def test_worker_crash_mid_claim_reclaims_exactly_once():
    """Satellite: a worker crash between claim and archive-row delete
    leaves the entry re-claimable exactly once — no lost file, no double
    archive, the archived flag flips exactly once."""
    plan = FaultPlan(name="t", rules=[
        FaultRule("daemon.worker:fs1:copyd", "crash", prob=1.0,
                  max_fires=1)])
    system = build_system(injector=FaultInjector(plan))
    link_files(system, 1)
    dlfm = system.dlfms["fs1"]

    # The sweep claims the entry and spawns a worker; the worker crashes
    # the node at pickup. The sweep itself survives: the DLFM's stop
    # ends it.
    sweep = system.sim.spawn(dlfm.copyd.sweep(), "driven-sweep")
    system.sim.run(raise_failures=False,
                   stop_when=lambda: sweep.finished)
    failures = system.sim.consume_failures()
    assert any(isinstance(error, CrashedError) for _, error in failures)
    assert not dlfm.running
    assert system.archive.copy_count() == 0

    dlfm.restart()
    # Claimed but not archived: the inflight row is the durable record.
    rows = dlfm.db.table_rows("dfm_archive")
    assert [row[2] for row in rows] == ["inflight"]
    assert dlfm.metrics.files_archived == 0
    done = system.run(dlfm.copyd.sweep(), "recovery-sweep")
    assert done == 1
    assert dlfm.metrics.copyd_reclaimed == 1           # stale claim re-queued once
    assert system.archive.copy_count() == 1    # no lost file
    assert dlfm.metrics.files_archived == 1    # no double archive
    assert dlfm.db.table_rows("dfm_archive") == []
    assert [row[15] for row in dlfm.file_entries()] == [1]

    # And the system is healthy: a second sweep finds nothing.
    assert system.run(dlfm.copyd.sweep(), "idle-sweep") == 0
    assert dlfm.metrics.copyd_reclaimed == 1


def test_concurrent_sweeps_never_double_archive():
    """A sweep racing another sweep skips rows the first one claimed."""
    system = build_system()
    link_files(system, 4)
    dlfm = system.dlfms["fs1"]

    def race():
        first = system.sim.spawn(dlfm.copyd.sweep(), "sweep-a")
        second = system.sim.spawn(dlfm.copyd.sweep(), "sweep-b")
        a = yield from first.join()
        b = yield from second.join()
        return a, b

    a, b = system.run(race())
    assert a + b == 4
    assert system.archive.copy_count() == 4
    assert dlfm.metrics.files_archived == 4
    assert dlfm.metrics.copyd_claimed == 4


# ------------------------------------------------------------------ pipelining

def test_parallel_copy_workers_pipeline_transfers():
    serial = build_system(bill_archive=True, copy_workers=1)
    pooled = build_system(bill_archive=True, copy_workers=4)
    elapsed = {}
    for label, system in (("serial", serial), ("pooled", pooled)):
        link_files(system, 8)
        dlfm = system.dlfms["fs1"]
        started = system.sim.now
        assert system.run(dlfm.copyd.sweep()) == 8
        elapsed[label] = system.sim.now - started
        assert system.archive.copy_count() == 8
    # 100-byte files cost 0.06 s each to transfer: 8 serial vs 2 waves.
    assert elapsed["serial"] == pytest.approx(0.48)
    assert elapsed["pooled"] == pytest.approx(0.12)


def test_concurrent_restores_pipeline_fetches():
    serial = build_system(bill_archive=True, retrieve_workers=1)
    pooled = build_system(bill_archive=True, retrieve_workers=4)
    elapsed = {}
    for label, system in (("serial", serial), ("pooled", pooled)):
        dlfm = system.dlfms["fs1"]

        def seed_archive(dlfm=dlfm):
            for i in range(8):
                yield from dlfm.archive.store(
                    "fs1", f"/lost/f{i}", f"rid{i}", "Y" * 100,
                    owner="alice", group="users", mode=0o640)

        system.run(seed_archive())
        started = system.sim.now

        def storm(system=system, dlfm=dlfm):
            procs = [
                system.sim.spawn(
                    dlfm.retrieved.restore(f"/lost/f{i}", f"rid{i}"),
                    f"restore-{i}")
                for i in range(8)]
            for proc in procs:
                yield from proc.join()

        system.run(storm())
        elapsed[label] = system.sim.now - started
        assert dlfm.metrics.files_restored == 8
        for i in range(8):
            assert system.servers["fs1"].fs.stat(f"/lost/f{i}").owner == \
                "alice"
    assert elapsed["serial"] == pytest.approx(0.48)
    assert elapsed["pooled"] == pytest.approx(0.12)


# ------------------------------------------------------------------ lifecycle

def test_config_knobs_size_queues_and_pools():
    """``retrieve_workers`` server processes share the Retrieve daemon's
    one channel; a sweep runs at most ``copy_workers`` copy workers."""
    system = build_system(retrieve_workers=3, copy_workers=2)
    dlfm = system.dlfms["fs1"]
    assert dlfm.retrieved.chan.capacity == retrieved.QUEUE_CAPACITY == 16
    assert dlfm.delete_groupd.chan.capacity == delete_group.QUEUE_CAPACITY == 64
    names = sorted(p.name for p in dlfm._daemon_procs)
    assert names == sorted(f"fs1-{d}" for d in (
        "chownd", "copyd", "retrieved", "retrieved-1", "retrieved-2",
        "delgrpd", "gcd", "upcalld"))
    assert len(dlfm.retrieved.chan._receivers) == 3
    link_files(system, 5)
    assert system.run(dlfm.copyd.sweep()) == 5
    assert [p.name for p in dlfm.copyd._workers] == ["fs1-copyd-w0",
                                                      "fs1-copyd-w1"]
    assert all(p.finished for p in dlfm.copyd._workers)


def test_pool_workers_die_on_crash_and_restart_respawns():
    """Copy workers die with a DLFM crash: the sweep that spawned them
    returns, and the restarted daemon re-claims their entries."""
    system = build_system(bill_archive=True, copy_workers=2)
    link_files(system, 4)
    dlfm = system.dlfms["fs1"]
    sweep = system.sim.spawn(dlfm.copyd.sweep(), "driven-sweep")
    system.sim.run(stop_when=lambda: bool(dlfm.copyd._workers))
    # Halfway through both workers' first 0.06 s archive transfer.
    system.sim.run(until=system.sim.now + 0.03)
    workers = list(dlfm.copyd._workers)
    assert len(workers) == 2 and not any(p.finished for p in workers)
    dlfm.crash()
    assert all(p._killed for p in workers)
    assert dlfm.copyd._workers == []
    system.sim.run(stop_when=lambda: sweep.finished)
    assert sweep.result == 0
    assert system.archive.copy_count() == 0

    dlfm.restart()
    assert system.run(dlfm.copyd.sweep()) == 4
    assert dlfm.metrics.copyd_reclaimed == 4
    assert system.archive.copy_count() == 4


def test_restart_respawns_every_daemon_process():
    system = build_system(retrieve_workers=2)
    dlfm = system.dlfms["fs1"]
    old = list(dlfm._daemon_procs)
    assert len(old) == 7
    dlfm.crash()
    assert dlfm._daemon_procs == []
    assert all(p._killed for p in old)
    dlfm.restart()
    assert sorted(p.name for p in dlfm._daemon_procs) == sorted(
        p.name for p in old)
    assert not any(p in old or p.finished for p in dlfm._daemon_procs)
