"""Parallel daemon worker pools: claims, concurrency, crash safety."""

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

    # The sweep claims the entry and hands it to a worker; the worker
    # crashes the node at pickup. The sweep itself survives long enough
    # for its drain gate to be released by the pool teardown.
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
    system = build_system(retrieve_workers=3, copy_workers=2)
    dlfm = system.dlfms["fs1"]
    assert dlfm.retrieved.chan.capacity == retrieved.QUEUE_CAPACITY == 16
    assert dlfm.delete_groupd.chan.capacity == delete_group.QUEUE_CAPACITY == 64
    assert dlfm.retrieved.pool.alive == 3
    assert dlfm.copyd.pool.alive == 2
    assert dlfm.delete_groupd.pool.alive == 1
    assert len(dlfm._pool_procs) == 6


def test_pool_workers_die_on_crash_and_restart_respawns():
    system = build_system()
    dlfm = system.dlfms["fs1"]
    assert len(dlfm._pool_procs) == 3  # one worker per pooled daemon
    dlfm.crash()
    assert dlfm._pool_procs == []
    assert dlfm.copyd.pool.alive == 0
    dlfm.restart()
    assert len(dlfm._pool_procs) == 3
    assert dlfm.copyd.pool.alive == 1
    assert dlfm.retrieved.pool.alive == 1
    assert dlfm.delete_groupd.pool.alive == 1


def test_daemon_counters_are_the_three_pools_counters():
    system = build_system()
    link_files(system, 2)
    dlfm = system.dlfms["fs1"]
    system.run(dlfm.copyd.sweep())
    counters = dlfm.daemon_counters()
    assert dlfm.metrics.copyd_claimed == 2
    assert counters["copyd_submitted"] == 2
    assert counters["copyd_completed"] == 2
    assert counters["retrieved_submitted"] == 0
    assert {"copyd_max_depth", "retrieved_max_depth",
            "delgrpd_max_depth"} <= set(counters)
    assert len(counters) == 3 * len(vars(dlfm.copyd.pool.metrics))
