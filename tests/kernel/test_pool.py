"""Unit tests for the bounded worker-pool primitive."""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultRule
from repro.errors import CrashedError, SimError, TransientIOError
from repro.kernel import Simulator, Timeout, WorkerPool


def make_pool(sim, handler, **kwargs):
    pool = WorkerPool(sim, "pool", handler, **kwargs)
    pool.start()
    return pool


def submit_and_drain(pool, items):
    for item in items:
        yield from pool.submit(item)
    yield from pool.drain()


def test_workers_overlap_handler_time():
    sim = Simulator()
    done = []

    def handler(item):
        yield Timeout(1.0)
        done.append(item)

    pool = make_pool(sim, handler, workers=4)
    sim.run_process(submit_and_drain(pool, range(8)))
    # 8 one-second items over 4 workers: two waves, not eight.
    assert sim.now == 2.0
    assert sorted(done) == list(range(8))
    assert pool.metrics.submitted == 8
    assert pool.metrics.completed == 8
    assert pool.metrics.busy_time == 8.0


def test_single_worker_is_serial():
    sim = Simulator()

    def handler(item):
        yield Timeout(1.0)

    pool = make_pool(sim, handler, workers=1)
    sim.run_process(submit_and_drain(pool, range(8)))
    assert sim.now == 8.0


def test_drain_returns_immediately_when_idle():
    sim = Simulator()

    def handler(item):
        yield Timeout(1.0)

    pool = make_pool(sim, handler, workers=2)
    sim.run_process(pool.drain())
    assert sim.now == 0.0


def test_rendezvous_submit_applies_backpressure():
    sim = Simulator()

    def handler(item):
        yield Timeout(1.0)

    pool = make_pool(sim, handler, workers=2)
    times = []

    def producer():
        for i in range(4):
            yield from pool.submit(i)
            times.append(sim.now)
        yield from pool.drain()

    sim.run_process(producer())
    # The first two submits hand off to idle workers at t=0; the next
    # two wait a full service time until both workers free up at t=1.
    assert times == [0.0, 0.0, 1.0, 1.0]
    assert pool.metrics.max_depth == 0


def test_submit_on_stopped_pool_raises():
    sim = Simulator()

    def handler(item):
        yield Timeout(1.0)

    pool = WorkerPool(sim, "pool", handler, workers=2)

    def producer():
        yield from pool.submit(1)

    with pytest.raises(SimError):
        sim.run_process(producer())


def test_stop_releases_blocked_drainers():
    sim = Simulator()

    def handler(item):
        yield Timeout(100.0)

    pool = make_pool(sim, handler, workers=1)

    def producer():
        yield from pool.submit(1)
        yield from pool.drain()
        return sim.now

    def stopper():
        yield Timeout(5.0)
        pool.stop()

    proc = sim.spawn(producer(), "producer")
    sim.spawn(stopper(), "stopper")
    sim.run()
    # drain() returned when the pool stopped, not after the 100 s item.
    assert proc.result == 5.0


def test_restart_gets_fresh_queue_and_workers():
    sim = Simulator()
    done = []

    def handler(item):
        yield Timeout(1.0)
        done.append(item)

    pool = make_pool(sim, handler, workers=1)

    def first_life():
        yield from pool.submit("doomed")
        # Stop before the item finishes: handed-out work dies with the
        # pool.
        pool.stop()

    sim.run_process(first_life())
    old_chan = pool.chan
    pool.start()
    assert pool.chan is not old_chan
    sim.run_process(submit_and_drain(pool, ["fresh"]))
    assert done == ["fresh"]
    assert pool.alive == 1


def test_retriable_handler_errors_are_absorbed_and_counted():
    sim = Simulator()
    attempts = []

    def handler(item):
        attempts.append(item)
        yield Timeout(0.1)
        if item % 2:
            raise TransientIOError(f"flaky {item}")

    pool = make_pool(sim, handler, workers=2)
    sim.run_process(submit_and_drain(pool, range(6)))
    assert len(attempts) == 6
    assert pool.metrics.errors == 3
    assert pool.metrics.completed == 6
    assert pool.alive == 2  # workers survive non-crash failures


def test_crash_point_kills_worker_between_pickup_and_handler():
    plan = FaultPlan(name="t", rules=[
        FaultRule("daemon.worker:pool", "crash", prob=1.0, max_fires=1)])
    sim = Simulator(injector=FaultInjector(plan))
    handled = []

    def handler(item):
        yield Timeout(0.1)
        handled.append(item)

    pool = WorkerPool(sim, "pool", handler, workers=2,
                      crash_point="daemon.worker:pool", crash_node="node")
    pool.start()

    def producer():
        for i in range(4):
            yield from pool.submit(i)
        yield from pool.drain()

    sim.spawn(producer(), "producer")
    sim.run(raise_failures=False)
    failures = sim.consume_failures()
    assert any(isinstance(error, CrashedError) for _, error in failures)
    # One worker died holding its item; the survivor handled the rest.
    assert len(handled) == 3
    assert pool.alive == 1
