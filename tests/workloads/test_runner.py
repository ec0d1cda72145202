"""Workload machinery: metrics math and a small end-to-end run."""


from repro.configs import Configuration
from repro.workloads import SystemTestConfig, run_system_test
from repro.workloads.metrics import WorkloadReport


# -- metrics ---------------------------------------------------------------

def test_rates_per_minute():
    report = WorkloadReport(clients=10, virtual_seconds=120.0,
                            inserts=20, updates=10)
    assert report.inserts_per_minute == 10.0
    assert report.updates_per_minute == 5.0


def test_abort_bookkeeping():
    report = WorkloadReport(clients=1, virtual_seconds=60)
    report.note_abort("deadlock")
    report.note_abort("deadlock")
    report.note_abort("timeout")
    assert report.aborts == {"deadlock": 2, "timeout": 1}


def test_latency_percentiles():
    # Nearest-rank over 0..99: the 50th-ranked sample is 49.0 (one-based
    # rank ceil(0.5*100)=50 → index 49), not 50.0 as the old truncating
    # index claimed.
    report = WorkloadReport(clients=1, virtual_seconds=60,
                            latencies=[float(i) for i in range(100)])
    assert report.latency_percentile(50) == 49.0
    assert report.latency_percentile(95) == 94.0
    assert report.latency_percentile(100) == 99.0
    assert WorkloadReport(clients=1, virtual_seconds=60).latency_percentile(
        95) is None


def test_latency_percentile_boundaries():
    # n=1: every percentile is the single sample.
    one = WorkloadReport(clients=1, virtual_seconds=60, latencies=[3.5])
    assert one.latency_percentile(1) == 3.5
    assert one.latency_percentile(50) == 3.5
    assert one.latency_percentile(99) == 3.5
    # n=10: nearest-rank p95 = rank ceil(9.5)=10 → the maximum, which
    # the truncating version only returned by accident of min().
    ten = WorkloadReport(clients=1, virtual_seconds=60,
                         latencies=[float(i) for i in range(1, 11)])
    assert ten.latency_percentile(95) == 10.0
    assert ten.latency_percentile(90) == 9.0
    assert ten.latency_percentile(50) == 5.0
    assert ten.latency_percentile(10) == 1.0
    # n=4: small lists must not under-report (old code: p50 → index 2).
    four = WorkloadReport(clients=1, virtual_seconds=60,
                          latencies=[1.0, 2.0, 3.0, 4.0])
    assert four.latency_percentile(50) == 2.0
    assert four.latency_percentile(75) == 3.0
    assert four.latency_percentile(76) == 4.0


def test_summary_fields():
    report = WorkloadReport(clients=3, virtual_seconds=600, inserts=30)
    summary = report.summary()
    assert summary["clients"] == 3
    assert summary["virtual_minutes"] == 10.0
    assert summary["inserts_per_min"] == 3.0


# -- end-to-end smoke (small but real) -----------------------------------------

def test_small_system_test_run():
    report = run_system_test(SystemTestConfig(
        clients=5, duration=120.0, think_time=5.0, seed=77))
    assert report.inserts > 0
    assert report.updates >= 0
    assert report.deadlocks == 0
    assert report.lock_timeouts == 0
    # every successful insert linked exactly one file
    assert report.system.dlfms["fs1"].metrics.links >= report.inserts
    # and the host row count matches inserts
    def count():
        session = report.system.host.db.session()
        result = yield from session.execute("SELECT COUNT(*) FROM media")
        yield from session.commit()
        return result.scalar()
    assert report.system.run(count()) == report.inserts


def test_untimed_run_finishes_instantly_in_virtual_time():
    report = run_system_test(SystemTestConfig(
        clients=3, duration=60.0, think_time=5.0, seed=9,
        configuration=Configuration("paper", {"timing.enabled": False})))
    assert report.inserts > 0


def test_deterministic_given_seed():
    a = run_system_test(SystemTestConfig(clients=4, duration=90.0,
                                         seed=123))
    b = run_system_test(SystemTestConfig(clients=4, duration=90.0,
                                         seed=123))
    assert a.inserts == b.inserts
    assert a.updates == b.updates
    assert a.latencies == b.latencies


def test_different_seeds_differ():
    a = run_system_test(SystemTestConfig(clients=4, duration=90.0, seed=1))
    b = run_system_test(SystemTestConfig(clients=4, duration=90.0, seed=2))
    assert (a.inserts, a.updates, tuple(a.latencies)) != (
        b.inserts, b.updates, tuple(b.latencies))
