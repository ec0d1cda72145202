"""Tracer mechanics: null-tracer cost model, span nesting, determinism."""

from repro.kernel.sim import Simulator, Timeout
from repro.obs import NULL_TRACER, Tracer
from repro.obs.report import render_report
from repro.obs.trace import _NULL_SPAN


def test_simulator_defaults_to_the_null_tracer():
    sim = Simulator(seed=1)
    assert sim.tracer is NULL_TRACER
    assert sim.tracer.enabled is False
    # span() allocates nothing: the same shared instance every time
    span = sim.tracer.span("x", a=1)
    assert span is _NULL_SPAN
    with span as s:
        s.set(b=2)  # all no-ops


def test_spans_nest_per_process_with_virtual_timestamps():
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)

    def worker():
        with tracer.span("outer", k="v") as outer:
            yield Timeout(2.0)
            with tracer.span("inner"):
                yield Timeout(1.0)
            outer.set(rows=3)

    sim.run_process(worker(), "worker")
    spans = {s["name"]: s for s in tracer.completed_spans()}
    assert spans["inner"]["parent"] == spans["outer"]["span"]
    assert spans["outer"]["parent"] is None
    assert spans["outer"]["process"] == "worker"
    assert spans["outer"]["start"] == 0.0
    assert spans["outer"]["duration"] == 3.0
    assert spans["inner"]["start"] == 2.0
    assert spans["inner"]["duration"] == 1.0
    assert spans["outer"]["attrs"] == {"k": "v", "rows": 3}
    # durations landed in the tracer's span histograms
    assert tracer.histograms["span.outer"].count == 1
    assert tracer.histograms["span.inner"].count == 1


def test_sibling_processes_do_not_nest_into_each_other():
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)

    def one():
        with tracer.span("a"):
            yield Timeout(5.0)

    def two():
        yield Timeout(1.0)
        with tracer.span("b"):
            yield Timeout(1.0)

    def root():
        pa = sim.spawn(one(), "p-one")
        pb = sim.spawn(two(), "p-two")
        yield from pa.join()
        yield from pb.join()

    sim.run_process(root(), "root")
    spans = {s["name"]: s for s in tracer.completed_spans()}
    # "b" runs entirely inside "a"'s lifetime but in a different process,
    # so it must NOT be parented under "a"
    assert spans["b"]["parent"] is None
    assert spans["b"]["process"] == "p-two"


def test_exception_unwinding_records_the_error():
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)

    def worker():
        try:
            with tracer.span("fails"):
                yield Timeout(1.0)
                raise ValueError("boom")
        except ValueError:
            pass

    sim.run_process(worker(), "worker")
    (span,) = tracer.completed_spans()
    assert span["attrs"]["error"] == "ValueError"


def test_same_run_produces_byte_identical_json():
    def run():
        tracer = Tracer()
        sim = Simulator(seed=5, tracer=tracer)

        def worker():
            with tracer.span("op", n=1):
                yield Timeout(sim.stream("t").random())

        sim.run_process(worker(), "worker")
        return tracer.to_json(scenario="unit", seed=5)

    assert run() == run()


def test_render_report_lists_spans_and_histograms():
    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)

    def worker():
        for _ in range(3):
            with tracer.span("lock.wait", resource="('row', 't', 1)",
                             mode="X") as span:
                yield Timeout(2.0)
                span.set(outcome="granted")
        with tracer.span("lock.wait", resource="('row', 't', 1)",
                         mode="S") as span:
            yield Timeout(4.0)
            span.set(outcome="granted")
        with tracer.span("dlfm.phase2", verb="commit", attempt=1) as span:
            yield Timeout(1.0)
            span.set(outcome="ok")

    sim.run_process(worker(), "worker")
    text = render_report(tracer, {"dlfm.fs1.commits": 1})
    assert "lock.wait" in text
    assert "('row', 't', 1)" in text
    assert "dlfm.phase2" in text
    assert "span.lock.wait" in text
    assert "dlfm.fs1.commits" in text
    # The hotspot row splits its waits reader-vs-writer by lock mode.
    from repro.obs.report import lock_hotspots
    [row] = lock_hotspots(tracer.completed_spans())
    assert row["reader_waits"] == 1 and row["writer_waits"] == 3
    assert row["reader_wait"] == 4.0 and row["writer_wait"] == 6.0
    assert "rd_wait" in text and "wr_wait" in text


def test_lock_rollup_ranks_a_convoy_spread_over_many_rids():
    """Twelve short waits on twelve different ``dfm_txn`` slots never
    rank among the exact-resource hotspots; rolled up by (db, kind,
    table, requested mode) they are the top row."""
    from repro.obs.report import lock_hotspots

    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)

    def worker():
        for slot in range(12):
            with tracer.span("lock.wait", db="dlfm-shard1", mode="X",
                             resource=("row", "dfm_txn", (0, slot))):
                yield Timeout(1.0)
        with tracer.span("lock.wait", db="dlfm-shard1", mode="X",
                         resource=("row", "dfm_group", (0, 0))):
            yield Timeout(5.0)
        with tracer.span("lock.wait", db="dlfm-shard1", mode="S",
                         resource=("row", "dfm_group", (0, 0))):
            yield Timeout(2.0)
        with tracer.span("lock.wait", db="host-hostdb", mode="X",
                         resource=("key", "t", "t_id", ((1, 7),))):
            yield Timeout(0.5)

    sim.run_process(worker(), "worker")
    spans = tracer.completed_spans()
    exact = lock_hotspots(spans)
    assert exact[0]["resource"] == "('row', 'dfm_group', (0, 0))"
    assert exact[0]["waits"] == 2 and len(exact) == 10   # 14 resources
    rows = lock_hotspots(spans, by_table=True)
    assert [(r["db"], r["resource"], r["waits"], r["total_wait"],
             r["max_wait"]) for r in rows] == [
        ("dlfm-shard1", "row dfm_txn X", 12, 12.0, 1.0),
        ("dlfm-shard1", "row dfm_group X", 1, 5.0, 5.0),
        ("dlfm-shard1", "row dfm_group S", 1, 2.0, 2.0),
        ("host-hostdb", "key t X", 1, 0.5, 0.5)]
    text = render_report(tracer, {})
    assert ("Lock waits by table and requested mode (15 waits, "
            "19.500000 s in all)") in text
    assert "row dfm_txn X" in text


def test_fleet_scenario_is_the_saturated_all_on_fleet(monkeypatch):
    """``trace fleet``: the bench's fleet load — enough concurrency to
    make lock waits, unlike ``sharded`` — under ``all_on``, traced."""
    from repro.bench import arms
    from repro.obs.scenarios import CONFIGURATIONS, fleet

    monkeypatch.setattr(arms, "FLEET_TXNS_QUICK", 2)
    tracer, counters, meta = fleet(seed=42)
    assert CONFIGURATIONS["fleet"] == ("all_on", {})
    assert meta["config"] == "all_on" and meta["shards"] >= 4
    assert meta["clients"] == arms.FLEET_CLIENTS >= 16
    assert meta["committed"] == 2 * arms.FLEET_CLIENTS
    assert meta["failed"] == 0
    assert all(f"locks.shard{n}.acquires" in counters for n in range(1, 9))
    assert "prepare.fanout" in render_report(tracer, counters)


def test_sharded_scenario_exports_per_shard_counter_groups():
    from repro.obs.scenarios import sharded

    tracer, counters, meta = sharded(seed=11, shards=3)
    assert meta["moved_group"]["moved"] is True
    for name in ("shard1", "shard2", "shard3"):
        assert f"dlfm.{name}.rpcs" in counters
        assert f"locks.{name}.acquires" in counters
        assert f"locks.{name}.avoided" in counters
        assert f"wal.{name}.forces" in counters
    assert "shardmap.hostdb.entries" in counters
    # Per-shard attribution survives into the rendered report.
    text = render_report(tracer, counters)
    assert "dlfm.shard2.rpcs" in text
    # ... and the lock report says, per database, how many requests were
    # made, avoided (billed, never taken) and waited for.
    header = next(line for line in text.splitlines()
                  if line.startswith("db ") and "requested" in line)
    assert header.split() == ["db", "requested", "avoided", "waited"]
    row = next(line.split() for line in text.splitlines()
               if line.startswith("shard2 "))
    assert row[1:] == [str(counters[f"locks.shard2.{key}"])
                       for key in ("acquires", "avoided", "waits")]
