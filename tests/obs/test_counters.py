"""One home per counter: ``repro.obs.counters`` reports every field of
every ``*Metrics`` object a system holds, and the e2e benchmark's reads
of those fields by name still resolve."""

import dataclasses
import numbers

import pytest

from benchmarks.e2e.counters import _DB_SOURCES, _DLFM_FIELDS, _HOST_FIELDS
from repro.configs import Configuration
from repro.dlfm.manager import DLFMMetrics
from repro.obs import Tracer, counters
from repro.obs.report import render_report
from repro.shard import ShardedSystem
from repro.system import System

#: Fields the benchmark lists that no program object has had since the
#: multi-version store was deleted; it records them as missing.
GONE = {"versions_created", "versions_merged"}


def metrics_objects(root):
    """Every ``*Metrics`` dataclass object reachable from ``root`` through
    the attributes of ``repro`` objects and the containers they hold."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            if (dataclasses.is_dataclass(obj)
                    and type(obj).__name__.endswith("Metrics")):
                found.append(obj)
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name) for name in
                         getattr(type(obj), "__slots__", ())
                         if hasattr(obj, name))
    return found


@pytest.mark.parametrize("build", [
    lambda: System(seed=3, servers=("fs1", "fs2")),
    lambda: ShardedSystem(seed=3, shards=3),
], ids=["system", "sharded"])
def test_every_metrics_field_is_a_counter_and_in_the_report(build):
    """Stamp each field of each reachable ``*Metrics`` object with a
    distinct value; the walker must return every stamp, and the report
    must print exactly the nonzero counters."""
    system = build()
    objects = metrics_objects(system)
    kinds = {type(obj).__name__ for obj in objects}
    assert kinds >= {"DBMetrics", "LockMetrics", "WalMetrics",
                     "BufferMetrics", "HostMetrics", "DLFMMetrics"}
    stamps = set()
    for obj in objects:
        for field in dataclasses.fields(obj):
            stamp = 1_000_003 + len(stamps)
            stamps.add(stamp)
            if isinstance(getattr(obj, field.name), dict):
                setattr(obj, field.name, {"probe": stamp})
            else:
                setattr(obj, field.name, stamp)
    # The DLFF filter's counts are fields of its DLFM's metrics; the
    # archive's stay attributes (the e2e benchmark reads them there).
    filter_fields = {"filter_upcalls", "filter_rejections"}
    assert filter_fields <= {f.name for f in dataclasses.fields(DLFMMetrics)}
    for name in ("stores", "retrieves", "deletes"):
        stamp = 1_000_003 + len(stamps)
        stamps.add(stamp)
        setattr(system.archive, name, stamp)
    flat = counters(system)
    assert stamps <= set(flat.values())
    assert len(flat) == len(stamps) + 2 * isinstance(system, ShardedSystem)
    for name in system.dlfms:
        assert {f"dlfm.{name}.{field}" for field in filter_fields} <= set(flat)
    assert {"archive.adsm.stores", "archive.adsm.retrieves",
            "archive.adsm.deletes"} <= set(flat)
    text = render_report(Tracer(), flat)
    for name, value in flat.items():
        assert (f"\n{name} " in text) == bool(value)


def test_the_walker_names_layer_node_field():
    system = ShardedSystem(seed=3, shards=2)
    flat = counters(system)
    assert flat["locks.hostdb.acquires"] == system.host.db.locks.metrics.acquires
    assert flat["buffer.shard2.hits"] == system.dlfms["shard2"].db.pool.metrics.hits
    assert flat["dlfm.shard1.rpcs"] == 0
    assert flat["shardmap.hostdb.reloads"] == system.host.shard_map.reloads
    system.dlfms["shard1"].db.metrics.note_abort("deadlock")
    assert counters(system)["db.shard1.aborts_by_reason.deadlock"] == 1


def test_the_e2e_benchmark_reads_resolve_on_an_all_on_fleet():
    """``benchmarks/e2e/counters.py`` reads the ``*Metrics`` fields by
    name; a rename here would silently read 0 there."""
    system = Configuration("all_on").system(7, shards=2)
    databases = [system.host.db] + [d.db for d in system.dlfms.values()]

    def number(obj, path, name):
        for attr in path:
            obj = getattr(obj, attr)
        value = getattr(obj, name)
        assert isinstance(value, numbers.Number), (path, name)

    for db in databases:
        for _prefix, path, fields in _DB_SOURCES:
            for name in set(fields) - GONE:
                number(db, path, name)
    for dlfm in system.dlfms.values():
        for name in _DLFM_FIELDS:
            number(dlfm, ("metrics",), name)
    for name in _HOST_FIELDS:
        number(system.host, ("metrics",), name)
    number(system.host, ("shard_map",), "reloads")
    number(system, ("archive",), "stores")
