"""The two configurations this repo ships, built once for every arm.

``paper()`` is the paper's final configuration with every fast path
off; ``all_on()`` is the same plus every fast path, with compile and
index-maintenance cost billed. The field values are the ones
``benchmarks/e2e/configs.py`` applies (that file is frozen and imports
nothing from here; ``tests/test_bench_registry.py`` holds the two
together). An arm names one of them plus, at most, a declared override
dict — nothing in ``repro.bench`` builds a configuration by hand.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.dlfm.config import DLFMConfig
from repro.host import HostConfig
from repro.minidb.config import TimingModel
from repro.shard import ShardedSystem
from repro.system import System


def paper() -> tuple[DLFMConfig, HostConfig]:
    """``tuned()`` DLFM, default host, calibrated clock."""
    timing = TimingModel.calibrated()
    dlfm = DLFMConfig.tuned(timing=timing)
    host = HostConfig()
    host.db.timing = timing
    return dlfm, host


def all_on() -> tuple[DLFMConfig, HostConfig]:
    """``paper()`` plus every fast path, the two "free" cost terms
    billed."""
    dlfm, host = paper()
    timing = host.db.timing
    timing.compile_cpu = 0.004
    timing.index_entry = 0.002
    dlfm.read_isolation = "SI"
    dlfm.auto_runstats = True
    dlfm.copy_workers = 4
    host.batch_datalinks = True
    host.db.isolation = "CS"
    host.db.next_key_locking = False
    for db in (dlfm.local_db, host.db):
        db.group_commit_window = "auto"
        db.instant_recovery = True
    return dlfm, host


BASES = {"paper": paper, "all_on": all_on}


class Configuration:
    """One of the two shipped configurations plus declared overrides.

    An override key is a dotted path from ``dlfm``, ``host`` or
    ``timing`` (the one clock both databases share), e.g.
    ``"dlfm.local_db.instant_recovery"``; a path that names no existing
    field is an error, not a new attribute.
    """

    def __init__(self, base: str, overrides: dict | None = None):
        self.base = base
        self.overrides = dict(overrides or {})
        #: ``asdict()`` of the configuration objects the last system
        #: built by :meth:`system` actually holds.
        self.ran: dict = {}

    def build(self) -> tuple[DLFMConfig, HostConfig]:
        dlfm, host = BASES[self.base]()
        roots = {"dlfm": dlfm, "host": host, "timing": host.db.timing}
        for path, value in self.overrides.items():
            *walk, name = path.split(".")
            target = roots[walk[0]]
            for step in walk[1:]:
                target = getattr(target, step)
            if not hasattr(target, name):
                raise AttributeError(f"override {path!r} names no field")
            setattr(target, name, value)
        return dlfm, host

    def system(self, seed: int, shards: int = 0, **kwargs) -> System:
        """A fresh deployment under this configuration (``shards`` > 0
        gives a fleet); records what it was built from in ``ran``."""
        dlfm, host = self.build()
        if shards:
            system = ShardedSystem(seed=seed, shards=shards,
                                   dlfm_config=dlfm, host_config=host,
                                   **kwargs)
        else:
            system = System(seed=seed, dlfm_config=dlfm, host_config=host,
                            **kwargs)
        self.ran = {"name": self.base, "overrides": self.overrides,
                    "dlfm": asdict(dlfm), "host": asdict(host)}
        return system
