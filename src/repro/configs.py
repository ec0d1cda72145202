"""The two configurations this repo ships, built once for everything.

``paper()`` is the paper's final configuration with every fast path
off; ``all_on()`` is the same plus every fast path, with compile and
index-maintenance cost billed. The field values are the ones
``benchmarks/e2e/configs.py`` applies (that file is frozen and imports
nothing from here; ``tests/test_bench_registry.py`` holds the two
together). A bench arm, the chaos campaign, a trace scenario and the
system-test runner each name one of them plus, at most, a declared
override dict — nothing else in ``src/repro`` builds a configuration by
hand.
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
    dlfm.copy_workers = 4
    host.batch_datalinks = True
    host.db.isolation = "CS"
    host.db.next_key_locking = False
    return dlfm, host


BASES = {"paper": paper, "all_on": all_on}

#: The declared overrides that take ``paper()`` back to where the paper
#: started — a naive deployment: DB2's default locking on the local
#: database, a small lock list, no statistics surgery — the deployment
#: that showed the deadlock, timeout and escalation pathologies (E2,
#: ``systemtest --untuned``).
UNTUNED = {"dlfm.local_db.isolation": "RR",
           "dlfm.local_db.next_key_locking": True,
           "dlfm.local_db.locklist_size": 4_000,
           "dlfm.local_db.maxlocks_fraction": 0.1,
           "dlfm.pin_statistics": False}


class Configuration:
    """One of the two shipped configurations plus declared overrides.

    An override key is a dotted path from ``dlfm``, ``host`` or
    ``timing`` (the one clock both databases share), e.g.
    ``"dlfm.local_db.wal_capacity"``; a path that names no existing
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

    def system(self, seed: int, shards: int = 0,
               servers: tuple = ("fs1",), **kwargs) -> System:
        """A fresh deployment under this configuration: a fleet of
        ``shards`` over one file server when ``shards`` > 0, otherwise
        one DLFM per name in ``servers``; records what it was built from
        in ``ran``."""
        dlfm, host = self.build()
        if shards:
            system = ShardedSystem(seed=seed, shards=shards,
                                   dlfm_config=dlfm, host_config=host,
                                   **kwargs)
        else:
            system = System(seed=seed, servers=servers, dlfm_config=dlfm,
                            host_config=host, **kwargs)
        self.ran = {"name": self.base, "overrides": self.overrides,
                    "dlfm": asdict(dlfm), "host": asdict(host)}
        return system
