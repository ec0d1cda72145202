"""One-call wiring of a SHARDED DataLinks deployment.

A :class:`ShardedSystem` runs one shared file server (plus the archive)
and N DLFM *shards* that partition the metadata by file group: every
shard mounts the same file system, shares one token secret, and owns
the groups the shard map assigns to it. The host database routes all
datalink ops through a :class:`~repro.shard.catalog.ShardMap` and
batches them per shard by default.

Because every shard constructs its own DLFF filter and the last mount
wins, the live filter's upcall is replaced with a fleet-wide fan-out:
"is this file linked?" must consult every shard — the owner of the
file's group is not knowable from the path alone.
"""

from __future__ import annotations

from typing import Optional

from repro.archive import ArchiveServer
from repro.dlfm import DLFM, DLFMConfig
from repro.fs import FileServer
from repro.host import HostConfig, HostDB
from repro.kernel import Simulator
from repro.shard.catalog import ShardMap


def shard_names(n: int) -> tuple[str, ...]:
    return tuple(f"shard{i + 1}" for i in range(n))


class ShardedSystem:
    def __init__(self, seed: int = 0, shards: int = 2,
                 dlfm_config: Optional[DLFMConfig] = None,
                 host_config: Optional[HostConfig] = None,
                 dbid: str = "hostdb", tracer=None, injector=None,
                 fs_name: str = "fs1",
                 archive_charge_time: bool = False):
        self.sim = Simulator(seed=seed, tracer=tracer, injector=injector)
        self.tracer = self.sim.tracer
        self.injector = self.sim.injector
        self.archive = ArchiveServer(self.sim,
                                     charge_time=archive_charge_time)
        self.fs_name = fs_name
        server = FileServer(self.sim, fs_name)
        self.servers: dict[str, FileServer] = {fs_name: server}
        self.dlfms: dict[str, DLFM] = {}
        for name in shard_names(shards):
            config = dlfm_config or DLFMConfig.tuned()
            dlfm = DLFM(self.sim, name, server, self.archive, config)
            dlfm.start()
            self.dlfms[name] = dlfm
            self.injector.register_crash(dlfm.db.name, dlfm.crash)
        # The last shard's filter won the mount; its upcall must span
        # the fleet (any shard may own the group of the path in hand).
        server.filtered.filter.set_upcall(self._fleet_upcall)

        if host_config is None:
            host_config = HostConfig(batch_datalinks=True)
        self.host = HostDB(self.sim, dbid, self.dlfms, host_config)
        self.host.shard_map = ShardMap(self.host, self.dlfms)
        self.injector.register_crash(self.host.db.name, self.host.crash)

    def _fleet_upcall(self, path: str):
        """Generator: ask every shard's Upcall daemon; first hit wins."""
        for name in sorted(self.dlfms):
            info = yield from self.dlfms[name].upcalld.query(path)
            if info is not None:
                return info
        return None

    # ------------------------------------------------------------------ running

    def run(self, gen, name: str = "main", until: Optional[float] = None):
        """Run one root process to completion and return its result."""
        return self.sim.run_process(gen, name, until=until)

    def session(self):
        return self.host.session()

    # ------------------------------------------------------------------ conveniences

    def create_user_file(self, server: str, path: str, owner: str,
                         content: str = ""):
        """Create an ordinary user file on the shared file server."""
        return self.servers[server].fs.create(path, owner, content)

    def filtered_fs(self, server: str = None):
        """The DLFF-filtered file system applications must use."""
        return self.servers[server or self.fs_name].filtered

    def shard_of(self, grp_id: int) -> str:
        """The shard currently routing ``grp_id`` (cache view)."""
        return self.host.shard_map.resolve(grp_id)[0]
