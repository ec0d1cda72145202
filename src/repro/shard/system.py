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

from repro.dlfm import DLFMConfig
from repro.host import HostConfig
from repro.shard.catalog import ShardMap
from repro.system import System


def shard_names(n: int) -> tuple[str, ...]:
    return tuple(f"shard{i + 1}" for i in range(n))


class ShardedSystem(System):
    def __init__(self, seed: int = 0, shards: int = 2,
                 dlfm_config: Optional[DLFMConfig] = None,
                 host_config: Optional[HostConfig] = None,
                 dbid: str = "hostdb", tracer=None, injector=None,
                 fs_name: str = "fs1"):
        self.fs_name = fs_name
        super().__init__(seed, shard_names(shards), dlfm_config,
                         host_config or HostConfig(batch_datalinks=True),
                         dbid, tracer, injector)
        # The last shard's filter won the mount; its upcall must span
        # the fleet (any shard may own the group of the path in hand).
        self.servers[fs_name].filtered.filter.set_upcall(self._fleet_upcall)
        self.host.shard_map = ShardMap(self.host, self.dlfms)

    def _fleet_upcall(self, path: str):
        """Generator: ask every shard's Upcall daemon; first hit wins."""
        for name in sorted(self.dlfms):
            info = yield from self.dlfms[name].upcalld.query(path)
            if info is not None:
                return info
        return None

    def shard_of(self, grp_id: int) -> str:
        """The shard currently routing ``grp_id`` (cache view)."""
        return self.host.shard_map.resolve(grp_id)[0]
