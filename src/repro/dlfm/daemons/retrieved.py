"""Retrieve daemon: restore archived files into the file system (§3.5).

Used after the host database is restored to a point in the past: linked
files that no longer exist on disk are fetched from the archive server
(by their recovery id, which identifies the exact version) and recreated
through the Chown daemon (root privilege needed — the file may belong to
any user).

``DLFMConfig.retrieve_workers`` server processes run ``serve_loop`` on
the daemon's one channel, so a post-restore "restore storm" pipelines
archive fetches with Chown handoffs instead of draining one file at a
time; the request backlog is bounded by :data:`QUEUE_CAPACITY` (callers
beyond that block, which is the intended backpressure).
"""

from __future__ import annotations

from repro.kernel.channel import Channel
from repro.kernel.rpc import call, serve_loop

#: Restore requests the daemon's channel queues beyond its servers.
QUEUE_CAPACITY = 16


class RetrieveDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.chan = Channel(dlfm.sim, capacity=QUEUE_CAPACITY,
                            name="retrieved")

    def start(self) -> list:
        """Spawn the server processes; the first keeps the daemon's name."""
        name = f"{self.dlfm.name}-retrieved"
        return [self.dlfm.sim.spawn(serve_loop(self.chan, self._dispatch),
                                    f"{name}-{i}" if i else name)
                for i in range(self.dlfm.config.retrieve_workers)]

    # -- client side ----------------------------------------------------------

    def restore(self, path: str, recovery_id: str):
        """Generator: restore one file version; blocks until done."""
        result = yield from call(self.dlfm.sim, self.chan,
                                 {"path": path, "recovery_id": recovery_id})
        return result

    # -- server side -----------------------------------------------------------

    def _dispatch(self, payload: dict):
        dlfm = self.dlfm
        path = payload["path"]
        recovery_id = payload["recovery_id"]
        copy = yield from dlfm.archive.retrieve(
            dlfm.server.name, path, recovery_id)
        yield from dlfm.chown.request(
            "restore_file", path, content=copy.content, owner=copy.owner,
            group=copy.group, mode=copy.mode)
        dlfm.metrics.files_restored += 1
        return {"restored": True, "bytes": len(copy.content)}
