"""Retrieve daemon: restore archived files into the file system (§3.5).

Used after the host database is restored to a point in the past: linked
files that no longer exist on disk are fetched from the archive server
(by their recovery id, which identifies the exact version) and recreated
through the Chown daemon (root privilege needed — the file may belong to
any user).

Restores are served by a :class:`~repro.kernel.pool.WorkerPool` of
``DLFMConfig.retrieve_workers`` processes so a post-restore "restore
storm" pipelines archive fetches with Chown handoffs instead of
draining one file at a time; the request backlog is bounded by
:data:`QUEUE_CAPACITY` (callers beyond that block, which is the intended
backpressure). The ``run()`` process stays the single
intake so killing it freezes the daemon exactly as before.
"""

from __future__ import annotations

from repro.errors import ChannelClosed, ReproError
from repro.kernel.channel import Channel
from repro.kernel.pool import WorkerPool
from repro.kernel.rpc import call

#: Restore requests the daemon's channel queues beyond its workers.
QUEUE_CAPACITY = 16


class RetrieveDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.chan = Channel(dlfm.sim, capacity=QUEUE_CAPACITY,
                            name="retrieved")
        self.pool = WorkerPool(
            dlfm.sim, f"{dlfm.name}-retrieved", self._serve_one,
            workers=dlfm.config.retrieve_workers,
            crash_point=f"daemon.worker:{dlfm.name}:retrieved",
            crash_node=dlfm.db.name)

    def start_workers(self):
        return self.pool.start()

    def run(self):
        """Intake loop: hand each request to the pool (rendezvous, so at
        most ``retrieve_workers`` restores are in flight at once)."""
        while True:
            try:
                envelope = yield from self.chan.recv()
            except ChannelClosed:
                return
            yield from self.pool.submit(envelope)

    # -- client side ----------------------------------------------------------

    def restore(self, path: str, recovery_id: str):
        """Generator: restore one file version; blocks until done."""
        result = yield from call(self.dlfm.sim, self.chan,
                                 {"path": path, "recovery_id": recovery_id})
        return result

    # -- server side -----------------------------------------------------------

    def _serve_one(self, envelope):
        """Pool handler: one request → dispatch → reply (the body of
        ``rpc.serve_loop``, run concurrently per worker)."""
        try:
            result = yield from self._dispatch(envelope.payload)
        except ReproError as error:
            envelope.reply.trigger(("err", error))
        else:
            envelope.reply.trigger(("ok", result))

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
