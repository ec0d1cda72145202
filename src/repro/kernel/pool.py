"""Worker pools: N processes draining a shared rendezvous channel.

The daemons the paper makes *asynchronous* (Copy, Retrieve,
Delete-Group, Fig. 5) were still strictly *serial* in this
reproduction. A :class:`WorkerPool` gives them real concurrency while
staying inside the deterministic kernel: ``workers`` generator
processes block on one work :class:`~repro.kernel.channel.Channel`
(a rendezvous: the producer hands each item to an idle worker, or waits
for one), run a shared ``handler(item)`` generator per item, and
overlap wherever the handler yields (archive transfers, lock waits,
chown round-trips).

Lifecycle contract (what DLFM ``start``/``stop``/``crash`` rely on):

* :meth:`start` builds a FRESH channel and spawns fresh worker
  processes — work queued before a crash dies with the crash, exactly
  like the paper's daemons, and must be re-discovered from durable
  state (the Copy daemon's claim protocol, the Delete-Group restart
  rescan);
* :meth:`stop` kills the workers and releases anyone blocked in
  :meth:`drain` (a drain over a stopped pool cannot complete — the
  caller re-drives from durable state after restart);
* :meth:`drain` blocks until every submitted item has been handled,
  which is what keeps ``CopyDaemon.sweep`` synchronous for its callers
  even though the entries archive in parallel.

Fault injection: when a ``crash_point`` is configured, every item
pickup fires ``daemon.worker:<node>:<daemon>`` through the simulator's
injector *before* the handler runs — a worker crash therefore lands
between "work handed out" and "work done", the window the crash-safe
claim protocols must cover.

Handler failures that are not crashes (aborts, transient I/O) are
absorbed and counted (``metrics.errors``): a pool worker, like the
serial daemon loop it replaces, must outlive retriable trouble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.errors import ChannelClosed, CrashedError, ReproError, SimError
from repro.kernel.channel import Channel
from repro.kernel.sim import Event, Process, Simulator


@dataclass
class PoolMetrics:
    """Lifetime work accounting for one pool (survives restarts)."""

    #: Items handed to :meth:`WorkerPool.submit`.
    submitted: int = 0
    #: Items whose handler ran to completion (including absorbed errors).
    completed: int = 0
    #: Handler failures absorbed by the worker loop (non-crash).
    errors: int = 0
    #: High-water mark of the work queue depth observed at submit time.
    max_depth: int = 0
    #: Total simulated seconds workers spent inside the handler.
    busy_time: float = 0.0


class WorkerPool:
    """N simulator processes pulling work items off a shared channel."""

    def __init__(self, sim: Simulator, name: str,
                 handler: Callable[..., Generator], *, workers: int = 1,
                 crash_point: Optional[str] = None, crash_node: str = ""):
        if workers < 1:
            raise SimError(f"pool {name} needs at least one worker")
        self.sim = sim
        self.name = name
        self.handler = handler
        self.workers = workers
        self.crash_point = crash_point
        self.crash_node = crash_node
        self.metrics = PoolMetrics()
        self.chan: Optional[Channel] = None
        #: Workers currently inside the handler (gauge).
        self.busy = 0
        self._procs: list[Process] = []
        self._outstanding = 0
        self._drainers: list[Event] = []

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"<WorkerPool {self.name} workers={len(self._procs)} "
                f"busy={self.busy} outstanding={self._outstanding}>")

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> list[Process]:
        """(Re)create the work queue and spawn the workers.

        Returns the worker processes so the owner can track them the way
        DLFM tracks its daemon processes. Items queued before a restart
        are dropped with the old channel (crash semantics).
        """
        self.stop()
        self.chan = Channel(self.sim, name=f"{self.name}.q")
        self._outstanding = 0
        self.busy = 0
        self._procs = [self.sim.spawn(self._worker(), f"{self.name}-w{i}")
                       for i in range(self.workers)]
        return list(self._procs)

    def stop(self) -> None:
        """Kill the workers and release blocked drainers."""
        for proc in self._procs:
            if not proc.finished:
                proc.kill()
        self._procs = []
        self._wake_drainers()

    @property
    def alive(self) -> int:
        """Workers still able to pick up work."""
        return sum(1 for p in self._procs
                   if not p.finished and not p._killed)

    # ------------------------------------------------------------------ producing

    def submit(self, item) -> Generator:
        """Generator: enqueue one item, blocking on backpressure."""
        if not self._procs:
            raise SimError(f"pool {self.name} is not started")
        self.metrics.submitted += 1
        self._outstanding += 1
        try:
            yield from self.chan.send(item)
        except BaseException:
            self._outstanding -= 1
            raise
        depth = self.chan.pending
        if depth > self.metrics.max_depth:
            self.metrics.max_depth = depth

    def drain(self) -> Generator:
        """Generator: wait until every submitted item has been handled.

        Returns immediately when nothing is outstanding; returns early
        (work incomplete) if the pool is stopped or crashes — the caller
        recovers through durable state, not through this gate.
        """
        while self._outstanding and self._procs:
            gate = Event(self.sim, name=f"{self.name}.drain")
            self._drainers.append(gate)
            yield gate.wait()

    def _wake_drainers(self) -> None:
        drainers, self._drainers = self._drainers, []
        for gate in drainers:
            gate.trigger(None)

    # ------------------------------------------------------------------ workers

    def _worker(self) -> Generator:
        chan = self.chan
        while True:
            try:
                item = yield from chan.recv()
            except ChannelClosed:
                return
            if self.sim.injector.enabled and self.crash_point is not None:
                # The hazard window: the item left the queue but the
                # handler has not run. Crash-safe daemons must make work
                # re-discoverable from durable state at this point.
                self.sim.injector.maybe_crash(self.crash_point,
                                              self.crash_node)
            self.busy += 1
            started = self.sim.now
            try:
                yield from self.handler(item)
            except CrashedError:
                raise  # node crash mid-item: the worker dies with it
            except ReproError:
                self.metrics.errors += 1
            finally:
                self.busy -= 1
                self.metrics.busy_time += self.sim.now - started
            self.metrics.completed += 1
            self._outstanding -= 1
            if self._outstanding == 0:
                self._wake_drainers()
