"""Deterministic discrete-event simulation kernel.

All concurrent actors in the reproduction (host database agents, DLFM child
agents, the six DLFM daemons, workload clients) are generator-based
processes scheduled on a virtual clock. This is what makes the paper's
"100 clients for 24 hours" system test runnable — and bit-for-bit
reproducible — inside a test suite.

Protocol
--------
A process is a Python generator. It suspends by yielding one of:

* ``Timeout(delay)`` — resume after ``delay`` simulated seconds.
* ``event.wait(timeout=None)`` — resume when the :class:`Event` triggers
  (receiving the trigger value) or, if ``timeout`` elapses first, with the
  :data:`TIMEOUT` sentinel.

Sub-operations that may block are ordinary generators composed with
``yield from``. Channels (:class:`Channel`) provide blocking rendezvous
message passing, which the paper's distributed-deadlock lesson (E6)
depends on.
"""

from repro.kernel.sim import (
    TIMEOUT,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.kernel.channel import Channel
from repro.kernel.pool import PoolMetrics, WorkerPool

__all__ = [
    "TIMEOUT",
    "Channel",
    "Event",
    "PoolMetrics",
    "Process",
    "Simulator",
    "Timeout",
    "WorkerPool",
]
