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
depends on. Concurrency comes in two idioms, both in :mod:`.rpc`: a
server loop (``serve_loop``: N processes may serve one channel) and a
fan-out of processes (``gather_all``); a process killed with its node
(:meth:`Process.kill`) never completes, so nothing may join it.
"""

from repro.kernel.sim import (
    TIMEOUT,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.kernel.channel import Channel

__all__ = [
    "TIMEOUT",
    "Channel",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
]
