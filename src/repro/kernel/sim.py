"""Core of the discrete-event kernel: clock, processes, events, timers.

The pending heap holds ``(when, seq, target, value)``. A sleeping, woken
or newly spawned process is its own heap entry — ``target`` is the
:class:`Process` and the run loop steps it with ``value`` — so the
common suspensions build no callback. A :class:`Timer` (``target`` is
the timer, ``value`` unused) exists only where somebody keeps the handle
to cancel it or wants an arbitrary function run: :meth:`Simulator.after`,
the timeout of an ``event.wait(timeout)``. Either kind draws one ``seq``
per push, so same-instant entries run in push order whatever their kind.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from typing import Any, Callable, Generator, Optional

from repro.chaos.faults import NULL_INJECTOR
from repro.errors import SimError
from repro.obs.trace import NULL_TRACER


class _Sentinel:
    """Named singleton used for out-of-band resume values."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{self._name}>"


#: Resume value delivered to a waiter whose ``wait(timeout=...)`` expired.
TIMEOUT = _Sentinel("TIMEOUT")

#: Internal marker distinguishing "never triggered" from "triggered with None".
_UNSET = _Sentinel("UNSET")


class Timeout:
    """Yield this to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Timeout({self.delay})"


class _Wait:
    """Descriptor produced by :meth:`Event.wait`; handled by the kernel."""

    __slots__ = ("event", "timeout")

    def __init__(self, event: "Event", timeout: Optional[float]):
        self.event = event
        self.timeout = timeout


class Timer:
    """Cancelable one-shot timer entry on the simulator heap."""

    __slots__ = ("fn", "cancelled", "when")

    def __init__(self, fn: Callable[[], None], when: float):
        self.fn = fn
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Event:
    """Broadcast wakeup primitive.

    ``trigger(value)`` wakes every process currently waiting and, for a
    *latched* event, remembers the value so later waiters return
    immediately (used for process-join and RPC replies).
    """

    __slots__ = ("sim", "latch", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", latch: bool = False, name: str = ""):
        self.sim = sim
        self.latch = latch
        self.name = name
        self._value: Any = _UNSET
        self._waiters: list["_Waiter"] = []

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimError(f"event {self.name!r} not triggered")
        return self._value

    def wait(self, timeout: Optional[float] = None) -> _Wait:
        """Return a descriptor to ``yield``; resumes with the trigger value."""
        return _Wait(self, timeout)

    def trigger(self, value: Any = None) -> None:
        if self.latch:
            if self._value is not _UNSET:
                raise SimError(f"latched event {self.name!r} triggered twice")
            self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.wake(value)

    def _add_waiter(self, waiter: "_Waiter") -> None:
        if self.latch and self._value is not _UNSET:
            waiter.wake(self._value)
        else:
            self._waiters.append(waiter)

    def _remove_waiter(self, waiter: "_Waiter") -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass


class _Waiter:
    """Bookkeeping for one process blocked on one event (with timeout)."""

    __slots__ = ("proc", "event", "timer", "done")

    def __init__(self, proc: "Process", event: Event, timeout: Optional[float]):
        self.proc = proc
        self.event = event
        self.done = False
        self.timer: Optional[Timer] = None
        if timeout is not None:
            self.timer = proc.sim.after(timeout, self._expire)
        proc._pending_waiter = self
        event._add_waiter(self)

    def wake(self, value: Any) -> None:
        if self.done:
            return
        self.done = True
        if self.timer is not None:
            self.timer.cancel()
        if self.proc._pending_waiter is self:
            self.proc._pending_waiter = None
        sim = self.proc.sim
        sim._resume(self.proc, value, sim.now)

    def _expire(self) -> None:
        if self.done:
            return
        self.done = True
        self.event._remove_waiter(self)
        if self.proc._pending_waiter is self:
            self.proc._pending_waiter = None
        self.proc._step(TIMEOUT)

    def cancel(self) -> None:
        """Detach from the event without resuming the process (kill)."""
        if self.done:
            return
        self.done = True
        if self.timer is not None:
            self.timer.cancel()
        self.event._remove_waiter(self)


class Process:
    """A generator driven by the simulator.

    ``proc.done`` is a latched event triggered with ``("ok", result)`` or
    ``("err", exception)``. :meth:`join` re-raises failures in the joiner.
    """

    _ids = itertools.count(1)

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.gen = gen
        self.pid = next(Process._ids)
        self.name = name or f"proc-{self.pid}"
        self.done = Event(sim, latch=True, name=f"{self.name}.done")
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._killed = False
        self._pending_waiter: Optional["_Waiter"] = None
        sim._resume(self, None, sim.now)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "done" if self.finished else "live"
        return f"<Process {self.name} {state}>"

    def kill(self) -> None:
        """Terminate the process without running its remaining code.

        Used by crash injection: a killed daemon simply stops being
        scheduled, exactly like a process that dies in a machine crash.
        Any pending event wait is detached so queues (channels, locks)
        don't deliver to a corpse.
        """
        self._killed = True
        if self._pending_waiter is not None:
            self._pending_waiter.cancel()
            self._pending_waiter = None
        if self.sim._current_proc is not self:
            # Closing the generator of the *currently executing* process
            # would throw GeneratorExit into a running frame (crash
            # injection crashes the node from inside one of its own
            # processes). Marking it killed is enough: it never steps
            # again.
            self.gen.close()

    def join(self, timeout: Optional[float] = None) -> Generator:
        """Wait for completion; returns the result or re-raises its error."""
        outcome = yield self.done.wait(timeout)
        if outcome is TIMEOUT:
            return TIMEOUT
        kind, payload = outcome
        if kind == "err":
            # The joiner consumes (and re-raises) the failure, so it is
            # handled even when the process finished before this join
            # registered a waiter (e.g. a scatter-gather straggler).
            self.sim.absolve(self)
            raise payload
        return payload

    # -- kernel-side stepping ------------------------------------------------

    def _step(self, value: Any, exc: Optional[BaseException] = None) -> None:
        if self.finished or self._killed:
            return
        prev = self.sim._current_proc
        self.sim._current_proc = self
        try:
            try:
                if exc is not None:
                    item = self.gen.throw(exc)
                else:
                    item = self.gen.send(value)
            except StopIteration as stop:
                self._finish("ok", stop.value)
                return
            except BaseException as error:
                self._finish("err", error)
                return
            self._dispatch(item)
        finally:
            self.sim._current_proc = prev

    def _finish(self, kind: str, payload: Any) -> None:
        self.finished = True
        if kind == "ok":
            self.result = payload
        else:
            self.error = payload
            if not self.done._waiters:
                # Nobody is joining this process: surface the error through
                # Simulator.run() instead of letting it vanish.
                self.sim._record_failure(self, payload)
        self.done.trigger((kind, payload))

    def _dispatch(self, item: Any) -> None:
        if isinstance(item, Timeout):
            sim = self.sim
            sim._resume(self, None, sim.now + item.delay)
        elif isinstance(item, _Wait):
            _Waiter(self, item.event, item.timeout)
        else:
            self._step(
                None,
                exc=SimError(
                    f"process {self.name} yielded {item!r}; expected "
                    "Timeout or Event.wait()"
                ),
            )


class Simulator:
    """Virtual clock plus the pending-callback heap."""

    def __init__(self, seed: int = 0, tracer=None, injector=None):
        self.now = 0.0
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.injector.bind(self)
        self._current_proc: Optional[Process] = None
        #: (when, seq, Process to step | Timer to fire, resume value)
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()
        self._failures: list[tuple[Process, BaseException]] = []
        self._rng_cache: dict[str, random.Random] = {}

    @property
    def process_name(self) -> str:
        """Name of the process currently being stepped ("kernel" if none)."""
        proc = self._current_proc
        return proc.name if proc is not None else "kernel"

    # -- scheduling -----------------------------------------------------------

    def after(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` after ``delay`` simulated seconds; returns a Timer."""
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        timer = Timer(fn, self.now + delay)
        heapq.heappush(self._heap, (timer.when, next(self._seq), timer, None))
        return timer

    def _resume(self, proc: Process, value: Any, when: float) -> None:
        """Step ``proc`` with ``value`` at ``when`` (not cancelable: a
        killed or finished process ignores the step)."""
        heapq.heappush(self._heap, (when, next(self._seq), proc, value))

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register ``gen`` as a process; it starts at the current time."""
        return Process(self, gen, name)

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[float] = None, *, raise_failures: bool = True,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Drain the event heap, optionally stopping the clock at ``until``.

        ``stop_when`` halts the loop as soon as the predicate turns true
        (checked after each fired timer) — used to stop when a root
        process completes even though daemons keep re-arming timers.
        Unhandled process exceptions are collected and re-raised here (the
        first one) so tests fail loudly; pass ``raise_failures=False`` for
        experiments that deliberately crash processes.
        """
        if stop_when is not None and stop_when():
            return
        heap = self._heap
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                break
            _, _, target, value = heapq.heappop(heap)
            if type(target) is Process:
                self.now = when
                target._step(value)
            elif target.cancelled:
                continue
            else:
                self.now = when
                target.fn()
            if raise_failures and self._failures:
                proc, error = self._failures[0]
                raise SimError(f"process {proc.name} failed") from error
            if stop_when is not None and stop_when():
                return
        if until is not None and self.now < until:
            self.now = until

    def run_process(self, gen: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Spawn ``gen``, run the simulation, and return its result.

        The root process's own exception propagates as-is; failures of
        other unjoined processes surface as SimError.
        """
        proc = self.spawn(gen, name or "main")
        self.run(until=until, raise_failures=False,
                 stop_when=lambda: proc.finished)
        if proc.error is not None:
            self._failures = [f for f in self._failures if f[0] is not proc]
            raise proc.error
        if self._failures:
            other, error = self._failures[0]
            raise SimError(f"process {other.name} failed") from error
        if not proc.finished:
            raise SimError(f"process {proc.name} did not finish by t={self.now}")
        return proc.result

    # -- failure bookkeeping ----------------------------------------------------

    def _record_failure(self, proc: Process, error: BaseException) -> None:
        self._failures.append((proc, error))

    def absolve(self, proc: Process) -> None:
        """Forget a recorded unhandled failure of ``proc``.

        A process that fails before anyone waits on its ``done`` event is
        recorded as unhandled at finalize time; a consumer that later
        reads the outcome off the latched event (join, scatter-gather)
        calls this so the handled error does not also fail the run.
        """
        self._failures = [f for f in self._failures if f[0] is not proc]

    def consume_failures(self) -> list[tuple[Process, BaseException]]:
        """Return and clear unhandled process failures (for crash tests)."""
        failures, self._failures = self._failures, []
        return failures

    # -- deterministic randomness -------------------------------------------------

    def stream(self, name: str) -> random.Random:
        """A named RNG stream, stable across runs for a given (seed, name)."""
        rng = self._rng_cache.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rng_cache[name] = rng
        return rng
