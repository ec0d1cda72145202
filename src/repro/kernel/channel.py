"""Blocking message channels.

The default channel is a **rendezvous** (capacity 0): a sender suspends
until a receiver takes the message. This mirrors the paper's RPC transport,
where a host DB2 agent's message send blocks while the DLFM child agent is
still busy — the precondition of the distributed-deadlock scenario in the
"commit must be synchronous" lesson (experiment E6).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.chaos.faults import SEND_KINDS
from repro.errors import ChannelClosed, ChannelTimeout
from repro.kernel.sim import Event, Simulator, Timeout


class Channel:
    """FIFO channel with bounded buffering (``capacity=0`` → rendezvous)."""

    def __init__(self, sim: Simulator, capacity: int = 0, name: str = "chan"):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.closed = False
        self._buffer: deque[Any] = deque()
        self._senders: deque[tuple[Any, Event]] = deque()
        self._receivers: deque[Event] = deque()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"<Channel {self.name} buf={len(self._buffer)} "
                f"senders={len(self._senders)} receivers={len(self._receivers)}>")

    def close(self) -> None:
        """Close the channel; blocked and future peers get ChannelClosed."""
        if self.closed:
            return
        self.closed = True
        for _, event in self._senders:
            event.trigger(ChannelClosed(self.name))
        self._senders.clear()
        for event in self._receivers:
            event.trigger(ChannelClosed(self.name))
        self._receivers.clear()

    # -- sending ---------------------------------------------------------------

    def send(self, message: Any) -> Generator:
        """Generator: deliver ``message``, blocking until a peer/slot exists."""
        if self.closed:
            raise ChannelClosed(self.name)
        if self.sim.injector.enabled:
            rule = self.sim.injector.fire(f"channel.send:{self.name}",
                                          SEND_KINDS)
            if rule is not None:
                if rule.kind == "drop":
                    # A lost message surfaces at the sender as a transport
                    # timeout: on a rendezvous channel nobody ever took it.
                    raise ChannelTimeout(
                        f"send on {self.name} dropped by fault injection")
                yield Timeout(rule.delay)
                if self.closed:
                    raise ChannelClosed(self.name)
        receiver = self._pop_live_receiver()
        if receiver is not None:
            receiver.trigger(message)
            return
        if len(self._buffer) < self.capacity:
            self._buffer.append(message)
            return
        handoff = Event(self.sim, name=f"{self.name}.send")
        self._senders.append((message, handoff))
        with self.sim.tracer.span("channel.send", channel=self.name) as span:
            outcome = yield handoff.wait()
            if isinstance(outcome, ChannelClosed):
                span.set(outcome="closed")
                raise outcome
            span.set(outcome="ok")

    def _pop_live_receiver(self):
        """Next receiver event that still has a live waiting process.

        A process killed while blocked in recv (crash injection) leaves
        an event with no waiters; delivering to it would lose the message.
        """
        while self._receivers:
            event = self._receivers.popleft()
            if event._waiters:
                return event
        return None

    # -- receiving --------------------------------------------------------------

    def recv(self) -> Generator:
        """Generator: return the next message, blocking until one arrives."""
        if self._buffer:
            message = self._buffer.popleft()
            self._refill_from_senders()
            return message
        if self._senders:
            message, handoff = self._senders.popleft()
            handoff.trigger(None)
            return message
        if self.closed:
            raise ChannelClosed(self.name)
        arrival = Event(self.sim, name=f"{self.name}.recv")
        self._receivers.append(arrival)
        with self.sim.tracer.span("channel.recv", channel=self.name) as span:
            outcome = yield arrival.wait()
            if isinstance(outcome, ChannelClosed):
                span.set(outcome="closed")
                raise outcome
            span.set(outcome="ok")
            return outcome

    def _refill_from_senders(self) -> None:
        while self._senders and len(self._buffer) < self.capacity:
            message, handoff = self._senders.popleft()
            self._buffer.append(message)
            handoff.trigger(None)
