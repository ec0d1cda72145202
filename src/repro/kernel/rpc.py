"""Request/reply messaging over channels.

``call`` is the synchronous RPC the DataLinks components use: send the
request (blocking until the peer's agent is ready to receive — faithful
to the paper, where a host agent's message send blocks while the DLFM
child agent is still busy) and wait for the reply. ``cast`` sends
without waiting for completion and returns the reply event — the
*asynchronous commit* mode whose distributed deadlock is experiment E6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.chaos.faults import DUP_KINDS, REPLY_KINDS
from repro.errors import ChannelClosed, CrashedError, ReproError, SimError
from repro.kernel.channel import Channel
from repro.kernel.sim import TIMEOUT, Event, Simulator, Timeout

#: 2PC verbs that are protocol-idempotent (the receiver answers
#: "already finished" on redelivery) and therefore legal targets for
#: duplicate-delivery injection.
IDEMPOTENT_VERBS = frozenset({"Commit", "Abort", "ListIndoubt"})


@dataclass(slots=True)
class Envelope:
    payload: Any
    reply: Event


def call(sim: Simulator, chan: Channel, payload: Any,
         timeout: Optional[float] = None):
    """Generator: synchronous RPC; re-raises the remote exception."""
    with sim.tracer.span("rpc.call", channel=chan.name,
                         request=type(payload).__name__,
                         nops=_payload_nops(payload)):
        reply = yield from cast(sim, chan, payload)
        return (yield from wait_reply(reply, timeout))


def cast(sim: Simulator, chan: Channel, payload: Any):
    """Generator: send the request; return the reply event immediately.

    The *send itself* still blocks until the peer agent issues a receive
    (rendezvous), which is exactly the hazard of asynchronous commit.
    A vectored payload changes nothing here: a Batch is still ONE
    blocking rendezvous, so the E6 deadlock preconditions are preserved.
    """
    reply = Event(sim, latch=True, name="rpc-reply")
    yield from chan.send(Envelope(payload, reply))
    verb = type(payload).__name__
    if sim.injector.enabled and verb in IDEMPOTENT_VERBS:
        rule = sim.injector.fire(f"rpc.dup:{verb}", DUP_KINDS)
        if rule is not None:
            # At-least-once transport: deliver the request a second time.
            # The duplicate carries its own reply event (a latched event
            # must not trigger twice); its outcome is discarded.
            shadow = Event(sim, latch=True, name="rpc-reply-dup")
            try:
                yield from chan.send(Envelope(payload, shadow))
            except ReproError:
                pass
    return reply


def _payload_nops(payload: Any) -> int:
    """Logical operations riding in one physical message: each op of a
    vectored payload (a :class:`repro.dlfm.api.Batch`), else 1."""
    ops = getattr(payload, "ops", None)
    return len(ops) if ops is not None else 1


def _outcome(gen):
    """Generator: run ``gen``; a protocol error is its outcome, not its
    failure, so a fan-out child never fails unjoined when its gatherer
    is gone (crashed or killed) or has yet to reach it."""
    try:
        return (yield from gen)
    except ReproError as error:
        return error


def _fanout_faults(sim: Simulator, fault_point: str,
                   fault_node: Optional[str]):
    """Generator: fire the scatter→gather chaos window at ``fault_point``.

    A ``delay`` rule stalls the gatherer while the scattered requests are
    in flight; a ``crash`` rule takes ``fault_node`` down mid-fan-out —
    the coordinator dies *between* scatter and gather, the window where
    parallel prepare leaves every participant in doubt at once.
    """
    rule = sim.injector.fire(fault_point, ("delay",))
    if rule is not None:
        yield Timeout(rule.delay)
    if fault_node is not None:
        sim.injector.maybe_crash(fault_point, fault_node)


def gather_all(sim: Simulator, gens, *, name: str = "gather",
               return_exceptions: bool = False,
               fault_point: Optional[str] = None,
               fault_node: Optional[str] = None):
    """Generator: run ``gens`` concurrently and drain EVERY outcome.

    Every process's outcome is consumed before returning. With
    ``return_exceptions=False`` the first protocol error (in ``gens``
    order) is re-raised *after* the drain; with True the returned list
    carries the error objects in place of results. Any other exception
    is a bug and fails its process.

    A child process ends with its outcome whether or not anyone joins
    it: if a crash fault fires inside the scatter→gather window, or the
    gatherer is killed while it drains, the outstanding requests finish
    on their own and no failure is left behind.
    """
    procs = [sim.spawn(_outcome(gen), f"{name}-{i}")
             for i, gen in enumerate(gens)]
    if fault_point is not None and sim.injector.enabled:
        yield from _fanout_faults(sim, fault_point, fault_node)
    results = []
    for proc in procs:
        results.append((yield from proc.join()))
    errors = [r for r in results if isinstance(r, ReproError)]
    if errors and not return_exceptions:
        raise errors[0]
    return results


def wait_reply(reply: Event, timeout: Optional[float] = None):
    """Generator: await a reply event from ``cast``."""
    outcome = yield reply.wait(timeout)
    if outcome is TIMEOUT:
        raise SimError("rpc reply timed out")
    kind, value = outcome
    if kind == "err":
        raise value
    return value


def serve_loop(chan: Channel, dispatch):
    """Generator: agent main loop — receive, dispatch, reply, repeat.

    ``dispatch`` is a generator callable(payload) → result. The loop ends
    when the channel closes. While a request is being processed the agent
    is NOT receiving, so further senders block (rendezvous) — the paper's
    message-send blocking behaviour. A server killed mid-request (its
    node crashed) answers that request with :class:`CrashedError`, as a
    connection reset would, instead of leaving the caller hanging.
    """
    while True:
        try:
            envelope = yield from chan.recv()
        except ChannelClosed:
            return
        try:
            result = yield from dispatch(envelope.payload)
        except ReproError as error:
            outcome = ("err", error)
        except GeneratorExit:
            envelope.reply.trigger(("err", CrashedError(
                f"{chan.name} server died serving the request")))
            raise
        else:
            outcome = ("ok", result)
        sim = chan.sim
        if sim.injector.enabled and sim.injector.fire(
                f"rpc.reply:{chan.name}", REPLY_KINDS) is not None:
            # Partition/heal: the request was delivered and fully
            # processed, but the reply is lost on the way back. The
            # caller is left hanging exactly as a healed network
            # partition would leave it — its state must be resolved by
            # re-drive (idempotent verbs) or the in-doubt poller.
            continue
        envelope.reply.trigger(outcome)
