"""Unit tests for rendezvous and buffered channels."""

import pytest

from repro.errors import ChannelClosed
from repro.kernel import Channel, Simulator, Timeout


def test_rendezvous_sender_blocks_until_receiver():
    sim = Simulator()
    chan = Channel(sim)
    trace = []

    def sender():
        yield from chan.send("msg")
        trace.append(("sent", sim.now))

    def receiver():
        yield Timeout(5.0)
        msg = yield from chan.recv()
        trace.append(("recv", msg, sim.now))

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert ("sent", 5.0) in trace
    assert ("recv", "msg", 5.0) in trace


def test_rendezvous_receiver_blocks_until_sender():
    sim = Simulator()
    chan = Channel(sim)

    def receiver():
        msg = yield from chan.recv()
        return msg, sim.now

    def sender():
        yield Timeout(2.0)
        yield from chan.send(99)

    proc = sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert proc.result == (99, 2.0)


def test_fifo_ordering_across_multiple_senders():
    sim = Simulator()
    chan = Channel(sim)
    received = []

    def sender(i):
        yield from chan.send(i)

    def receiver():
        for _ in range(3):
            received.append((yield from chan.recv()))

    for i in range(3):
        sim.spawn(sender(i))
    sim.spawn(receiver())
    sim.run()
    assert received == [0, 1, 2]


def test_buffered_send_does_not_block_until_full():
    sim = Simulator()
    chan = Channel(sim, capacity=2)

    def sender():
        yield from chan.send(1)
        yield from chan.send(2)
        return sim.now

    proc = sim.spawn(sender())
    sim.run()
    assert proc.result == 0.0
    assert list(chan._buffer) == [1, 2]


def test_buffered_send_blocks_when_full_and_drains_in_order():
    sim = Simulator()
    chan = Channel(sim, capacity=1)
    out = []

    def sender():
        for i in range(3):
            yield from chan.send(i)
        out.append(("done-send", sim.now))

    def receiver():
        for _ in range(3):
            yield Timeout(1.0)
            out.append((yield from chan.recv()))

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert [x for x in out if isinstance(x, int)] == [0, 1, 2]


def test_close_wakes_blocked_receiver_with_error():
    sim = Simulator()
    chan = Channel(sim)

    def receiver():
        with pytest.raises(ChannelClosed):
            yield from chan.recv()
        return "closed"

    def closer():
        yield Timeout(1.0)
        chan.close()

    proc = sim.spawn(receiver())
    sim.spawn(closer())
    sim.run()
    assert proc.result == "closed"


def test_close_wakes_blocked_sender_with_error():
    sim = Simulator()
    chan = Channel(sim)

    def sender():
        with pytest.raises(ChannelClosed):
            yield from chan.send("x")
        return "closed"

    def closer():
        yield Timeout(1.0)
        chan.close()

    proc = sim.spawn(sender())
    sim.spawn(closer())
    sim.run()
    assert proc.result == "closed"


def test_send_on_closed_channel_raises_immediately():
    sim = Simulator()
    chan = Channel(sim)
    chan.close()

    def sender():
        with pytest.raises(ChannelClosed):
            yield from chan.send(1)
        return True
        yield  # pragma: no cover

    assert sim.run_process(sender()) is True


def test_pending_counts_buffer_and_blocked_senders():
    sim = Simulator()
    chan = Channel(sim, capacity=1)

    def sender(i):
        yield from chan.send(i)

    sim.spawn(sender(0))
    sim.spawn(sender(1))
    sim.run(until=1.0)

    def receiver():
        got = [(yield from chan.recv()), (yield from chan.recv())]
        return got, sim.now

    # One buffered + one blocked sender: both receivable without waiting.
    assert sim.run_process(receiver()) == ([0, 1], 1.0)
