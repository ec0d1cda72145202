"""RPC batching with prepare piggyback (``HostConfig.batch_datalinks``).

The fast path buffers a statement's datalink ops per server and ships
them at commit as ONE ``api.Batch`` with Prepare piggybacked, so an
N-link transaction costs 2 envelopes (Batch + Commit) instead of N+3
(BeginTxn + N links + Prepare + Commit). The flag is off by default;
these tests pin the exact envelope counts and the failure semantics.
"""

import pytest

from repro.configs import Configuration
from repro.dlfm import api
from repro.dlfm.agent import ChildAgent
from repro.errors import DuplicateKeyError, LinkError, TransactionAborted
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.kernel import rpc
from repro.system import System


def build(batch: bool) -> System:
    system = System(seed=7,
                    host_config=HostConfig(batch_datalinks=batch))

    def setup():
        for i in range(8):
            system.create_user_file("fs1", f"/v/clip{i}.mpg",
                                    owner="alice", content=f"V{i}" * 20)
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("title", "TEXT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})

    system.run(setup())
    return system


def url(i: int) -> str:
    return build_url("fs1", f"/v/clip{i}.mpg")


def link_n(system: System, n: int, first_id: int = 0):
    """Generator: one transaction linking clips first_id..first_id+n-1."""
    session = system.session()
    for i in range(first_id, first_id + n):
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (i, f"clip {i}", url(i)))
    yield from session.commit()


# -- exact envelope counts ----------------------------------------------------

def test_envelope_count_without_batching():
    """Classic path: BeginTxn + 5 links + Prepare + Commit = 8."""
    system = build(batch=False)
    dlfm = system.dlfms["fs1"]
    before = dlfm.metrics.rpcs
    system.run(link_n(system, 5))
    assert dlfm.metrics.rpcs - before == 8
    assert dlfm.metrics.batches == 0
    assert dlfm.linked_count() == 5


def test_envelope_count_with_batching():
    """Fast path: Batch(5 ops, prepare piggyback) + Commit = 2."""
    system = build(batch=True)
    dlfm = system.dlfms["fs1"]
    before = dlfm.metrics.rpcs
    system.run(link_n(system, 5))
    assert dlfm.metrics.rpcs - before == 2
    assert dlfm.metrics.batches == 1
    assert dlfm.metrics.batched_ops == 5
    assert dlfm.linked_count() == 5
    # Same host-side accounting as the slow path.
    assert system.host.metrics.links_sent == 5
    assert system.host.metrics.batches_sent == 1


def test_batched_and_unbatched_reach_identical_state():
    fast, slow = build(batch=True), build(batch=False)
    for system in (fast, slow):
        system.run(link_n(system, 4))
    assert (fast.dlfms["fs1"].db.table_rows("dfm_file")
            == slow.dlfms["fs1"].db.table_rows("dfm_file"))
    assert fast.host.db.table_rows("clips") == slow.host.db.table_rows(
        "clips")


# -- failure semantics --------------------------------------------------------

def test_commit_time_batch_failure_aborts_transaction():
    """A bad link surfaces at COMMIT (flush), not at the statement; the
    whole transaction aborts and nothing is linked anywhere."""
    system = build(batch=True)
    dlfm = system.dlfms["fs1"]

    def go():
        session = system.session()
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (1, "good", url(0)))
        # The statement succeeds — the missing file is only discovered
        # when the buffered Batch reaches the DLFM at commit.
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (2, "bad", build_url("fs1", "/v/missing.mpg")))
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    assert dlfm.linked_count() == 0
    assert system.host.db.table_rows("clips") == []
    assert dlfm.db.table_rows("dfm_txn") == []
    # The session is reusable: the next transaction goes through.
    system.run(link_n(system, 1))
    assert dlfm.linked_count() == 1


def test_statement_failure_sends_nothing():
    """A failing host statement buffers nothing; rollback of earlier
    buffered ops costs zero DLFM envelopes — they never left the host."""
    system = build(batch=True)
    dlfm = system.dlfms["fs1"]
    before = dlfm.metrics.rpcs

    def go():
        plain = system.host.db.session()
        yield from plain.execute(
            "CREATE UNIQUE INDEX clips_id ON clips (id)")
        yield from plain.commit()
        session = system.session()
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (1, "first", url(0)))
        with pytest.raises(DuplicateKeyError):
            yield from session.execute(
                "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
                (1, "dup", url(1)))
        yield from session.rollback()

    system.run(go())
    assert dlfm.metrics.rpcs == before   # not a single envelope
    assert dlfm.linked_count() == 0
    assert system.host.db.table_rows("clips") == []


def test_unlink_relink_order_preserved_in_batch():
    """UPDATE a→b then b→a inside one transaction: the batch carries
    [unlink a, link b, unlink b, link a] in order and lands on a."""
    system = build(batch=True)
    dlfm = system.dlfms["fs1"]
    system.run(link_n(system, 1))

    def go():
        session = system.session()
        yield from session.execute(
            "UPDATE clips SET video = ? WHERE id = ?", (url(1), 0))
        yield from session.execute(
            "UPDATE clips SET video = ? WHERE id = ?", (url(0), 0))
        yield from session.commit()

    system.run(go())
    assert dlfm.linked_count() == 1
    state_at = dlfm.db.catalog.tables["dfm_file"].position("state")
    name_at = dlfm.db.catalog.tables["dfm_file"].position("filename")
    linked = [row[name_at] for row in dlfm.db.table_rows("dfm_file")
              if row[state_at] == "linked"]
    assert linked == ["/v/clip0.mpg"]


# -- the agent's in-batch compensation ---------------------------------------

def test_batch_compensates_completed_ops_on_failure():
    """Direct protocol: a Batch of [good, bad] leaves the local
    transaction exactly as before; a following [good] Batch succeeds in
    the same transaction."""
    system = build(batch=True)
    dlfm = system.dlfms["fs1"]
    dbid = system.host.dbid
    grp_id = system.host.group_ids[("clips", "video")]

    def go():
        chan = dlfm.connect()
        good = api.LinkFile(dbid, 777, "/v/clip0.mpg", grp_id, "r-001")
        bad = api.LinkFile(dbid, 777, "/v/missing.mpg", grp_id, "r-002")
        with pytest.raises(LinkError):
            yield from rpc.call(system.sim, chan,
                                api.Batch(dbid, 777, (good, bad)))
        # good was compensated: nothing is linked mid-transaction.
        yield from rpc.call(system.sim, chan,
                            api.Batch(dbid, 777, (good,), prepare=True))
        yield from rpc.call(system.sim, chan, api.Commit(dbid, 777))
        chan.close()

    system.run(go())
    assert dlfm.linked_count() == 1
    assert dlfm.db.table_rows("dfm_txn") == []


def test_registration_never_rides_a_batch(monkeypatch):
    """Under ``all_on`` a table created inside a transaction registers
    its group with one call of its own, so a mid-batch failure at commit
    compensates the batched links and never a RegisterGroup; the abort
    takes the registration back."""
    system = Configuration("all_on").system(seed=7)
    batched, compensated = [], []
    real_batch, real_forward = ChildAgent._batch, ChildAgent._forward

    def spy_batch(self, req):
        batched.extend(type(op) for op in req.ops)
        return (yield from real_batch(self, req))

    def spy_forward(self, op):
        if getattr(op, "in_backout", False):
            compensated.append(type(op))
        return (yield from real_forward(self, op))

    monkeypatch.setattr(ChildAgent, "_batch", spy_batch)
    monkeypatch.setattr(ChildAgent, "_forward", spy_forward)

    def go():
        for i in range(2):
            system.create_user_file("fs1", f"/v/clip{i}.mpg", owner="alice",
                                    content="V")
        session = system.session()
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("video", "TEXT")],
            {"video": DatalinkSpec(recovery=False)}, session=session)
        yield from session.execute(
            "INSERT INTO clips (id, video) VALUES (?, ?)", (0, url(0)))
        yield from session.execute(
            "INSERT INTO clips (id, video) VALUES (?, ?)", (1, url(1)))
        yield from session.execute(
            "INSERT INTO clips (id, video) VALUES (?, ?)",
            (2, build_url("fs1", "/v/missing.mpg")))
        with pytest.raises(TransactionAborted):
            yield from session.commit()

    system.run(go())
    assert batched == [api.LinkFile] * 3
    assert compensated == [api.LinkFile] * 2
    assert system.dlfms["fs1"].db.table_rows("dfm_group") == []
