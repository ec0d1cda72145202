"""A link pays only for DLFM work someone reads.

The child agent remembers its transaction's group fences, unlinked paths
and kinds of work (``manager.TxnFacts``); Prepare writes the kinds into
``dfm_txn.work`` and phase-2 Commit runs only the sweeps they need —
from the durable column, on any session and after any crash. These
tests drive the DLFM protocol directly (dbid ``proto``, which no host
resolves) and through the host for the statement counts.
"""

import pytest

from repro.dlff.filter import DLFM_ADMIN
from repro.dlfm import api, schema
from repro.errors import LinkError
from repro.fs.filesystem import READ_ONLY, READ_WRITE
from repro.kernel import rpc
from repro.system import System

from tests.dlfm.conftest import insert_clip

DBID = "proto"
GROUP = 1


def deployment(servers=("fs1",)):
    """Files /f0../f3 on every server; group GROUP on the first."""
    system = System(seed=7, servers=servers)
    for server in servers:
        for i in range(4):
            system.create_user_file(server, f"/f{i}", owner="alice")
    run_txn(system, servers[0], 1,
            api.RegisterGroup(DBID, 1, GROUP, "t", "c", epoch=0))
    send(system, servers[0], api.Commit(DBID, 1))
    return system


def send(system, server, *reqs):
    """Each request on one fresh connection, in order; the replies."""
    def go():
        chan = system.dlfms[server].connect()
        replies = []
        for req in reqs:
            replies.append((yield from rpc.call(system.sim, chan, req)))
        chan.close()
        return replies
    return system.run(go())


def run_txn(system, server, txn_id, *ops, prepare=True):
    """One DLFM transaction: BeginTxn, ``ops``, then Prepare."""
    reqs = [api.BeginTxn(DBID, txn_id), *ops]
    if prepare:
        reqs.append(api.Prepare(DBID, txn_id))
    return send(system, server, *reqs)


def link(txn_id, i, rid, access_ctl="full", recovery="yes"):
    return api.LinkFile(DBID, txn_id, f"/f{i}", GROUP, rid,
                        access_ctl=access_ctl, recovery=recovery)


def unlink(txn_id, i, rid):
    return api.UnlinkFile(DBID, txn_id, f"/f{i}", rid)


def work_of(system, txn_id, server="fs1"):
    db = system.dlfms[server].db
    names = db.catalog.tables["dfm_txn"].column_names
    [row] = [dict(zip(names, r)) for r in db.table_rows("dfm_txn")
             if r[1] == txn_id]
    return row["work"]


def crash_restart_commit(system, txn_id, servers=("fs1",)):
    """The DLFM crashes between Prepare and Commit; phase 2 then runs
    on a fresh session of the restarted DLFM, from the durable row."""
    for server in servers:
        system.dlfms[server].crash()
        system.dlfms[server].restart()
    return [send(system, server, api.Commit(DBID, txn_id))[0]
            for server in servers]


def entry(system, i, state, server="fs1"):
    names = system.dlfms[server].db.catalog.tables["dfm_file"].column_names
    rows = [dict(zip(names, r)) for r in system.dlfms[server].file_entries()
            if r[0] == f"/f{i}" and r[8] == state]
    assert len(rows) == 1, rows
    return rows[0]


def node(system, i, server="fs1"):
    return system.servers[server].fs.stat(f"/f{i}")


# -- (b) phase 2 after a crash finishes each kind from the durable column -----

def test_link_only_phase2_after_a_crash_takes_over():
    system = deployment()
    run_txn(system, "fs1", 2, link(2, 0, "r2"))
    assert work_of(system, 2) == "link"
    assert crash_restart_commit(system, 2)[0]["outcome"] == "committed"
    assert node(system, 0).owner == DLFM_ADMIN
    assert entry(system, 0, schema.ST_LINKED)["link_txn"] == 2
    assert system.dlfms["fs1"].db.table_rows("dfm_txn") == []


def test_unlink_only_phase2_after_a_crash_releases():
    system = deployment()
    run_txn(system, "fs1", 2, link(2, 0, "r2"))
    send(system, "fs1", api.Commit(DBID, 2))
    run_txn(system, "fs1", 3, unlink(3, 0, "r3"))
    assert work_of(system, 3) == "unlink"
    crash_restart_commit(system, 3)
    assert (node(system, 0).owner, node(system, 0).mode) == ("alice",
                                                             READ_WRITE)
    assert entry(system, 0, schema.ST_UNLINKED)["unlink_txn"] == 3
    assert system.dlfms["fs1"].linked_count() == 0


def test_relink_phase2_after_a_crash_ends_taken_over():
    system = deployment()
    run_txn(system, "fs1", 2, link(2, 0, "r2"))
    send(system, "fs1", api.Commit(DBID, 2))
    run_txn(system, "fs1", 3, unlink(3, 0, "r3"), link(3, 0, "r4"))
    assert work_of(system, 3) == "link,unlink"
    crash_restart_commit(system, 3)
    assert node(system, 0).owner == DLFM_ADMIN
    relinked = entry(system, 0, schema.ST_LINKED)
    assert (relinked["recovery_id"], relinked["orig_owner"],
            relinked["orig_mode"]) == ("r4", "alice", READ_WRITE)
    assert entry(system, 0, schema.ST_UNLINKED)["unlink_txn"] == 3


def test_a_move_phase2_after_a_crash_flips_both_shards():
    system = deployment(servers=("fs1", "fs2"))
    run_txn(system, "fs1", 2, link(2, 0, "r2", recovery="no"))
    send(system, "fs1", api.Commit(DBID, 2))
    [_, exported, _] = run_txn(system, "fs1", 3,
                               api.ExportGroup(DBID, 3, GROUP))
    run_txn(system, "fs2", 3,
            api.ImportGroup(DBID, 3, GROUP, exported["group_row"],
                            exported["file_rows"], epoch=2))
    assert work_of(system, 3, "fs1") == work_of(system, 3, "fs2") == "move"
    crash_restart_commit(system, 3, servers=("fs1", "fs2"))
    source, dest = system.dlfms["fs1"], system.dlfms["fs2"]
    assert source.db.table_rows("dfm_group") == []
    assert source.file_entries() == []
    [moved] = dest.db.table_rows("dfm_group")
    assert (moved[4], moved[8]) == (schema.GRP_ACTIVE, 2)
    assert [r[0] for r in dest.file_entries()] == ["/f0"]


def test_a_utility_row_with_no_work_runs_every_sweep():
    """A LOAD's first CommitPiece writes the in-flight row with no work
    recorded; its Prepare keeps that row, so phase 2 — after a crash
    too — runs every sweep and takes over the files of every piece."""
    system = deployment()
    run_txn(system, "fs1", 2, link(2, 0, "r2"), api.CommitPiece(DBID, 2),
            link(2, 1, "r3"))
    assert work_of(system, 2) is None
    crash_restart_commit(system, 2)
    assert node(system, 0).owner == node(system, 1).owner == DLFM_ADMIN
    assert system.dlfms["fs1"].linked_count() == 2
    assert system.dlfms["fs1"].db.table_rows("dfm_txn") == []


# -- (c) a relink behind another transaction's prepared unlink ----------------

@pytest.mark.parametrize("access_ctl", ["full", "partial"])
def test_a_relink_behind_a_prepared_unlink_keeps_the_true_originals(
        access_ctl):
    """T1's unlink of F is prepared and its phase 2 held; T2 links F.
    The file is still taken over (owner or write bit), so T2 inherits the
    originals from T1's unlinking entry rather than the live stat."""
    system = deployment()
    run_txn(system, "fs1", 2, link(2, 0, "r2", access_ctl))
    send(system, "fs1", api.Commit(DBID, 2))
    assert node(system, 0).mode == READ_ONLY
    run_txn(system, "fs1", 3, unlink(3, 0, "r3"))          # held
    run_txn(system, "fs1", 4, link(4, 0, "r4", access_ctl))
    relinked = entry(system, 0, schema.ST_LINKED)
    assert (relinked["orig_owner"], relinked["orig_mode"]) == ("alice",
                                                               READ_WRITE)


# -- the group fence: read once per transaction, dropped when it moves --------

def count_fences(system, monkeypatch):
    texts = []
    db = system.dlfms["fs1"].db
    real = db.bind_plan

    def bind(sql, stmt=None):
        if sql.startswith("SELECT state, epoch FROM dfm_group"):
            texts.append(sql)
        return real(sql, stmt)

    monkeypatch.setattr(db, "bind_plan", bind)
    return texts


def test_one_group_fence_per_transaction(monkeypatch):
    system = deployment()
    fences = count_fences(system, monkeypatch)
    run_txn(system, "fs1", 2, *(link(2, i, f"r{i}") for i in range(4)))
    assert len(fences) == 1


def test_delete_group_drops_the_remembered_fence():
    """A link after the same transaction's DeleteGroup reads the group
    again and finds it deleted; a remembered row would link into it."""
    system = deployment()
    with pytest.raises(LinkError):
        run_txn(system, "fs1", 2, link(2, 0, "r2"),
                api.DeleteGroup(DBID, 2, GROUP), link(2, 1, "r3"))


# -- (d) statements per transaction at the DLFM -----------------------------

@pytest.mark.parametrize("links, statements", [(1, 8), (4, 14)])
def test_dlfm_statements_per_link_transaction(media, links, statements):
    """Forward ops, Prepare and phase-2 Commit of one host transaction:
    one group fence, one INSERT per link, no unlinking probe; Prepare's
    row check and INSERT; phase 2's row lock, the linked sweep, one
    archive INSERT per link and the row DELETE. 13 and 25 before the
    agent remembered its transaction's facts."""
    db = media.dlfms["fs1"].db
    before = db.metrics.statements

    def go():
        session = media.session()
        for i in range(links):
            yield from insert_clip(session, i)
        yield from session.commit()

    media.run(go())
    assert db.metrics.statements - before == statements
