"""The LOAD utility: batched pieces, in-flight entries, crash resume (§4)."""

import pytest

from repro.chaos.invariants import check_invariants
from repro.dlff.filter import DLFM_ADMIN
from repro.dlfm import api, schema
from repro.errors import ReproError
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.host.indoubt import resolve_indoubts
from repro.host.load import LoadUtility
from repro.system import System
from tests.conftest import restart_and_resolve, run_until_durable


def make_system(files=250, servers=("fs1",), **host_kwargs):
    system = System(seed=31, servers=servers,
                    host_config=HostConfig(**host_kwargs))

    def setup():
        yield from system.host.create_datalink_table(
            "assets", [("id", "INT"), ("name", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in servers:
            for i in range(files):
                system.create_user_file(server, f"/load/f{i:04d}",
                                        owner="ops")

    system.run(setup())
    return system


@pytest.fixture
def loader_system():
    return make_system()


def entries(n, start=0):
    return [({"id": i, "name": f"asset {i}"},
             build_url("fs1", f"/load/f{i:04d}"))
            for i in range(start, start + n)]


def host_rows(system):
    def go():
        session = system.host.db.session()
        result = yield from session.execute("SELECT COUNT(*) FROM assets")
        yield from session.commit()
        return result.scalar()
    return system.run(go())


def drive(system, load, pieces):
    def go():
        for _ in range(pieces):
            yield from load._load_piece()
    system.run(go())


def test_load_links_everything_in_pieces(loader_system):
    system = loader_system
    load = LoadUtility(system.host, "assets", "doc", entries(250),
                       piece_size=50)
    stats = system.run(load.run())
    assert stats.linked == 250
    assert stats.pieces == 5
    assert stats.rows_inserted == 250
    assert system.dlfms["fs1"].linked_count() == 250
    assert host_rows(system) == 250
    # after final commit: no in-flight entry left
    assert system.dlfms["fs1"].db.table_rows("dfm_txn") == []
    # files were taken over by the commit's phase 2
    node = system.servers["fs1"].fs.stat("/load/f0000")
    assert node.owner == DLFM_ADMIN


def test_inflight_entry_visible_between_pieces(loader_system):
    system = loader_system
    load = LoadUtility(system.host, "assets", "doc", entries(100),
                       piece_size=40)
    drive(system, load, 2)
    rows = system.dlfms["fs1"].db.table_rows("dfm_txn")
    assert len(rows) == 1
    assert rows[0][2] == schema.TXN_INFLIGHT
    # pieces are durable at the DLFM even though the load has not finished
    assert system.dlfms["fs1"].linked_count() == 80
    # finish normally
    def finish():
        yield from load._load_piece()
        yield from load._finish()
    system.run(finish())
    assert system.dlfms["fs1"].db.table_rows("dfm_txn") == []


def test_bounded_log_with_pieces(loader_system):
    """A big load with a small DLFM log works because of the pieces."""
    system = loader_system
    system.dlfms["fs1"].db.wal.capacity = 300
    load = LoadUtility(system.host, "assets", "doc", entries(250),
                       piece_size=25)
    stats = system.run(load.run())
    assert stats.linked == 250
    assert system.dlfms["fs1"].db.wal.metrics.log_fulls == 0


def test_crash_mid_load_then_resume(loader_system):
    system = loader_system
    dlfm = system.dlfms["fs1"]
    load = LoadUtility(system.host, "assets", "doc", entries(200),
                       piece_size=50)
    drive(system, load, 2)
    assert dlfm.linked_count() == 100
    dlfm.crash()
    dlfm.restart()
    # completed pieces survived the crash (they were locally committed)
    assert dlfm.linked_count() == 100
    rows = dlfm.db.table_rows("dfm_txn")
    assert rows and rows[0][2] == schema.TXN_INFLIGHT

    stats = system.run(load.resume())
    assert stats.resumed is True
    assert stats.linked == 200
    assert dlfm.linked_count() == 200
    assert host_rows(system) == 200
    assert dlfm.db.table_rows("dfm_txn") == []


def test_resume_skips_already_linked(loader_system):
    """Re-running a whole load over partially ingested data just skips:
    a batch holding an already-linked file fails whole, and the loader
    retries that server's piece file-by-file so every skip is counted."""
    system = loader_system
    first = LoadUtility(system.host, "assets", "doc", entries(60),
                        piece_size=30)
    system.run(first.run())
    again = LoadUtility(system.host, "assets", "doc", entries(120),
                        piece_size=30)
    stats = system.run(again.run())
    assert stats.skipped == 60
    assert stats.linked == 60
    assert stats.batches == 2      # the two all-fresh pieces
    assert system.dlfms["fs1"].linked_count() == 120
    assert host_rows(system) == 120


def test_abort_of_inflight_keeps_pieces(loader_system):
    """Phase-2 abort for an in-flight utility does NOT undo pieces."""
    from repro.kernel import rpc
    system = loader_system
    dlfm = system.dlfms["fs1"]
    load = LoadUtility(system.host, "assets", "doc", entries(50),
                       piece_size=25)

    def partial_then_abort():
        yield from load._load_piece()
        chan = dlfm.connect()
        result = yield from rpc.call(
            system.sim, chan,
            api.Abort(system.host.dbid, load.txn_id))
        chan.close()
        return result

    result = system.run(partial_then_abort())
    assert result["outcome"] == "in-flight-kept"
    assert dlfm.linked_count() == 25


def test_non_datalink_column_rejected(loader_system):
    from repro.errors import DataLinkError
    with pytest.raises(DataLinkError):
        LoadUtility(loader_system.host, "assets", "name", entries(1))


@pytest.mark.parametrize("batch_datalinks", [False, True])
def test_load_ships_one_batch_per_piece_and_server(batch_datalinks):
    """LOAD batches whatever ``batch_datalinks`` says for statements:
    one Batch envelope per (piece, server) instead of one per file."""
    system = make_system(batch_datalinks=batch_datalinks)
    before = system.dlfms["fs1"].metrics.rpcs
    load = LoadUtility(system.host, "assets", "doc", entries(250),
                       piece_size=50)
    stats = system.run(load.run())
    assert stats.linked == 250
    assert stats.batches == 5
    assert system.dlfms["fs1"].linked_count() == 250
    assert host_rows(system) == 250
    assert system.dlfms["fs1"].db.table_rows("dfm_txn") == []
    # 5x(Batch + CommitPiece) + Prepare + Commit = 12 envelopes.
    assert system.dlfms["fs1"].metrics.rpcs - before == 12
    assert system.host.metrics.batches_sent == 5
    assert system.host.metrics.links_sent == 250


# -- deferred index build (DB2's LOAD build phase) ----------------------------

def index_setup(system):
    """Index the target table and give it stats so SELECTs bind to it."""
    def go():
        session = system.host.db.session()
        yield from session.execute(
            "CREATE INDEX assets_id ON assets (id)")
        yield from session.execute(
            "CREATE INDEX assets_doc ON assets (doc)")
        yield from session.commit()
    system.run(go())
    system.host.db.set_table_stats(
        "assets", card=1_000_000,
        colcard={"id": 1_000_000, "doc": 1_000_000})


def select_by_id(system, row_id):
    def go():
        session = system.host.db.session()
        result = yield from session.execute(
            "SELECT id, name FROM assets WHERE id = ?", (row_id,))
        yield from session.commit()
        return result.rows
    return system.run(go())


def test_bulk_load_equals_per_row_load(loader_system):
    """LOAD's deferred build must land the exact same durable state as
    the same rows inserted through ordinary sessions, which maintain
    the indexes per row — rows, links, and index contents."""
    system, reference = loader_system, make_system()
    for each in (system, reference):
        index_setup(each)
    host = system.host
    load = LoadUtility(host, "assets", "doc", entries(200), piece_size=50)
    stats = system.run(load.run())
    assert stats.linked == 200
    assert stats.rows_inserted == 200
    assert stats.bulk_merged == 400        # 200 rows × 2 indexes
    assert not host.db.in_bulk_load("assets")

    def insert_per_row():
        session = reference.session()
        for values, url in entries(200):
            yield from session.execute(
                "INSERT INTO assets (id, name, doc) VALUES (?, ?, ?)",
                (values["id"], values["name"], url))
            yield from session.commit()

    reference.run(insert_per_row())
    for name in ("assets_id", "assets_doc"):
        assert (list(host.db.btrees[name].items())
                == list(reference.host.db.btrees[name].items()))
        assert len(host.db.btrees[name]) == 200
    assert ([row[:3] for row in host.db.table_rows("assets")]
            == [row[:3] for row in reference.host.db.table_rows("assets")])
    assert (system.dlfms["fs1"].linked_count()
            == reference.dlfms["fs1"].linked_count() == 200)
    assert select_by_id(system, 123) == [(123, "asset 123")]


def test_bulk_defers_entries_between_pieces(loader_system):
    system = loader_system
    index_setup(system)
    host = system.host
    load = LoadUtility(host, "assets", "doc", entries(100),
                       piece_size=40)

    def partial():
        host.db.begin_bulk_load("assets")    # what run() does up front
        yield from load._load_piece()
        yield from load._load_piece()

    system.run(partial())
    # 80 rows are committed in the heap but no index entry exists yet.
    assert host_rows(system) == 80
    assert len(host.db.btrees["assets_id"]) == 0
    assert host.db.in_bulk_load("assets")

    def finish():
        yield from load._load_piece()
        load.stats.bulk_merged = yield from host.db.end_bulk_load("assets")
        yield from load._finish()

    system.run(finish())
    assert load.stats.bulk_merged == 200
    assert len(host.db.btrees["assets_id"]) == 100
    assert select_by_id(system, 99) == [(99, "asset 99")]


def test_bulk_load_failed_piece_still_merges_committed_rows(loader_system):
    """A piece that dies mid-load must not leave the earlier committed
    pieces index-invisible: the finally-path merge folds them in, and
    the failed piece's own rows were undone (deferred entries dropped)."""
    system = loader_system
    index_setup(system)
    host = system.host
    bad = entries(80)
    # Poison one row of the third piece with an unknown server.
    bad[65] = (bad[65][0], "dlfs://nowhere/load/f0065")
    load = LoadUtility(host, "assets", "doc", bad, piece_size=30)
    with pytest.raises(Exception):
        system.run(load.run())
    # Pieces 1+2 (60 rows) are committed AND visible through the index.
    assert host_rows(system) == 60
    assert len(host.db.btrees["assets_id"]) == 60
    assert not host.db.in_bulk_load("assets")
    assert select_by_id(system, 42) == [(42, "asset 42")]
    assert select_by_id(system, 65) == []


def test_bulk_crash_mid_load_rebuilds_and_resumes(loader_system):
    """Host crash mid-bulk-load: the volatile deferral dies with it,
    restart rebuilds indexes from durable state (committed pieces show),
    and resume() re-enters bulk mode and finishes the job."""
    system = loader_system
    index_setup(system)
    host = system.host
    load = LoadUtility(host, "assets", "doc", entries(100),
                       piece_size=25)

    def first_half():
        host.db.begin_bulk_load("assets")    # what run() does up front
        yield from load._load_piece()
        yield from load._load_piece()

    system.run(first_half())
    assert len(host.db.btrees["assets_id"]) == 0
    host.db.crash()
    host.db.restart()
    # The 50 committed rows came back index-visible via restart rebuild.
    assert not host.db.in_bulk_load("assets")
    assert len(host.db.btrees["assets_id"]) == 50

    stats = system.run(load.resume())
    assert stats.resumed is True
    assert host_rows(system) == 100
    assert len(host.db.btrees["assets_id"]) == 100
    assert select_by_id(system, 77) == [(77, "asset 77")]


# -- the utility transaction's 2PC rides the one coordinator -------------------

def spread_entries(n=40):
    """File i lives on fs1 (even i) or fs2 (odd i): every piece spans
    both servers."""
    return [({"id": i, "name": f"asset {i}"},
             build_url(("fs1", "fs2")[i % 2], f"/load/f{i:04d}"))
            for i in range(n)]


def assert_load_complete(system, linked):
    """``linked``: server → files the finished load left there."""
    assert host_rows(system) == sum(linked.values())
    for name, count in linked.items():
        dlfm = system.dlfms[name]
        assert dlfm.linked_count() == count
        assert dlfm.db.table_rows("dfm_txn") == []
        for row in dlfm.file_entries():
            assert system.servers[name].fs.stat(row[0]).owner == DLFM_ADMIN
    run_until_durable(system)
    assert system.host.decision_rows() == []
    assert check_invariants(system) == []


def _host_crash_before_prepare(system, load):
    drive(system, load, 4)
    system.host.crash()
    system.run(system.host.restart())
    system.run(load.resume())


def _host_crash_between_the_two_commits(system, load):
    """The decision is forced, Commit reached fs1 only."""
    drive(system, load, 4)

    def go():
        writers, _ = yield from load.session.prepare_participants()
        yield from system.host.decide(load.session.session, writers)
        yield from load.session.fan_out(
            api.Commit, [(load.txn_id, "fs1")], name="phase2-fs1")

    system.run(go())
    system.host.crash()
    load.session.close()     # the loader died with its host
    assert system.run(restart_and_resolve(system.host)) == {
        "committed": 2, "aborted": 0}


def _host_crash_before_forget(system, load):
    """FORGET is unforced: a crash right after the load loses it."""
    system.run(load.run())
    system.host.crash()
    assert system.run(restart_and_resolve(system.host)) == {
        "committed": 2, "aborted": 0}


def _dlfm_crash_between_pieces(system, load):
    drive(system, load, 2)
    system.dlfms["fs2"].crash()
    system.dlfms["fs2"].restart()
    system.run(load.resume())


def _dlfm_crash_between_prepare_and_commit(system, load):
    drive(system, load, 4)

    def go():
        writers, _ = yield from load.session.prepare_participants()
        system.dlfms["fs2"].crash()
        with pytest.raises(ReproError):
            yield from load.session.commit_decided(writers)

    system.run(go())
    # A partial ack keeps the whole decision for the re-drive.
    assert system.host.decision_rows() == [(load.txn_id, "fs1"),
                                           (load.txn_id, "fs2")]
    system.dlfms["fs2"].restart()
    system.run(resolve_indoubts(system.host))


@pytest.mark.parametrize("crash", [
    _host_crash_before_prepare,
    _host_crash_between_the_two_commits,
    _host_crash_before_forget,
    _dlfm_crash_between_pieces,
    _dlfm_crash_between_prepare_and_commit,
], ids=lambda crash: crash.__name__.lstrip("_"))
def test_crash_sweep_over_the_final_2pc(crash):
    """Wherever a host or a DLFM dies around the utility transaction's
    commit, recovery (plus resume() when the load was unfinished) ends
    with every file linked, taken over and nothing left in doubt."""
    system = make_system(files=40, servers=("fs1", "fs2"))
    load = LoadUtility(system.host, "assets", "doc", spread_entries(),
                       piece_size=10)
    crash(system, load)
    assert_load_complete(system, {"fs1": 20, "fs2": 20})


def test_resume_keeps_servers_loaded_before_the_interruption():
    """A server whose files all went in before the interruption still
    takes part in the final commit: resume() re-opens the transaction
    on its fresh agent instead of forgetting it."""
    system = make_system(files=40, servers=("fs1", "fs2"))
    load = LoadUtility(
        system.host, "assets", "doc",
        [(values, build_url("fs2" if values["id"] < 10 else "fs1",
                            f"/load/f{values['id']:04d}"))
         for values, _ in entries(40)], piece_size=10)
    drive(system, load, 2)
    system.dlfms["fs1"].crash()
    system.dlfms["fs1"].restart()
    stats = system.run(load.resume())
    assert stats.linked == 40
    assert_load_complete(system, {"fs1": 30, "fs2": 10})


def test_presumed_abort_never_undoes_committed_pieces():
    """Host crash between the Prepare acks and the decision force: the
    utility entries stay in-flight, so the restart resolver has nothing
    to presume aborted, a stray Abort keeps the pieces, and resuming
    the load finishes it."""
    system = make_system(files=40, servers=("fs1", "fs2"))
    load = LoadUtility(system.host, "assets", "doc", spread_entries(),
                       piece_size=10)
    drive(system, load, 4)
    system.run(load.session.prepare_participants())
    system.host.crash()
    assert system.run(restart_and_resolve(system.host))["aborted"] == 0

    def stray_abort():
        session = system.session()
        try:
            return (yield from session.fan_out(
                api.Abort, [(load.txn_id, "fs1"), (load.txn_id, "fs2")],
                name="stray"))
        finally:
            session.close()

    assert system.run(stray_abort()) == [{"outcome": "in-flight-kept"}] * 2
    for name in ("fs1", "fs2"):
        assert system.dlfms[name].linked_count() == 20
        [row] = system.dlfms[name].db.table_rows("dfm_txn")
        assert row[2] == schema.TXN_INFLIGHT
    system.run(load.resume())
    assert_load_complete(system, {"fs1": 20, "fs2": 20})
