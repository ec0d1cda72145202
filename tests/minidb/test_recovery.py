"""Crash/restart recovery: redo of committed work, undo of losers."""

import pytest

from repro.errors import CrashedError, LogFullError, TransactionAborted
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb.config import (INDEX_IMAGE_ENTRIES_PER_PAGE,
                                 LOG_RECORDS_PER_PAGE, PAGE_IO, TimingModel)
from repro.minidb.recovery import ColdImagePages
from tests.conftest import run_until_clean


def make_db(sim, **cfg):
    db = Database(sim, "r", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(setup())
    return db


def insert(db, session, k, v):
    yield from session.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))


def restart(db, drained):
    """Restart ``db``. With ``drained`` the restart's background drain
    replays every cold page before the test goes on; without, the test
    reads at once and cold pages replay on first touch."""
    summary = db.restart()
    if drained:
        db.sim.run()
        assert not db.replay_pending and not db.cold_index_pages()
    return summary


#: The two states a restarted engine can be read in.
DRAINED = pytest.mark.parametrize("drained", [True, False])


def all_rows(db, isolation=None):
    def go():
        session = db.session(isolation)
        result = yield from session.execute("SELECT k, v FROM t ORDER BY k")
        yield from session.commit()
        return result.rows
    return db.sim.run_process(go())


def test_committed_data_survives_crash_without_checkpoint():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "one")
        yield from insert(db, session, 2, "two")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    summary = db.restart()
    assert summary["redone"] >= 2
    assert all_rows(db) == [(1, "one"), (2, "two")]


def test_uncommitted_transaction_rolled_back_at_restart():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "committed")
        yield from session.commit()
        yield from insert(db, session, 2, "in-flight")
        # force the log tail so the loser's records are durable, then crash
        db.wal.force()

    sim.run_process(work())
    db.crash()
    summary = db.restart()
    assert summary["losers"]
    assert all_rows(db) == [(1, "committed")]


def test_unforced_loser_records_simply_vanish():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "committed")
        yield from session.commit()
        yield from insert(db, session, 2, "never-forced")

    sim.run_process(work())
    db.crash()
    db.restart()
    assert all_rows(db) == [(1, "committed")]


def test_update_and_delete_recovered():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        for k in range(5):
            yield from insert(db, session, k, f"v{k}")
        yield from session.commit()
        yield from session.execute("UPDATE t SET v = 'changed' WHERE k = 2")
        yield from session.execute("DELETE FROM t WHERE k = 4")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    db.restart()
    assert all_rows(db) == [(0, "v0"), (1, "v1"), (2, "changed"), (3, "v3")]


def test_recovery_is_idempotent_across_double_crash():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "one")
        yield from session.commit()
        yield from insert(db, session, 2, "loser")
        db.wal.force()

    sim.run_process(work())
    db.crash()
    db.restart()
    db.crash()  # crash again right after recovery
    db.restart()
    assert all_rows(db) == [(1, "one")]


def test_indexes_rebuilt_after_restart():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        for k in range(10):
            yield from insert(db, session, k, f"v{k}")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    db.restart()
    db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
    assert db.explain("SELECT v FROM t WHERE k = ?")["access"] == "index_scan"

    def probe():
        session = db.session()
        row = yield from session.query_one("SELECT v FROM t WHERE k = ?", (7,))
        yield from session.commit()
        return row

    assert sim.run_process(probe()) == ("v7",)


def test_checkpoint_bounds_redo_work():
    sim = Simulator()
    db = make_db(sim)

    def phase(vals):
        session = db.session()
        for k in vals:
            yield from insert(db, session, k, "x")
        yield from session.commit()

    sim.run_process(phase(range(50)))
    db.checkpoint()
    run_until_clean(db)
    sim.run_process(phase(range(50, 60)))
    db.crash()
    summary = db.restart()
    # Only the 10 post-checkpoint inserts should need redo: the page
    # cleaner wrote every page the checkpoint left dirty.
    assert summary["redone"] <= 12
    assert len(all_rows(db)) == 60


def test_operations_on_crashed_db_fail_fast():
    sim = Simulator()
    db = make_db(sim)
    db.crash()
    with pytest.raises(CrashedError):
        db.begin()


def test_log_full_from_one_giant_transaction():
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        with pytest.raises(LogFullError):
            for k in range(200):
                yield from insert(db, session, k, "x")
        return "aborted"

    assert sim.run_process(work()) == "aborted"
    assert db.wal.metrics.log_fulls == 1


def test_periodic_commits_avoid_log_full():
    """The paper's mitigation (E8): commit every N records."""
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        for k in range(200):
            yield from insert(db, session, k, "x")
            if (k + 1) % 20 == 0:
                yield from session.commit()
                db.checkpoint()
        yield from session.commit()

    sim.run_process(work())
    assert len(all_rows(db)) == 200
    assert db.wal.metrics.log_fulls == 0


def test_log_full_transaction_can_still_roll_back():
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        try:
            for k in range(200):
                yield from insert(db, session, k, "x")
        except LogFullError:
            pass
        # engine auto-rolled-back; a fresh transaction works
        yield from insert(db, session, 999, "after")
        yield from session.commit()

    sim.run_process(work())
    assert all_rows(db) == [(999, "after")]


def test_active_floor_pins_log_across_other_commits():
    """A long-running transaction pins the active window even while other
    transactions commit (why DLFM marks utility txns in-flight, E8)."""
    sim = Simulator()
    # next-key locking off: the pinner's key locks are irrelevant here
    db = make_db(sim, wal_capacity=120, next_key_locking=False)

    def work():
        pinner = db.session()
        yield from insert(db, pinner, 100_000, "pin")  # stays open
        other = db.session()
        raised = False
        try:
            for k in range(200):
                yield from other.execute(
                    "INSERT INTO t (k, v) VALUES (?, ?)", (k, "x"))
                if (k + 1) % 10 == 0:
                    yield from other.commit()
                    db.checkpoint()
        except LogFullError:
            raised = True
        return raised

    assert sim.run_process(work()) is True


@DRAINED
@pytest.mark.parametrize("trigger", ["checkpoint", "soft"])
def test_checkpoint_inside_a_commit_force_keeps_the_commit(drained, trigger):
    """A checkpoint taken while a committer sits between its COMMIT
    record and the end of its log force must not snapshot the
    transaction as active: tail-only analysis never sees the
    pre-checkpoint COMMIT and would undo an acknowledged commit."""
    from repro.kernel import Timeout
    from repro.minidb.config import TimingModel

    sim = Simulator()
    db = make_db(sim, timing=TimingModel.calibrated(), wal_capacity=16)
    committing, acked = [], []

    def writer():
        session = db.session()
        for k in range(9):   # > wal_capacity // 2 records pin the log
            yield from insert(db, session, k, "acked")
        committing.append(sim.now)
        yield from session.commit()   # the log force takes 6 ms
        acked.append(sim.now)

    def bystander():
        idle = db.begin()
        while not committing:
            yield Timeout(0.0005)
        yield Timeout(0.003)
        assert not acked   # inside the writer's force
        before = db.wal.last_checkpoint_lsn
        if trigger == "checkpoint":
            db.checkpoint()
        else:
            # Any transaction ending runs the soft-checkpoint check; the
            # writer's records alone put the window over the limit.
            yield from db.rollback(idle)
        assert db.wal.last_checkpoint_lsn > before

    def root():
        procs = [sim.spawn(writer(), "writer"),
                 sim.spawn(bystander(), "bystander")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert acked
    db.crash()
    summary = restart(db, drained)
    assert summary["losers"] == []
    assert summary["undone"] == 0
    assert len(all_rows(db)) == 9


@DRAINED
@pytest.mark.parametrize("checkpoint", [True, False])
def test_duplicate_key_scan_order_is_the_same_after_restart(drained,
                                                            checkpoint):
    """100 rows share ``k = 1``; row 5 leaves the key and comes back, so
    its index entry is re-inserted into a run of duplicates that already
    spans leaves. Index entries sort by ``(key, rid)`` across the whole
    tree whatever the insert history (DESIGN §9), which is also the order
    restart repairs (checkpoint image + tail, or the heap scan of an
    index with no image): a ``SELECT`` without ``ORDER BY`` returns its
    rows, and takes its row locks, in the same order on both sides of a
    crash."""
    sim = Simulator()
    db = Database(sim, "r", DBConfig())

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v INT)")
        yield from session.execute("CREATE INDEX t_k ON t (k)")
        for v in range(100):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (1, ?)", (v,))
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
        yield from session.execute("UPDATE t SET k = 2 WHERE v = 5")
        yield from session.execute("UPDATE t SET k = 1 WHERE v = 5")
        yield from session.commit()

    def scan():
        session = db.session()
        assert db.get_plan(
            "SELECT v FROM t WHERE k = 1").access.kind == "index_scan"
        result = yield from session.execute("SELECT v FROM t WHERE k = 1")
        yield from session.commit()
        return [v for (v,) in result.rows]

    sim.run_process(setup())
    if checkpoint:
        db.checkpoint()
    before = sim.run_process(scan())
    db.crash()
    restart(db, drained)
    db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
    after = sim.run_process(scan())
    assert sorted(before) == list(range(100))
    assert before == after
    assert before == list(range(100))   # rid order: v was inserted in it


@DRAINED
def test_commit_after_a_fuzzy_checkpoint_is_visible_to_snapshots(drained):
    """e2e finding 1b: a transaction open at a checkpoint that commits
    after it must be visible after a restart."""
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "old")
        yield from session.commit()
        yield from session.execute("UPDATE t SET v = 'upd' WHERE k = 1")
        yield from insert(db, session, 2, "new")
        db.checkpoint()   # fuzzy: the writer is still open
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    restart(db, drained)
    committed = [(1, "upd"), (2, "new")]
    assert all_rows(db, "CS") == committed


@DRAINED
def test_backup_under_an_open_transaction_restores_without_it(drained):
    """``backup_image`` checkpoints, which flushes an open transaction's
    rows into the copied disk. The image carries the durable log, so
    ``restore_image`` is a restart at that checkpoint: ordinary loser
    undo removes them."""
    sim = Simulator()
    db = make_db(sim)
    images = []

    def work():
        session = db.session()
        yield from insert(db, session, 1, "committed")
        yield from session.commit()
        yield from insert(db, session, 2, "uncommitted")
        images.append(db.backup_image())
        yield from session.rollback()
        yield from insert(db, session, 3, "after-backup")
        yield from session.commit()

    sim.run_process(work())
    db.restore_image(images[0])
    if drained:
        sim.run()
    assert all_rows(db) == [(1, "committed")]


@DRAINED
def test_work_committed_after_a_restore_survives_the_next_crash(drained):
    """The restored pages carry the LSNs of the log they were written
    under. Restoring over an empty log restarted LSNs at 1, so REDO's
    ``page_lsn >= lsn`` test skipped every post-restore record."""
    sim = Simulator()
    db = make_db(sim)

    def work(k, v):
        session = db.session()
        yield from insert(db, session, k, v)
        yield from session.execute("UPDATE t SET v = ? WHERE k = 1", (v,))
        yield from session.commit()

    sim.run_process(work(1, "before"))
    for take in range(5):   # push the page LSNs well past a fresh log's
        sim.run_process(work(10 + take, f"before-{take}"))
    image = db.backup_image()
    db.restore_image(image)
    if drained:
        sim.run()
    sim.run_process(work(2, "after"))
    db.crash()
    restart(db, drained)
    assert all_rows(db)[:2] == [(1, "after"), (2, "after")]
    assert len(all_rows(db)) == 7


def test_a_pre_crash_transaction_is_not_undone_against_the_new_log():
    """A session that wrote before a crash holds a transaction of the
    dead incarnation: its LSNs name records of the old log. After the
    restart, rolling it back appends nothing — restart already undid
    it — and neither a statement nor a commit may continue it."""
    sim = Simulator()
    db = make_db(sim)
    stale = db.session()
    sim.run_process(insert(db, stale, 1, "lost"))
    db.crash()
    db.restart()
    tail = db.wal.tail_lsn
    sim.run_process(stale.rollback())
    assert db.wal.tail_lsn == tail

    resumed = db.session()
    sim.run_process(insert(db, resumed, 2, "lost"))
    db.crash()
    db.restart()
    with pytest.raises(TransactionAborted):
        sim.run_process(insert(db, resumed, 3, "after"))
    assert resumed.txn is None and db.locks.total_locks == 0
    assert db.table_rows("t") == []


def test_a_write_free_transaction_lives_on_under_its_id_after_a_crash():
    """A write-free transaction is only an id (the LOAD utility keeps
    one open across a host restart): it is re-admitted under it."""
    sim = Simulator()
    db = make_db(sim)
    session = db.session()
    txn = session._require_txn()
    db.crash()
    db.restart()
    sim.run_process(insert(db, session, 1, "kept"))
    assert session.txn is txn and db.txns.owns(txn)
    sim.run_process(session.commit())
    assert db.table_rows("t") == [(1, "kept")]


# ------------------------------------------------- index images read on demand

def image_db(rows, tail=3):
    """A timed database whose checkpoint holds ``rows`` rows and two
    index images of ``rows`` entries each; ``tail`` committed inserts
    follow the checkpoint."""
    sim = Simulator()
    db = Database(sim, "r", DBConfig(timing=TimingModel.calibrated()))

    def load(keys):
        session = db.session()
        for k in keys:
            yield from insert(db, session, k, f"v{k:05d}")
        yield from session.commit()

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.execute("CREATE INDEX t_v ON t (v)")
        yield from session.commit()
        yield from load(range(rows))

    sim.run_process(setup())
    db.runstats("t")
    db.checkpoint()
    sim.run_process(load(range(rows, rows + tail)))
    return db


def point_lookup(db, k):
    def go():
        session = db.session()
        row = yield from session.query_one("SELECT v FROM t WHERE k = ?",
                                           (k,))
        yield from session.commit()
        return row
    return db.sim.run_process(go())


def test_the_traffic_gate_is_the_log_tail_whatever_the_index_images():
    """Index images 10x apart in size, the same post-checkpoint tail:
    the same gate, and it is the tail's log scan alone."""
    gates, dbs = set(), []
    for rows in (200, 2_000):
        db = image_db(rows)
        db.crash()
        crashed_at = db.sim.now
        tail = len(db.wal.since(db.wal.last_checkpoint_lsn))
        db.restart()
        gates.add(db.traffic_open_at - crashed_at)
        dbs.append((rows, db))
    assert len(gates) == 1, gates
    scan = db.config.timing.price(PAGE_IO, -(-tail // LOG_RECORDS_PER_PAGE))
    assert gates.pop() == pytest.approx(scan)
    for rows, db in dbs:
        pages = rows // INDEX_IMAGE_ENTRIES_PER_PAGE
        assert db.cold_index_pages() == {"t_k": pages, "t_v": pages}


def test_a_point_lookup_after_restart_reads_one_image_page_per_index():
    """The drain reads cold pages meanwhile; ``index_pages_read`` counts
    only the reads of first touches."""
    db = image_db(1_000)
    db.crash()
    db.restart()
    t_k, t_v = db.btrees["t_k"].cold_hook, db.btrees["t_v"].cold_hook
    assert db.explain("SELECT v FROM t WHERE k = ?")["index"] == "t_k"
    assert point_lookup(db, 550) == ("v00550",)
    assert db.metrics.index_pages_read == 1 and 5 not in t_k.unread
    assert t_v.unread == set(range(10))
    # An insert maintains both indexes: one page of each.
    session = db.session()
    db.sim.run_process(insert(db, session, 5_000, "v05000"))
    assert db.metrics.index_pages_read == 3
    assert 9 not in t_k.unread and 9 not in t_v.unread


def test_every_image_page_is_billed_once_by_the_gate_statements_or_drain(
        monkeypatch):
    db = image_db(1_037)
    loser = db.session()
    db.sim.run_process(insert(db, loser, 2_000, "v02000"))
    db.wal.force()
    images = {name: db.disk.load_index_image(name)
              for name in ("t_k", "t_v")}
    reads = []
    read = ColdImagePages.read

    def counted(self, page):
        owed = self.db.unbilled.pages
        read(self, page)
        assert self.db.unbilled.pages == owed + 1
        reads.append((self.btree.name, page))

    monkeypatch.setattr(ColdImagePages, "read", counted)
    db.crash()
    db.restart()
    # Undo took the loser's entry out of each index's last page.
    assert reads == [("t_k", 10), ("t_v", 10)]
    assert point_lookup(db, 950) == ("v00950",)
    assert db.metrics.index_pages_read == 3 and ("t_k", 9) in reads
    db.sim.run()
    assert db.cold_index_pages() == {}
    assert len(reads) == len(set(reads))
    for name, image in images.items():
        pages = -(-len(image) // INDEX_IMAGE_ENTRIES_PER_PAGE)
        assert sorted(p for n, p in reads if n == name) == list(range(pages))


def test_a_crash_in_the_middle_of_the_drain_restarts_to_the_same_indexes():
    db, uncrashed = image_db(1_000), image_db(1_000)
    db.crash()
    db.restart()
    db.sim.run(stop_when=lambda: sum(db.cold_index_pages().values()) < 10)
    assert db.cold_index_pages(), "the crash must land mid-drain"
    db.crash()
    restart(db, drained=True)
    for name in ("t_k", "t_v"):
        assert (list(db.btrees[name].scan_range(None, True, None, True))
                == list(uncrashed.btrees[name].scan_range(
                    None, True, None, True)))
    assert all_rows(db) == all_rows(uncrashed)


def test_a_steal_never_writes_a_page_ahead_of_the_log():
    """WAL rule on eviction: a transaction that dirties more pages than
    the pool holds and never commits. Its records are never forced by a
    commit, so each steal must skip frames the log does not cover, or
    force the log first when every frame is ahead of it; otherwise its
    rows land on disk with no log record left to undo them."""
    sim = Simulator()
    db = make_db(sim, buffer_pool_pages=8, rows_per_page=4)

    def loser():
        session = db.session()
        for k in range(80):
            yield from insert(db, session, k, "loser")

    sim.run_process(loser())
    assert db.pool.metrics.page_writes > 0
    assert all(lsn <= db.wal.flushed_upto
               for _, _, lsn in db.disk.page_lsns())
    db.crash()
    restart(db, drained=True)
    assert all_rows(db) == []
    assert db.table_rows("t") == []
