"""Page cleaning: checkpoints write no page, a background process does.

A checkpoint leaves its dirty pages to the database's one background
page worker, which writes them oldest recLSN first, one page I/O each
that it pays itself, never before the log covers a page, and truncates
the log when it is done. The same worker first finishes a restart's
deferred page replay and index-image reads. A crash kills it; the
pages it had not written are redone from their per-page log chains.
"""

import pytest

from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb import db as dbmod
from repro.minidb.config import PAGE_IO, PRICES, TimingModel
from repro.minidb.storage import Disk
from tests.conftest import bill_only, run_until_clean


def make_db(**cfg):
    db = Database(Simulator(seed=0), "clean", DBConfig(
        next_key_locking=False, rows_per_page=2, **cfg))
    run(db, "CREATE TABLE t (k INT, v TEXT)",
        "CREATE UNIQUE INDEX t_k ON t (k)", "CREATE INDEX t_v ON t (v)")
    return db


def run(db, *statements, commit=True, session=None):
    session = session or db.session()

    def go():
        for sql in statements:
            yield from session.execute(sql)
        if commit:
            yield from session.commit()

    db.sim.run_process(go())
    return session


def fill(db, rows):
    """One committed insert per key: ``rows`` // 2 dirty pages."""
    for k in range(rows):
        run(db, f"INSERT INTO t (k, v) VALUES ({k}, 'v{k}')")


def test_no_statement_pays_a_soft_checkpoint_s_page_writes(monkeypatch):
    """Only page I/O is priced and every page stays resident, so each
    statement's sim time is the page I/O it was billed: none, the one
    right after the commit that crossed the soft checkpoint included.
    The cleaner bills the pages it writes to itself."""
    bill_only(monkeypatch, **{PAGE_IO: PRICES[PAGE_IO]})
    monkeypatch.setattr(dbmod, "SOFT_CHECKPOINT_RECORDS", 60)
    db = make_db(timing=TimingModel.calibrated())
    session = db.session()
    billed = []

    def go():
        for k in range(50):
            for sql in (f"INSERT INTO t (k, v) VALUES ({k}, 'v{k}')",
                        f"UPDATE t SET v = 'u{k}' WHERE k = {k}"):
                started = db.sim.now
                yield from session.execute(sql)
                billed.append(db.sim.now - started)
            yield from session.commit()

    db.sim.run_process(go())
    assert db.wal.last_checkpoint_lsn > 0
    assert billed == [0.0] * 100
    ended = db.sim.now
    run_until_clean(db)
    cleaned = db.pool.metrics.cleaned
    assert cleaned > 0 and db.pool.metrics.page_writes == 0
    assert db.sim.now - ended == pytest.approx(cleaned * PRICES[PAGE_IO])


def test_the_cleaner_never_writes_a_page_ahead_of_the_log(monkeypatch):
    """A checkpoint leaves 20 dirty pages; before the cleaner reaches
    more than one, an open transaction changes every one, so the page
    LSNs of those left pass the durable log. The cleaner leads a force
    for them rather than write one early."""
    db = make_db()
    fill(db, 40)
    written = []
    write_page = Disk.write_page

    def checked(disk, table, page):
        written.append((page.page_lsn, db.wal.flushed_upto))
        write_page(disk, table, page)

    monkeypatch.setattr(Disk, "write_page", checked)
    db.checkpoint()
    open_txn = run(db, "UPDATE t SET v = 'open'", commit=False)
    forces = db.wal.metrics.forces
    held = db.pool.dirty_below(db.wal.last_checkpoint_lsn)
    assert len(held) >= 19
    assert all(db.pool.page_lsn(key) > db.wal.flushed_upto for key in held)
    run_until_clean(db)
    assert len(written) == db.pool.metrics.cleaned == 20
    assert all(page_lsn <= durable for page_lsn, durable in written)
    assert db.wal.metrics.forces > forces
    db.crash()
    db.restart()
    db.sim.run()
    assert sorted(db.table_rows("t")) == sorted(
        (k, f"v{k}") for k in range(40))
    assert open_txn.txn.id not in {t.id for t in db.txns.active}


def test_the_cleaner_truncates_the_log_behind_the_pages_it_wrote():
    db = make_db()
    fill(db, 40)
    first = db.pool.oldest_rec_lsn()
    db.checkpoint()
    assert db.wal.base == first - 1          # the recLSN floor
    run_until_clean(db)
    assert db.pool.oldest_rec_lsn() is None
    assert db.wal.base == db.wal.last_checkpoint_lsn - 1


def indexes(db):
    return {name: list(db.btrees[name].scan_range(None, True, None, True))
            for name in ("t_k", "t_v")}


def test_a_crash_in_the_middle_of_cleaning_restarts_to_the_same_rows_and_indexes():
    db, uncrashed = make_db(), make_db()
    for each in (db, uncrashed):
        fill(each, 200)
        run(each, "UPDATE t SET v = 'late' WHERE k = 7")
        each.checkpoint()
        run(each, "DELETE FROM t WHERE k = 150")
    db.sim.run(stop_when=lambda: db.pool.metrics.cleaned >= 40)
    assert db._worker is not None, "the crash must land mid-cleaning"
    db.crash()
    db.restart()
    db.sim.run()
    assert not db.replay_pending and not db.cold_index_pages()
    assert sorted(db.table_rows("t")) == sorted(uncrashed.table_rows("t"))
    assert indexes(db) == indexes(uncrashed)
    run_until_clean(uncrashed)
    assert sorted(db.table_rows("t")) == sorted(uncrashed.table_rows("t"))


def test_one_background_page_process_per_database(monkeypatch):
    """A restart that leaves pages to replay and pages its undo dirtied
    runs one background page process for both; a checkpoint while it
    runs hands it more work instead of spawning another, a crash leaves
    none, and ``run_until_clean`` waits for all of its work."""
    db = make_db()
    fill(db, 40)
    db.checkpoint()
    run_until_clean(db)
    run(db, "UPDATE t SET v = 'late' WHERE k < 10")
    loser = run(db, "UPDATE t SET v = 'lost' WHERE k >= 30", commit=False)
    db.wal.force()                    # the loser's records are durable
    spawned = []
    spawn = db.sim.spawn

    def recording(gen, name=""):
        spawned.append(spawn(gen, name))
        return spawned[-1]

    monkeypatch.setattr(db.sim, "spawn", recording)

    def alive():
        return [p for p in spawned if not (p.finished or p._killed)]

    db.crash()
    summary = db.restart()
    assert summary["losers"] == [loser.txn.id]
    assert db.replay_pending and db.pool.oldest_rec_lsn() is not None
    assert len(alive()) == 1
    db.checkpoint()
    assert len(spawned) == 1 and len(alive()) == 1
    db.crash()
    assert alive() == []
    db.restart()
    assert db.replay_pending and len(alive()) == 1
    run_until_clean(db)
    assert alive() == [] and db._worker is None
    assert not db.replay_pending and not db.cold_index_pages()
    assert db.pool.oldest_rec_lsn() is None
    assert sorted(db.table_rows("t")) == sorted(
        (k, "late" if k < 10 else f"v{k}") for k in range(40))


def test_a_checkpoint_s_log_force_is_counted_apart():
    """A checkpoint forces the log unbilled and no committer waits for
    it: it counts in ``checkpoint_forces``, never in the billed
    ``forces`` that ``minidb.wal.forces_per_commit`` reads."""
    db = make_db()
    run(db, "INSERT INTO t (k, v) VALUES (1, 'a')", commit=False)
    metrics = db.wal.metrics
    forces, checkpoint_forces = metrics.forces, metrics.checkpoint_forces
    db.checkpoint()
    assert db.wal.flushed_upto == db.wal.tail_lsn
    assert metrics.forces == forces
    assert metrics.checkpoint_forces == checkpoint_forces + 1
