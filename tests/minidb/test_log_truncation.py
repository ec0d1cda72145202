"""The log forgets what no restart can read.

Every checkpoint drops the records below the oldest of: the checkpoint
itself, the first record of each transaction it lists as active or
prepared (ended since, too: its ABORT may not be durable),
the oldest unforgotten 2PC decision (pinned in ``tests/host``), the
oldest record still queued for lazy replay and the oldest dirty page's
recLSN (checkpoints write no page; the page cleaner does, and truncates
again when it is done — ``tests/minidb/test_page_cleaner.py``). Each
floor has a test that fails when it is removed; LSNs stay monotone
across the cut, a backup carries only the retained log, and the
retained log stays bounded by the soft checkpoint's volume trigger —
after a restart too, because the restart's background drain replays
the pages no commit touches and the cleaner writes them.
"""

import pytest

from repro.host.hostdb import HostConfig
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb.config import TimingModel
from repro.minidb.db import SOFT_CHECKPOINT_RECORDS
from repro.system import System
from tests.conftest import run_until_clean


def make_db(**cfg):
    db = Database(Simulator(seed=0), "trunc", DBConfig(
        next_key_locking=False, **cfg))
    run(db, "CREATE TABLE a (k INT, v TEXT)",
        "CREATE UNIQUE INDEX a_k ON a (k)",
        "CREATE TABLE b (k INT, v TEXT)")
    return db


def run(db, *statements, commit=True, session=None):
    """Run ``statements`` in one transaction (a new session's, or the
    still-open one of ``session``); returns the session."""
    session = session or db.session()

    def go():
        for sql in statements:
            yield from session.execute(sql)
        if commit:
            yield from session.commit()

    db.sim.run_process(go())
    return session


def churn(db, rows, table="b"):
    """Commit one insert per key in ``rows``, then checkpoint."""
    for k in rows:
        run(db, f"INSERT INTO {table} (k, v) VALUES ({k}, 'c{k}')")
    db.checkpoint()


def rows(db, table):
    return sorted(db.table_rows(table))


def settle(db, drained):
    """With ``drained``, let the restart's background drain replay every
    cold page before the test goes on; otherwise they wait for the gate."""
    if drained:
        db.sim.run()
        assert not db.replay_pending


RESTARTS = pytest.mark.parametrize("drained", [False, True],
                                   ids=["instant", "drained"])


@RESTARTS
def test_a_loser_spanning_a_truncating_checkpoint_is_undone(drained):
    db = make_db()
    run(db, "INSERT INTO a (k, v) VALUES (1, 'kept')")
    loser = run(db, "INSERT INTO a (k, v) VALUES (2, 'loser')",
                commit=False)
    churn(db, range(20))
    churn(db, range(20, 40))
    assert db.wal.base == loser.txn.first_lsn - 1   # the loser pins it
    run(db, "UPDATE a SET v = 'LOSER' WHERE k = 1", commit=False,
        session=loser)
    db.wal.force()
    db.crash()
    db.restart()
    settle(db, drained)
    assert rows(db, "a") == [(1, "kept")]
    assert len(rows(db, "b")) == 40


@RESTARTS
def test_an_xa_branch_prepared_before_two_checkpoints_resolves(drained):
    db = make_db()
    branch = run(db, "INSERT INTO a (k, v) VALUES (7, 'xa')", commit=False)
    db.sim.run_process(db.prepare(branch.txn, payload={"gtrid": "g7"}))
    churn(db, range(20))
    churn(db, range(20, 40))
    assert db.wal.base == branch.txn.first_lsn - 1
    db.crash()
    db.restart()
    settle(db, drained)
    [txn] = db.indoubt_transactions()
    assert (txn.id, txn.payload) == (branch.txn.id, {"gtrid": "g7"})
    db.sim.run_process(db.commit(txn))
    assert rows(db, "a") == [(7, "xa")]


def test_a_page_pending_lazy_replay_survives_a_second_checkpoint():
    """Restart's own closing checkpoint does not write the pages it left
    for lazy replay; neither does the next one, taken while the drain is
    still under way. Their chains must stay readable for the replay gate,
    the drain and another restart — the pending chain by the replay
    floor, the page already replayed (dirty since, its recLSN the first
    record replayed) by the recLSN floor."""
    db = make_db(rows_per_page=2)
    churn(db, range(10), table="a")
    run_until_clean(db)
    run(db, "UPDATE a SET v = 'u3' WHERE k = 3",
        "UPDATE a SET v = 'u8' WHERE k = 8")
    expected = rows(db, "a")
    db.crash()
    db.restart()
    chains = dict(db.replay_pending)
    assert len(chains) == 2
    # Stop the simulation once the drain has replayed its first page.
    db.sim.run(stop_when=lambda: len(db.replay_pending) < 2)
    [(replayed, first)] = [(key, lsns[0]) for key, lsns in chains.items()
                           if key not in db.replay_pending]
    [lsns] = db.replay_pending.values()
    assert db.pool.rec_lsn(replayed) == first
    db.checkpoint()
    assert db.replay_pending
    assert db.wal.base == min(first, lsns[0]) - 1
    db.crash()
    db.restart()
    assert rows(db, "a") == expected
    churn(db, range(200, 210))
    assert rows(db, "a") == expected


@RESTARTS
def test_backup_restore_round_trip_over_a_truncated_log(drained):
    db = make_db()
    churn(db, range(30), table="a")
    run_until_clean(db)
    assert db.wal.base == db.wal.last_checkpoint_lsn - 1
    image = db.backup_image()
    assert image["base"] > 0
    assert [r.lsn for r in image["log"]] == list(
        range(image["base"] + 1, image["base"] + 1 + len(image["log"])))
    at_backup = rows(db, "a")
    churn(db, range(30, 40), table="a")
    db.restore_image(image)
    settle(db, drained)
    assert rows(db, "a") == at_backup
    assert db.wal.base >= image["base"]
    run(db, "INSERT INTO a (k, v) VALUES (99, 'after')")
    db.crash()
    db.restart()
    settle(db, drained)
    assert rows(db, "a") == sorted(at_backup + [(99, "after")])


#: Pages of ``a`` that :func:`restart_with_cold_pages` leaves cold.
COLD_PAGES = 50


def restart_with_cold_pages(db, restart):
    """Checkpoint 100 rows over 50 pages of ``a`` and let the page
    cleaner write them, RUNSTATS it (so a probe by ``k`` is an index
    plan that touches one page), touch every page after the checkpoint,
    crash and restart: 50 cold pages wait for lazy replay (the drain may
    have taken one while a host's restart ran the simulation). Returns
    the records retained right after the restart."""
    churn(db, range(100), table="a")
    run_until_clean(db)
    db.runstats("a")
    run(db, "UPDATE a SET v = 'touched'")
    db.crash()
    restart()
    assert len(db.replay_pending) >= COLD_PAGES - 1
    return len(db.wal.records)


def commit_ten_thousand(db, sim):
    """10 000 single-row updates by index, one commit each; returns the
    longest the retained log got."""
    session = db.session()
    longest = 0

    def go():
        nonlocal longest
        for n in range(10_000):
            yield from session.execute(
                f"UPDATE a SET v = 'v{n}' WHERE k = 0")
            yield from session.commit()
            longest = max(longest, len(db.wal.records))

    sim.run_process(go())
    return longest


def assert_bounded(db, longest, retained):
    """One checkpoint plus ``SOFT_CHECKPOINT_RECORDS`` plus the
    transaction that crossed it (two records) — beyond the restart's
    own retained tail only until the page cleaner has written the pages
    whose recLSNs hold the floor after the first soft checkpoint past
    the drain. While it writes the ``COLD_PAGES`` the drain replayed,
    the committer appends at most two records per page: a commit's log
    force costs more than a page write."""
    assert longest <= (retained + SOFT_CHECKPOINT_RECORDS + 3
                       + 2 * COLD_PAGES)
    assert len(db.wal.records) <= SOFT_CHECKPOINT_RECORDS + 3
    assert db.wal.base >= db.wal.tail_lsn - SOFT_CHECKPOINT_RECORDS - 3
    assert db.wal.tail_lsn > 20_000
    assert not db.replay_pending


def test_retained_log_stays_bounded_over_ten_thousand_commits():
    """No explicit checkpoint: the soft checkpoint's volume trigger alone
    bounds the log, even after a restart left 49 pages no commit touches
    — the restart's drain replays them, so they stop pinning it."""
    db = make_db(rows_per_page=2, timing=TimingModel.calibrated())
    retained = restart_with_cold_pages(db, db.restart)
    assert_bounded(db, commit_ten_thousand(db, db.sim), retained)


def test_a_restarted_host_stops_pinning_its_log():
    """The same through a ``System``'s host: the host database has no
    daemon of its own, and its restart drains its cold pages too."""
    system = System(seed=0, host_config=HostConfig(db=DBConfig(
        next_key_locking=False, rows_per_page=2,
        timing=TimingModel.calibrated())))
    db = system.host.db
    run(db, "CREATE TABLE a (k INT, v TEXT)",
        "CREATE UNIQUE INDEX a_k ON a (k)", "CREATE TABLE b (k INT, v TEXT)")
    host = system.host
    retained = restart_with_cold_pages(
        db, lambda: system.run(host.restart(), "host-restart"))
    assert_bounded(db, commit_ten_thousand(db, system.sim), retained)


def test_a_rollback_whose_abort_is_not_durable_keeps_its_first_record():
    """The last checkpoint lists a transaction as active, and it rolls
    back after that: its CLR and ABORT records are not forced. The page
    worker truncates when its pass is done, then a crash loses both
    records, and restart undoes the transaction from the checkpoint's
    list — from its first record, which the cut must have kept."""
    db = make_db()
    loser = run(db, "INSERT INTO a (k, v) VALUES (2, 'loser')", commit=False)
    run(db, "INSERT INTO b (k, v) VALUES (1, 'kept')")
    db.checkpoint()
    first = loser.txn.first_lsn
    # The worker writes the oldest page (the loser's) first; the
    # rollback lands while the other page still waits.
    db.sim.run(stop_when=lambda: db.pool.oldest_rec_lsn() != first)
    assert db._worker is not None
    db.sim.run_process(loser.rollback())
    run_until_clean(db)
    assert db.wal.flushed_upto < db.wal.tail_lsn    # the ABORT is not durable
    db.crash()
    db.restart()
    assert rows(db, "a") == []
    assert rows(db, "b") == [(1, "kept")]
