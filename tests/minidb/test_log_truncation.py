"""The log forgets what no restart can read.

Every checkpoint drops the records below the oldest of: the checkpoint
itself, the first record of the oldest active or prepared transaction,
the oldest unforgotten 2PC decision (pinned in ``tests/host``) and the
oldest record still queued for lazy replay. Each floor has a test here
that fails when it is removed; LSNs stay monotone across the cut, a
backup carries only the retained log, and the retained log stays
bounded by the soft checkpoint's volume trigger.
"""

import pytest

from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb.db import SOFT_CHECKPOINT_RECORDS


def make_db(instant=True, **cfg):
    db = Database(Simulator(seed=0), "trunc", DBConfig(
        instant_recovery=instant, next_key_locking=False, **cfg))
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


RESTARTS = pytest.mark.parametrize("instant", [True, False],
                                   ids=["instant", "classic"])


@RESTARTS
def test_a_loser_spanning_a_truncating_checkpoint_is_undone(instant):
    db = make_db(instant)
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
    assert rows(db, "a") == [(1, "kept")]
    assert len(rows(db, "b")) == 40


@RESTARTS
def test_an_xa_branch_prepared_before_two_checkpoints_resolves(instant):
    db = make_db(instant)
    branch = run(db, "INSERT INTO a (k, v) VALUES (7, 'xa')", commit=False)
    db.sim.run_process(db.prepare(branch.txn, payload={"gtrid": "g7"}))
    churn(db, range(20))
    churn(db, range(20, 40))
    assert db.wal.base == branch.txn.first_lsn - 1
    db.crash()
    db.restart()
    [txn] = db.indoubt_transactions()
    assert (txn.id, txn.payload) == (branch.txn.id, {"gtrid": "g7"})
    db.sim.run_process(db.commit(txn))
    assert rows(db, "a") == [(7, "xa")]


def test_a_page_pending_lazy_replay_survives_a_second_checkpoint():
    """Instant restart's own closing checkpoint does not flush the pages
    it left for lazy replay; neither does the next one. Their chains
    must stay readable for the replay gate and for another restart."""
    db = make_db(instant=True, rows_per_page=2)
    churn(db, range(10), table="a")
    run(db, "UPDATE a SET v = 'u3' WHERE k = 3",
        "UPDATE a SET v = 'u8' WHERE k = 8")
    expected = rows(db, "a")
    db.crash()
    db.restart()
    assert db.replay_pending
    pending_floor = min(lsns[0] for lsns in db.replay_pending.values())
    churn(db, range(100, 120))       # table b: pages of a stay cold
    assert db.replay_pending
    assert db.wal.base == pending_floor - 1
    db.crash()
    db.restart()
    assert rows(db, "a") == expected
    churn(db, range(200, 210))
    assert rows(db, "a") == expected


@RESTARTS
def test_backup_restore_round_trip_over_a_truncated_log(instant):
    db = make_db(instant)
    churn(db, range(30), table="a")
    image = db.backup_image()
    assert image["base"] > 0
    assert [r.lsn for r in image["log"]] == list(
        range(image["base"] + 1, image["base"] + 1 + len(image["log"])))
    at_backup = rows(db, "a")
    churn(db, range(30, 40), table="a")
    db.restore_image(image)
    assert rows(db, "a") == at_backup
    assert db.wal.base >= image["base"]
    run(db, "INSERT INTO a (k, v) VALUES (99, 'after')")
    db.crash()
    db.restart()
    assert rows(db, "a") == sorted(at_backup + [(99, "after")])


def test_retained_log_stays_bounded_over_ten_thousand_commits():
    """No explicit checkpoint: the soft checkpoint's volume trigger alone
    keeps the log at one checkpoint plus ``SOFT_CHECKPOINT_RECORDS`` plus
    the transaction that crossed it (two records)."""
    db = make_db()
    run(db, "INSERT INTO b (k, v) VALUES (0, 'x')")
    session = db.session()
    longest = 0

    def go():
        nonlocal longest
        for n in range(10_000):
            yield from session.execute(f"UPDATE b SET v = 'v{n}' WHERE k = 0")
            yield from session.commit()
            longest = max(longest, len(db.wal.records))

    db.sim.run_process(go())
    assert longest <= SOFT_CHECKPOINT_RECORDS + 3
    assert db.wal.base >= db.wal.tail_lsn - SOFT_CHECKPOINT_RECORDS - 3
    assert db.wal.tail_lsn > 20_000
