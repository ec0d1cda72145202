"""Engine-level XA support: PREPARE records, indoubt restart, locks."""

import pytest

from repro.errors import TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.txn import TxnState


def make_db(sim, **cfg):
    cfg.setdefault("next_key_locking", False)
    db = Database(sim, "xa", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(setup())
    return db


def find_prepared(db, txn_id):
    [txn] = [t for t in db.indoubt_transactions() if t.id == txn_id]
    return txn


def test_prepare_keeps_locks_and_state():
    sim = Simulator()
    db = make_db(sim)

    def go():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        txn = session.txn
        yield from db.prepare(txn)
        assert txn.state is TxnState.PREPARED
        assert txn.lock_count > 0
        assert db.indoubt_transactions() == [txn]
        yield from db.commit(txn)
        assert db.indoubt_transactions() == []

    sim.run_process(go())


def test_prepared_rows_invisible_to_others_until_decision():
    sim = Simulator()
    db = make_db(sim, lock_timeout=3.0)

    def owner():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        yield Timeout(10)
        yield from db.commit(session.txn)

    def reader():
        session = db.session()
        yield Timeout(1)
        with pytest.raises(TransactionAborted):
            yield from session.execute("SELECT * FROM t WHERE k = 1")
        yield Timeout(10)
        result = yield from session.execute("SELECT v FROM t WHERE k = 1")
        yield from session.commit()
        return result.scalar()

    sim.spawn(owner())
    proc = sim.spawn(reader())
    sim.run()
    assert proc.result == "a"


def test_prepared_txn_survives_crash_and_can_commit():
    sim = Simulator()
    db = make_db(sim)

    def phase1():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        return session.txn.id

    txn_id = sim.run_process(phase1())
    db.crash()
    summary = db.restart()
    assert summary["prepared"] == [txn_id]
    txn = find_prepared(db, txn_id)

    def decide():
        yield from db.commit(txn)
        session = db.session()
        result = yield from session.execute("SELECT v FROM t WHERE k = 1")
        yield from session.commit()
        return result.scalar()

    assert sim.run_process(decide()) == "a"
    assert db.indoubt_transactions() == []


def test_resurrected_indoubt_is_stamped_with_recovery_time():
    """Regression: resurrection used to stamp start time 0.0, making
    age-based policies (oldest-transaction reporting, lock-wait
    victim choice) see an infinitely old transaction."""
    sim = Simulator()
    db = make_db(sim)

    def phase1():
        yield Timeout(42.0)  # recovery happens well past t=0
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        return session.txn.id

    txn_id = sim.run_process(phase1())
    db.crash()
    db.restart()
    txn = find_prepared(db, txn_id)
    assert txn.start_time == sim.now
    assert txn.start_time >= 42.0


def test_prepared_txn_survives_crash_and_can_roll_back():
    sim = Simulator()
    db = make_db(sim)

    def phase1():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        return session.txn.id

    txn_id = sim.run_process(phase1())
    db.crash()
    db.restart()
    txn = find_prepared(db, txn_id)

    def decide():
        yield from db.rollback(txn)
        session = db.session()
        result = yield from session.execute("SELECT COUNT(*) FROM t")
        yield from session.commit()
        return result.scalar()

    assert sim.run_process(decide()) == 0


def test_recovered_indoubt_locks_block_writers():
    sim = Simulator()
    db = make_db(sim, lock_timeout=2.0)

    def phase1():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        return session.txn.id

    txn_id = sim.run_process(phase1())
    db.crash()
    db.restart()

    def intruder():
        session = db.session()
        with pytest.raises(TransactionAborted):
            yield from session.execute(
                "UPDATE t SET v = 'stolen' WHERE k = 1")
        return True

    assert sim.run_process(intruder()) is True

    def finish():
        yield from db.commit(find_prepared(db, txn_id))

    sim.run_process(finish())


def test_double_crash_keeps_indoubt_txn():
    sim = Simulator()
    db = make_db(sim)

    def phase1():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        yield from db.prepare(session.txn)
        return session.txn.id

    txn_id = sim.run_process(phase1())
    db.crash()
    db.restart()
    db.crash()
    summary = db.restart()
    assert summary["prepared"] == [txn_id]
    assert find_prepared(db, txn_id) is not None


def test_prepare_of_rollback_only_txn_fails():
    sim = Simulator()
    db = make_db(sim)

    def go():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        session.txn.mark_rollback_only("test")
        with pytest.raises(TransactionAborted):
            yield from db.prepare(session.txn)
        return True

    assert sim.run_process(go()) is True


def test_prepared_txn_pins_log_floor():
    """An indoubt transaction must keep its undo records reachable."""
    sim = Simulator()
    db = make_db(sim, wal_capacity=200)

    def go():
        session = db.session()
        yield from session.execute("INSERT INTO t (k, v) VALUES (0, 'p')")
        yield from db.prepare(session.txn)
        floor = db.txns.active_floor()
        assert floor is not None
        other = db.session()
        for k in range(1, 50):
            yield from other.execute(
                "INSERT INTO t (k, v) VALUES (?, 'x')", (k,))
            yield from other.commit()
        # the floor has not moved past the prepared txn's first record
        assert db.txns.active_floor() == floor
        yield from db.commit(session.txn)

    sim.run_process(go())
