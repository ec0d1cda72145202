"""Lock manager tests: modes, queuing, deadlock, timeout, escalation."""

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb.config import DBConfig
from repro.minidb.locks import LockManager, LockMode, compatible, supremum
from repro.minidb.txn import TransactionTable


def make(sim=None, **cfg):
    sim = sim or Simulator()
    config = DBConfig(**cfg) if cfg else DBConfig()
    return sim, LockManager(sim, config), TransactionTable()


ROW = ("row", "t", (0, 0))
ROW2 = ("row", "t", (0, 1))
TABLE = ("table", "t")


# -- mode algebra -----------------------------------------------------------

def test_compatibility_matrix_symmetry():
    for a in LockMode:
        for b in LockMode:
            assert compatible(a, b) == compatible(b, a)


def test_compatibility_spot_checks():
    assert compatible(LockMode.IS, LockMode.IX)
    assert compatible(LockMode.IX, LockMode.IX)
    assert not compatible(LockMode.IX, LockMode.S)
    assert compatible(LockMode.S, LockMode.S)
    assert not compatible(LockMode.X, LockMode.IS)
    assert compatible(LockMode.SIX, LockMode.IS)
    assert not compatible(LockMode.SIX, LockMode.IX)


def test_supremum_lattice():
    assert supremum(LockMode.IS, LockMode.IX) == LockMode.IX
    assert supremum(LockMode.S, LockMode.IX) == LockMode.SIX
    assert supremum(LockMode.S, LockMode.X) == LockMode.X
    assert supremum(LockMode.S, LockMode.S) == LockMode.S


# -- basic acquisition --------------------------------------------------------

def test_compatible_locks_granted_immediately():
    sim, locks, txns = make()

    def main():
        t1 = txns.begin("RR", 0)
        t2 = txns.begin("RR", 0)
        assert (yield from locks.acquire(t1, ROW, LockMode.S)) is True
        assert (yield from locks.acquire(t2, ROW, LockMode.S)) is True
        return locks.total_locks

    # two row S locks + one IS intent lock per transaction
    assert sim.run_process(main()) == 4


def test_reacquire_same_lock_is_noop():
    sim, locks, txns = make()

    def main():
        t1 = txns.begin("RR", 0)
        assert (yield from locks.acquire(t1, ROW, LockMode.S)) is True
        assert (yield from locks.acquire(t1, ROW, LockMode.S)) is False
        return locks.total_locks

    # the row S lock + the implicit IS intent lock on its table
    assert sim.run_process(main()) == 2


def test_incompatible_lock_waits_until_release():
    sim, locks, txns = make()
    trace = []

    def holder():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.X)
        yield Timeout(10.0)
        locks.release_all(t1)
        trace.append(("released", sim.now))

    def waiter():
        t2 = txns.begin("RR", 0)
        yield Timeout(1.0)
        yield from locks.acquire(t2, ROW, LockMode.S)
        trace.append(("granted", sim.now))

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert trace == [("released", 10.0), ("granted", 10.0)]
    assert locks.metrics.waits == 1


def test_conversion_s_to_x_when_sole_holder():
    sim, locks, txns = make()

    def main():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.S)
        yield from locks.acquire(t1, ROW, LockMode.X)
        assert locks.holders_of(ROW)[t1.id] == LockMode.X
        # intent on the table upgraded IS → IX alongside the conversion
        assert locks.holders_of(TABLE)[t1.id] == LockMode.IX
        assert locks.total_locks == 2

    sim.run_process(main())


def test_conversion_jumps_ahead_of_queued_fresh_requests():
    sim, locks, txns = make()
    order = []

    def holder_converting():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.S)
        yield Timeout(2.0)
        yield from locks.acquire(t1, ROW, LockMode.X)  # waits for t2's S
        order.append(("t1-X", sim.now))
        locks.release_all(t1)

    def co_holder():
        t2 = txns.begin("RR", 0)
        yield from locks.acquire(t2, ROW, LockMode.S)
        yield Timeout(5.0)
        locks.release_all(t2)

    def fresh_x():
        t3 = txns.begin("RR", 0)
        yield Timeout(1.0)
        yield from locks.acquire(t3, ROW, LockMode.X)
        order.append(("t3-X", sim.now))
        locks.release_all(t3)

    sim.spawn(holder_converting())
    sim.spawn(co_holder())
    sim.spawn(fresh_x())
    sim.run()
    assert order == [("t1-X", 5.0), ("t3-X", 5.0)]


def test_fifo_fairness_no_starvation_of_x_by_s_stream():
    sim, locks, txns = make()
    grants = []

    def s_holder():
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, ROW, LockMode.S)
        yield Timeout(3.0)
        locks.release_all(t)

    def x_waiter():
        t = txns.begin("RR", 0)
        yield Timeout(1.0)
        yield from locks.acquire(t, ROW, LockMode.X)
        grants.append(("X", sim.now))
        locks.release_all(t)

    def late_s():
        t = txns.begin("RR", 0)
        yield Timeout(2.0)
        yield from locks.acquire(t, ROW, LockMode.S)  # must queue behind X
        grants.append(("S", sim.now))
        locks.release_all(t)

    sim.spawn(s_holder())
    sim.spawn(x_waiter())
    sim.spawn(late_s())
    sim.run()
    assert grants == [("X", 3.0), ("S", 3.0)]


# -- timeouts -----------------------------------------------------------------

def test_lock_timeout_raises_and_marks_rollback_only():
    sim, locks, txns = make(lock_timeout=5.0)

    def holder():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.X)
        yield Timeout(100.0)
        locks.release_all(t1)

    def victim():
        t2 = txns.begin("RR", 0)
        with pytest.raises(LockTimeoutError):
            yield from locks.acquire(t2, ROW, LockMode.S)
        assert t2.rollback_only
        assert t2.abort_reason == "timeout"
        return sim.now

    sim.spawn(holder())
    proc = sim.spawn(victim())
    sim.run()
    assert proc.result == 5.0
    assert locks.metrics.timeouts == 1


def test_a_waiter_killed_in_the_queue_is_never_granted_the_lock():
    """A process killed while it waits (a chaos round that outlived its
    budget, behind an in-doubt XA branch's locks) leaves the queue with
    it: its transaction is rolled back by whoever cleans up, and the
    holder's release must not grant the lock to the corpse."""
    sim, locks, txns = make()
    t1, t2, t3 = (txns.begin("RR", 0) for _ in range(3))

    def holder():
        yield from locks.acquire(t1, ROW, LockMode.X)
        yield Timeout(10.0)
        locks.release_all(t1)

    def waiter(txn):
        yield Timeout(1.0)
        yield from locks.acquire(txn, ROW, LockMode.X)
        return sim.now

    sim.spawn(holder())
    doomed, patient = sim.spawn(waiter(t2)), sim.spawn(waiter(t3))
    sim.run(until=5.0)
    doomed.kill()
    locks.release_all(t2)           # the cleanup's rollback
    sim.run()
    assert patient.result == 10.0   # next in line, not stuck behind t2
    locks.release_all(t3)
    assert locks.total_locks == 0 and locks.heads == {}
    assert locks.waiting_txns() == []


def test_per_request_timeout_overrides_config():
    sim, locks, txns = make(lock_timeout=60.0)

    def holder():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.X)
        yield Timeout(100.0)
        locks.release_all(t1)

    def victim():
        t2 = txns.begin("RR", 0)
        with pytest.raises(LockTimeoutError):
            yield from locks.acquire(t2, ROW, LockMode.S, timeout=2.0)
        return sim.now

    sim.spawn(holder())
    proc = sim.spawn(victim())
    sim.run()
    assert proc.result == 2.0


# -- deadlock detection ------------------------------------------------------------

def test_two_txn_deadlock_detected_youngest_dies():
    sim, locks, txns = make()
    outcome = {}

    def t1_proc():
        t1 = txns.begin("RR", 0)
        yield from locks.acquire(t1, ROW, LockMode.X)
        yield Timeout(0.5)
        try:
            yield from locks.acquire(t1, ROW2, LockMode.X)
            outcome["t1"] = "granted"
            locks.release_all(t1)
        except DeadlockError:
            outcome["t1"] = "deadlock"
            locks.release_all(t1)

    def t2_proc():
        t2 = txns.begin("RR", 0)
        yield from locks.acquire(t2, ROW2, LockMode.X)
        yield Timeout(0.5)
        try:
            yield from locks.acquire(t2, ROW, LockMode.X)
            outcome["t2"] = "granted"
            locks.release_all(t2)
        except DeadlockError:
            outcome["t2"] = "deadlock"
            locks.release_all(t2)

    sim.spawn(t1_proc())
    sim.spawn(t2_proc())
    sim.run()
    # t2 is younger (higher id) → chosen as victim; t1 then proceeds.
    assert outcome == {"t1": "granted", "t2": "deadlock"}
    assert locks.metrics.deadlocks == 1


def test_three_txn_cycle_detected():
    sim, locks, txns = make()
    deadlocked = []

    def proc(mine, wanted):
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, mine, LockMode.X)
        yield Timeout(0.5)
        try:
            yield from locks.acquire(t, wanted, LockMode.X)
        except DeadlockError:
            deadlocked.append(t.id)
        locks.release_all(t)

    r = [("row", "t", (0, i)) for i in range(3)]
    sim.spawn(proc(r[0], r[1]))
    sim.spawn(proc(r[1], r[2]))
    sim.spawn(proc(r[2], r[0]))
    sim.run()
    assert len(deadlocked) == 1
    assert locks.metrics.deadlocks == 1


def test_no_false_deadlock_for_plain_waiting():
    sim, locks, txns = make()

    def holder():
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, ROW, LockMode.X)
        yield Timeout(10.0)
        locks.release_all(t)

    def waiter():
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, ROW, LockMode.X)
        locks.release_all(t)
        return "granted"

    sim.spawn(holder())
    proc = sim.spawn(waiter())
    sim.run()
    assert proc.result == "granted"
    assert locks.metrics.deadlocks == 0


def test_conversion_deadlock_two_s_holders_both_want_x():
    sim, locks, txns = make()
    results = []

    def proc(delay):
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, ROW, LockMode.S)
        yield Timeout(delay)
        try:
            yield from locks.acquire(t, ROW, LockMode.X)
            results.append("granted")
        except DeadlockError:
            results.append("deadlock")
        locks.release_all(t)

    sim.spawn(proc(0.1))
    sim.spawn(proc(0.2))
    sim.run()
    assert sorted(results) == ["deadlock", "granted"]


# -- escalation ---------------------------------------------------------------------

def test_row_locks_escalate_to_table_lock():
    sim, locks, txns = make(locklist_size=100, maxlocks_fraction=0.1)

    def main():
        t = txns.begin("RR", 0)
        for i in range(12):  # threshold = 10
            yield from locks.acquire(t, ("row", "t", (0, i)), LockMode.X)
        assert locks.metrics.escalations == 1
        assert locks.holders_of(TABLE)[t.id] == LockMode.X
        # Row locks were traded in: total should be just the table lock.
        assert locks.total_locks == 1
        locks.release_all(t)

    sim.run_process(main())


def test_escalation_to_s_for_read_only_txn():
    sim, locks, txns = make(locklist_size=100, maxlocks_fraction=0.1)

    def main():
        t = txns.begin("RR", 0)
        for i in range(12):
            yield from locks.acquire(t, ("row", "t", (0, i)), LockMode.S)
        assert locks.holders_of(TABLE)[t.id] == LockMode.S
        locks.release_all(t)

    sim.run_process(main())


def test_escalated_table_lock_covers_future_row_requests():
    sim, locks, txns = make(locklist_size=100, maxlocks_fraction=0.1)

    def main():
        t = txns.begin("RR", 0)
        for i in range(20):
            yield from locks.acquire(t, ("row", "t", (0, i)), LockMode.X)
        assert locks.metrics.escalations == 1  # only once
        assert locks.total_locks == 1
        locks.release_all(t)

    sim.run_process(main())


def test_escalation_blocks_other_transactions_entirely():
    sim, locks, txns = make(locklist_size=100, maxlocks_fraction=0.1,
                            lock_timeout=5.0)
    timeline = []

    def big():
        t = txns.begin("RR", 0)
        for i in range(12):
            yield from locks.acquire(t, ("row", "t", (0, i)), LockMode.X)
        yield Timeout(10.0)
        locks.release_all(t)
        timeline.append(("big-done", sim.now))

    def small():
        t = txns.begin("RR", 0)
        yield Timeout(1.0)
        try:
            # A row the big txn never touched — blocked anyway (table X).
            yield from locks.acquire(t, ("row", "t", (9, 9)), LockMode.X)
            timeline.append(("small-granted", sim.now))
        except LockTimeoutError:
            timeline.append(("small-timeout", sim.now))
        locks.release_all(t)

    sim.spawn(big())
    sim.spawn(small())
    sim.run()
    assert ("small-timeout", 6.0) in timeline


def test_release_all_wakes_compatible_queue_prefix():
    sim, locks, txns = make()
    granted = []

    def holder():
        t = txns.begin("RR", 0)
        yield from locks.acquire(t, ROW, LockMode.X)
        yield Timeout(2.0)
        locks.release_all(t)

    def reader(i):
        t = txns.begin("RR", 0)
        yield Timeout(1.0)
        yield from locks.acquire(t, ROW, LockMode.S)
        granted.append((i, sim.now))

    sim.spawn(holder())
    for i in range(3):
        sim.spawn(reader(i))
    sim.run()
    assert granted == [(0, 2.0), (1, 2.0), (2, 2.0)]  # all readers together


def test_early_release_single_lock():
    sim, locks, txns = make()

    def main():
        t1 = txns.begin("CS", 0)
        yield from locks.acquire(t1, ROW, LockMode.S)
        locks.release(t1, ROW)
        # The IS intent lock on the table remains; only the row is freed.
        assert locks.total_locks == 1
        assert locks.holders_of(TABLE)[t1.id] == LockMode.IS
        assert t1.row_lock_count("t") == 0

    sim.run_process(main())


def test_acquire_after_abort_is_rejected():
    sim, locks, txns = make()

    def main():
        t = txns.begin("RR", 0)
        t.mark_rollback_only("test")
        with pytest.raises(TransactionAborted):
            yield from locks.acquire(t, ROW, LockMode.S)

    sim.run_process(main())
