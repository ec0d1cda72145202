"""Direct unit tests for the log manager and engine configuration."""

import pytest

from repro.errors import LogFullError
from repro.minidb import DBConfig
from repro.minidb.config import (ARCHIVE, COMPILE, INDEX_ENTRY, LOG_FORCE,
                                 PAGE_IO, PRICES, RPC, STATEMENT,
                                 TimingModel)
from repro.minidb.txn import Transaction
from repro.minidb.wal import (ABORT, CLR, COMMIT, INSERT, LogManager,
                              PREPARE)


def txn(txn_id=1):
    return Transaction(txn_id, "RR", 0.0)


def test_lsns_start_at_one_and_increase():
    wal = LogManager(capacity=100)
    t = txn()
    first = wal.append(INSERT, t, table="t", rid=(0, 0), after=(1,))
    second = wal.append(INSERT, t, table="t", rid=(0, 1), after=(2,))
    assert (first.lsn, second.lsn) == (1, 2)
    assert second.prev_lsn == 1
    assert t.first_lsn == 1
    assert t.last_lsn == 2


def test_force_is_monotone_and_reports_work():
    wal = LogManager(capacity=100)
    t = txn()
    wal.append(INSERT, t, table="t", rid=(0, 0), after=(1,))
    assert wal.force() is True
    assert wal.force() is False  # nothing new
    assert wal.flushed_upto == 1


def test_crash_discards_unforced_tail():
    wal = LogManager(capacity=100)
    t = txn()
    wal.append(INSERT, t, table="t", rid=(0, 0), after=(1,))
    wal.force()
    wal.append(INSERT, t, table="t", rid=(0, 1), after=(2,))
    wal.crash()
    assert wal.tail_lsn == 1
    assert [r.lsn for r in wal.durable_records()] == [1]


def test_capacity_enforced_for_data_records():
    wal = LogManager(capacity=3)
    t = txn()
    for i in range(3):
        wal.append(INSERT, t, table="t", rid=(0, i), after=(i,))
    with pytest.raises(LogFullError):
        wal.append(INSERT, t, table="t", rid=(0, 9), after=(9,))
    assert wal.metrics.log_fulls == 1
    assert t.rollback_only and t.abort_reason == "logfull"


def test_ending_records_allowed_even_when_full():
    wal = LogManager(capacity=2)
    t = txn()
    wal.append(INSERT, t, table="t", rid=(0, 0), after=(1,))
    wal.append(INSERT, t, table="t", rid=(0, 1), after=(2,))
    # CLRs / ABORT / COMMIT / PREPARE must still fit so the pinning
    # transaction can finish.
    wal.append(CLR, t, table="t", rid=(0, 1), after=None, undo_next=1)
    wal.append(ABORT, t)
    wal.append(PREPARE, txn(2))
    wal.append(COMMIT, txn(3))


def test_window_shrinks_after_checkpoint():
    wal = LogManager(capacity=10)
    t = txn()
    for i in range(5):
        wal.append(INSERT, t, table="t", rid=(0, i), after=(i,))
    wal.append(COMMIT, t)
    assert wal.window(active_floor=None) == 6
    wal.note_checkpoint(6)
    assert wal.window(active_floor=None) == 0


def test_active_floor_pins_window():
    wal = LogManager(capacity=100)
    old = txn(1)
    wal.append(INSERT, old, table="t", rid=(0, 0), after=(1,))
    for i in range(5):
        t = txn(10 + i)
        wal.append(INSERT, t, table="t", rid=(1, i), after=(i,))
        wal.append(COMMIT, t)
    wal.note_checkpoint(wal.tail_lsn)
    # the old transaction's first LSN still pins the window
    assert wal.window(active_floor=old.first_lsn) == wal.tail_lsn


# -- configuration -----------------------------------------------------------------

def test_config_validation():
    DBConfig().validate()
    with pytest.raises(ValueError):
        DBConfig(lock_timeout=0).validate()
    with pytest.raises(ValueError):
        DBConfig(maxlocks_fraction=0).validate()
    with pytest.raises(ValueError):
        DBConfig(isolation="SNAPSHOT").validate()
    with pytest.raises(ValueError):
        DBConfig(rows_per_page=0).validate()


def test_timing_model_zero_charges_nothing():
    timing = TimingModel()
    for kind in (STATEMENT, COMPILE, PAGE_IO, INDEX_ENTRY, LOG_FORCE, RPC,
                 ARCHIVE):
        assert timing.price(kind, 10) == 0.0


def test_timing_model_calibrated_charges():
    timing = TimingModel.calibrated()
    assert timing.price(STATEMENT) > 0
    assert timing.price(PAGE_IO, 2) == 2 * PRICES[PAGE_IO]
    assert timing.price(LOG_FORCE) > 0
    assert timing.price(RPC) > 0
    # The two terms a configuration sets default to free, and the
    # archive bills only when its own term is on.
    assert timing.price(COMPILE) == timing.price(INDEX_ENTRY) == 0.0
    assert timing.price(ARCHIVE, 1000) == 0.0
    timing.archive = True
    assert timing.price(ARCHIVE, 1000) == pytest.approx(0.05 + 0.1)
