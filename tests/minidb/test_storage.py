"""Tests for disk, buffer pool and heap files."""

import pytest

from repro.errors import DatabaseError
from repro.minidb.config import TimingModel, Unbilled
from repro.minidb.storage import BufferPool, Disk, Heap


def make_heap(capacity=100, rows_per_page=4, wal=None, force_log=None):
    disk = Disk()
    pool = BufferPool(disk, capacity, rows_per_page,
                      Unbilled(TimingModel.calibrated()), wal, force_log)
    return Heap("t", pool), pool, disk


def put(heap, row):
    """Insert ``row`` where the executor would: the first free rid."""
    return heap.insert(row, next(heap.free_rids()))


def clean(pool):
    """The page cleaner's pass over a pool without a log (every page is
    covered): write each dirty page, oldest recLSN first."""
    for key in pool.dirty_below(float("inf")):
        pool.clean(key)


def test_insert_returns_rids_and_fetch():
    heap, _, _ = make_heap()
    rid = put(heap, ("a", 1))
    assert heap.fetch(rid) == ("a", 1)
    assert heap.nrows == 1


def test_rows_fill_page_then_spill():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(5)]
    assert {rid[0] for rid in rids} == {0, 1, 2}
    assert heap.npages == 3


def test_delete_frees_slot_for_reuse():
    heap, _, _ = make_heap(rows_per_page=2)
    rid = put(heap, ("a",))
    put(heap, ("b",))
    heap.delete(rid)
    assert heap.fetch(rid) is None
    new_rid = put(heap, ("c",))
    assert new_rid == rid  # lowest free slot reused
    assert heap.nrows == 2


def test_first_free_rid_predicts_insert_position():
    heap, _, _ = make_heap(rows_per_page=2)
    assert next(heap.free_rids()) == (0, 0)
    rid = put(heap, ("a",))
    assert next(heap.free_rids()) == (0, 1)
    heap.delete(rid)
    assert next(heap.free_rids()) == (0, 0)


def test_free_rids_lists_reusable_space_lowest_first_then_a_fresh_page():
    """The order inserts try slots in: every free slot of every page
    with space, lowest page first, then the slots of the page the heap
    would grow by — and an insert lands on its first element."""
    heap, _, _ = make_heap(rows_per_page=2)
    assert list(heap.free_rids()) == [(0, 0), (0, 1)]   # empty heap
    rids = [put(heap, (i,)) for i in range(6)]         # pages 0-2, full
    assert list(heap.free_rids()) == [(3, 0), (3, 1)]
    heap.delete(rids[5])
    heap.delete(rids[0])
    heap.delete(rids[1])
    assert list(heap.free_rids()) == [(0, 0), (0, 1), (2, 1), (3, 0), (3, 1)]
    assert next(heap.free_rids()) == (0, 0)
    assert heap.npages == 3          # listing a fresh page creates nothing
    heap.insert(("x",), rid=(0, 0))
    assert next(heap.free_rids()) == (0, 1)


def test_is_free():
    heap, _, _ = make_heap()
    rid = put(heap, ("a",))
    assert not heap.is_free(rid)
    assert heap.is_free((5, 0))


def test_update_in_place():
    heap, _, _ = make_heap()
    rid = put(heap, ("a", 1))
    old = heap.update(rid, ("a", 2))
    assert old == ("a", 1)
    assert heap.fetch(rid) == ("a", 2)


def test_delete_empty_slot_is_error():
    heap, _, _ = make_heap()
    put(heap, ("a",))
    with pytest.raises(DatabaseError):
        heap.delete((0, 1))


def test_scan_yields_all_live_rows_in_rid_order():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(6)]
    heap.delete(rids[2])
    scanned = list(heap.scan())
    assert [row for _, row in scanned] == [(0,), (1,), (3,), (4,), (5,)]


def test_insert_at_forced_rid_for_redo():
    heap, _, _ = make_heap(rows_per_page=4)
    heap.insert(("x",), rid=(3, 2))
    assert heap.fetch((3, 2)) == ("x",)
    assert heap.npages == 4


def test_insert_at_occupied_forced_rid_is_error():
    heap, _, _ = make_heap()
    heap.insert(("a",), rid=(0, 0))
    with pytest.raises(DatabaseError):
        heap.insert(("b",), rid=(0, 0))


def test_buffer_pool_eviction_writes_dirty_pages():
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1)
    for i in range(5):
        put(heap, (i,))
    # With capacity 2, at least 3 pages must have been written back.
    assert pool.metrics.page_writes >= 3
    assert len(disk.page_numbers("t")) >= 3


def test_buffer_pool_reload_after_eviction_preserves_rows():
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1)
    rids = [put(heap, (i,)) for i in range(10)]
    for rid, expected in zip(rids, range(10)):
        assert heap.fetch(rid) == (expected,)


def test_cleaned_pages_survive_a_crash():
    heap, pool, disk = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(4)]
    clean(pool)
    assert pool.metrics.cleaned == 2
    pool.clear()  # crash: volatile cache gone
    recovered = Heap.recover_lazy("t", pool)
    assert recovered.npages == 2
    for rid, expected in zip(rids, range(4)):
        assert recovered.fetch(rid) == (expected,)


def test_unflushed_pages_lost_on_clear():
    heap, pool, disk = make_heap(rows_per_page=2)
    put(heap, (1,))
    pool.clear()
    recovered = Heap.recover_lazy("t", pool)
    assert recovered.npages == 0


def test_disk_snapshots_are_isolated_from_later_mutation():
    heap, pool, disk = make_heap(rows_per_page=2)
    rid = put(heap, ("original",))
    clean(pool)
    heap.update(rid, ("mutated",))
    stored = disk.read_page("t", 0, 2)
    assert stored.slots[0] == ("original",)


def test_page_lsn_round_trip_through_disk():
    heap, pool, disk = make_heap()
    rid = put(heap, ("a",))
    heap.set_page_lsn(rid[0], 42)
    clean(pool)
    pool.clear()
    recovered = Heap.recover_lazy("t", pool)
    assert recovered.page_lsn(rid[0]) == 42


class Log:
    """The one thing the pool reads of a log: its durable watermark."""

    def __init__(self):
        self.flushed_upto = 0


def test_the_first_change_since_a_page_was_written_sets_its_rec_lsn():
    heap, pool, _ = make_heap(rows_per_page=1)
    for lsn, page_no in ((5, 0), (6, 1), (7, 0), (8, 2)):
        heap.set_page_lsn(page_no, lsn)
    assert [pool.rec_lsn(("t", n)) for n in range(3)] == [5, 6, 8]
    assert pool.oldest_rec_lsn() == 5
    assert pool.dirty_below(8) == [("t", 0), ("t", 1)]
    pool.clean(("t", 0))
    assert pool.rec_lsn(("t", 0)) is None and pool.oldest_rec_lsn() == 6
    heap.set_page_lsn(0, 9)
    assert pool.dirty_below(10) == [("t", 1), ("t", 2), ("t", 0)]


def test_a_steal_skips_frames_ahead_of_the_log():
    log = Log()
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1, wal=log,
                                 force_log=lambda: None)
    heap.set_page_lsn(0, 1)
    heap.set_page_lsn(1, 2)
    log.flushed_upto = 2
    heap.set_page_lsn(0, 3)          # page 0 is ahead of the log again
    heap.fetch((1, 0))               # ... and the least recently used
    heap.set_page_lsn(2, 4)          # a steal for page 2 takes page 1
    assert disk.page_numbers("t") == [1]
    assert pool.metrics.page_writes == 1


def test_a_steal_forces_the_log_when_every_frame_is_ahead_of_it():
    log = Log()

    def force_log():
        forced.append(log.flushed_upto)
        log.flushed_upto = 3

    forced = []
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1, wal=log,
                                 force_log=force_log)
    heap.set_page_lsn(0, 1)
    heap.set_page_lsn(1, 2)
    heap.set_page_lsn(2, 3)
    assert forced == [0]
    assert disk.page_numbers("t") == [0]
    assert pool.unbilled.pages == 2  # the log page forced, the page stolen
    assert pool.flush_all() == 2     # everything the log covers now


def test_drop_table_removes_pages():
    heap, pool, disk = make_heap()
    put(heap, ("a",))
    clean(pool)
    pool.drop_table("t")
    assert disk.page_numbers("t") == []


def test_unbilled_pages_count_misses_and_writes():
    heap, pool, _ = make_heap(capacity=1, rows_per_page=1)
    for i in range(4):
        put(heap, (i,))
    io = pool.metrics.misses + pool.metrics.page_writes
    assert pool.unbilled.pages == io > 0
    assert pool.unbilled.drain() == pytest.approx(0.004 * io)
    assert pool.unbilled.drain() == 0.0  # drained


# -- free-space hint (lazy min-heap over _free_pages) -------------------------

def test_free_hint_always_picks_lowest_page_with_space():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(8)]   # pages 0..3 full
    heap.delete(rids[6])                           # page 3 has a hole
    heap.delete(rids[2])                           # page 1 has a hole
    assert next(heap.free_rids()) == rids[2]         # lowest wins
    assert put(heap, ("x",)) == rids[2]
    assert next(heap.free_rids()) == rids[6]
    assert put(heap, ("y",)) == rids[6]
    # everything full again: next insert extends the heap
    assert next(heap.free_rids()) == (4, 0)


def test_free_hint_skips_stale_entries():
    """Pages that filled back up (or duplicate notes) pop lazily without
    being offered as candidates."""
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(4)]
    # Free and refill page 0 repeatedly: the hint heap accumulates
    # notes; only live free space may surface.
    for _ in range(3):
        heap.delete(rids[0])
        assert put(heap, ("again",)) == rids[0]
    assert next(heap.free_rids()) == (2, 0)
    assert put(heap, ("tail",)) == (2, 0)


def test_free_hint_starts_empty_after_a_lazy_recover():
    """No page is read at restart, so free space on durable pages is
    unknown: inserts go to a fresh page until a delete frees a slot."""
    heap, pool, _ = make_heap(rows_per_page=2)
    rids = [put(heap, (i,)) for i in range(6)]
    heap.delete(rids[1])
    clean(pool)
    pool.clear()
    recovered = Heap.recover_lazy("t", pool)
    assert next(recovered.free_rids()) == (3, 0)
    recovered.delete(rids[2])
    assert next(recovered.free_rids()) == rids[2]


def test_free_hint_matches_linear_scan_reference():
    """Differential check: the hinted candidate always equals what the
    seed's linear scan over all pages would have chosen."""
    import random

    rng = random.Random(11)
    heap, _, _ = make_heap(rows_per_page=3)
    live = []
    for step in range(300):
        if live and rng.random() < 0.4:
            rid = live.pop(rng.randrange(len(live)))
            heap.delete(rid)
        else:
            live.append(put(heap, (step,)))
        # reference: lowest (page, slot) with a free slot, else new page
        expected = None
        for page_no in range(heap.npages):
            page = heap._page_for(page_no)
            slot = page.first_free()
            if slot is not None:
                expected = (page_no, slot)
                break
        if expected is None:
            expected = (heap.npages, 0)
        assert next(heap.free_rids()) == expected
