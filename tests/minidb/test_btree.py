"""Unit and property-based tests for the B+tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError
from repro.minidb.btree import (BTree, INFINITY_KEY, _Inner, encode_key,
                                encode_value)


def make(unique=False, order=8):
    return BTree("idx", "t", ("k",), unique, order=order)


def test_insert_and_search_eq():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("b",), (0, 1))
    assert tree.search_eq(("a",)) == [(0, 0)]
    assert tree.search_eq(("b",)) == [(0, 1)]
    assert tree.search_eq(("c",)) == []


def test_duplicate_rids_allowed_on_non_unique():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("a",), (0, 1))
    assert sorted(tree.search_eq(("a",))) == [(0, 0), (0, 1)]


def test_unique_index_rejects_duplicate_key():
    tree = make(unique=True)
    tree.insert(("a",), (0, 0))
    with pytest.raises(DuplicateKeyError):
        tree.insert(("a",), (0, 1))
    assert len(tree) == 1


def test_delete_specific_entry():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("a",), (0, 1))
    assert tree.delete(("a",), (0, 0)) is True
    assert tree.search_eq(("a",)) == [(0, 1)]
    assert tree.delete(("a",), (9, 9)) is False


def test_splits_preserve_order_with_many_keys():
    tree = make(order=4)
    keys = [f"k{i:04d}" for i in range(500)]
    for i, key in enumerate(keys):
        tree.insert((key,), (i, 0))
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(encode_key((k,)) for k in keys)
    assert type(tree._root) is _Inner


def test_range_scan_inclusive_exclusive():
    tree = make()
    for i in range(10):
        tree.insert((i,), (i, 0))
    rids = [rid for _, rid in tree.scan_range((3,), True, (6,), True)]
    assert rids == [(3, 0), (4, 0), (5, 0), (6, 0)]
    rids = [rid for _, rid in tree.scan_range((3,), False, (6,), False)]
    assert rids == [(4, 0), (5, 0)]


def test_range_scan_unbounded_sides():
    tree = make()
    for i in range(5):
        tree.insert((i,), (i, 0))
    assert [r for _, r in tree.scan_range(None, True, (2,), True)] == [
        (0, 0), (1, 0), (2, 0)]
    assert [r for _, r in tree.scan_range((3,), True, None, True)] == [
        (3, 0), (4, 0)]


def test_prefix_scan_on_composite_key():
    tree = BTree("idx", "t", ("a", "b"), unique=False, order=8)
    tree.insert((1, "x"), (0, 0))
    tree.insert((1, "y"), (0, 1))
    tree.insert((2, "x"), (0, 2))
    rids = [rid for _, rid in tree.scan_range((1,), True, (1,), True)]
    assert rids == [(0, 0), (0, 1)]


def test_next_key_after():
    tree = make()
    for value in (10, 20, 30):
        tree.insert((value,), (value, 0))
    assert tree.next_key_after((10,)) == encode_key((20,))
    assert tree.next_key_after((15,)) == encode_key((20,))
    assert tree.next_key_after((30,)) is INFINITY_KEY
    assert tree.next_key_after(None) == encode_key((10,))


def test_next_key_skips_equal_duplicates():
    tree = make()
    tree.insert((10,), (0, 0))
    tree.insert((10,), (0, 1))
    tree.insert((20,), (0, 2))
    assert tree.next_key_after((10,)) == encode_key((20,))


def test_null_sorts_lowest():
    tree = make()
    tree.insert((None,), (0, 0))
    tree.insert((1,), (0, 1))
    scanned = [rid for _, rid in tree.scan_range(None, True, None, True)]
    assert scanned == [(0, 0), (0, 1)]


def test_mixed_type_keys_order_stably():
    assert encode_value(None) < encode_value(5) < encode_value("a")


def test_clear():
    tree = make()
    tree.insert((1,), (0, 0))
    tree.clear()
    assert len(tree) == 0
    assert tree.search_eq((1,)) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=300))
def test_property_inserted_keys_all_findable(values):
    tree = BTree("idx", "t", ("k",), unique=False, order=6)
    for i, value in enumerate(values):
        tree.insert((value,), (i, 0))
    for i, value in enumerate(values):
        assert (i, 0) in tree.search_eq((value,))
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(scanned)
    assert len(scanned) == len(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=50)),
                min_size=1, max_size=200))
def test_property_matches_reference_model(ops):
    """Insert/delete fuzz against a sorted-list reference model."""
    tree = BTree("idx", "t", ("k",), unique=False, order=5)
    model: list[tuple[int, tuple]] = []
    for i, (is_insert, value) in enumerate(ops):
        if is_insert:
            tree.insert((value,), (i, 0))
            model.append((value, (i, 0)))
        elif model:
            value, rid = model.pop()
            assert tree.delete((value,), rid) is True
    expected = sorted((encode_key((v,)), rid) for v, rid in model)
    actual = list(tree.scan_range(None, True, None, True))
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=1000), min_size=2,
               max_size=100))
def test_property_next_key_matches_sorted_order(values):
    tree = BTree("idx", "t", ("k",), unique=True, order=7)
    ordered = sorted(values)
    for i, value in enumerate(ordered):
        tree.insert((value,), (i, 0))
    for a, b in zip(ordered, ordered[1:]):
        assert tree.next_key_after((a,)) == encode_key((b,))
    assert tree.next_key_after((ordered[-1],)) is INFINITY_KEY


composite = st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                      st.integers(0, 3))
bound = st.one_of(st.none(),
                  st.tuples(st.integers(-1, 7)),
                  st.tuples(st.integers(-1, 7), st.integers(-1, 4)))


@settings(max_examples=80, deadline=None)
@given(st.lists(composite, min_size=0, max_size=80), bound, st.booleans(),
       bound, st.booleans(), st.booleans())
def test_property_range_scan_with_prefix_bounds(keys, lo, lo_inc, hi, hi_inc,
                                                bulk):
    """Every bound shape the in-leaf bisect has to get right: full and
    prefix bounds, inclusive and exclusive, duplicates spanning leaves,
    NULLs, bounds below and above every key — against a filtered sorted
    list, for a split-grown and a bulk-loaded tree."""
    tree = BTree("idx", "t", ("a", "b"), unique=False, order=4)
    pairs = [(encode_key(key), (i, 0)) for i, key in enumerate(keys)]
    if bulk:
        tree.bulk_load(pairs)
    else:
        for i, key in enumerate(keys):
            tree.insert(key, (i, 0))

    def inside(ekey):
        if lo is not None:
            prefix, elo = ekey[:len(lo)], encode_key(lo)
            if prefix < elo or (prefix == elo and not lo_inc):
                return False
        if hi is not None:
            prefix, ehi = ekey[:len(hi)], encode_key(hi)
            if prefix > ehi or (prefix == ehi and not hi_inc):
                return False
        return True

    expected = [pair for pair in sorted(pairs) if inside(pair[0])]
    assert list(tree.scan_range(lo, lo_inc, hi, hi_inc)) == expected


# ------------------------------------------------------------------- bulk load

def test_bulk_load_empty_input():
    tree = make()
    tree.bulk_load([])
    assert len(tree) == 0
    assert tree.search_eq(("a",)) == []
    tree.insert(("a",), (0, 0))          # the empty tree is still usable
    assert tree.search_eq(("a",)) == [(0, 0)]


def test_bulk_load_keeps_duplicates_on_non_unique():
    tree = make(order=4)
    pairs = [(encode_key(("a",)), (0, i)) for i in range(5)]
    pairs += [(encode_key(("b",)), (1, 0))]
    tree.bulk_load(pairs)
    assert sorted(tree.search_eq(("a",))) == [(0, i) for i in range(5)]
    assert tree.search_eq(("b",)) == [(1, 0)]
    assert len(tree) == 6


def test_bulk_load_sorts_out_of_order_input():
    """The build SORTS its input rather than requiring pre-sorted pairs
    (the chosen contract — callers hand it raw (key, rid) mixes); feed
    it reversed input and assert full ordering."""
    tree = make(order=4)
    keys = [f"k{i:03d}" for i in range(100)]
    pairs = [(encode_key((k,)), (i, 0)) for i, k in enumerate(keys)]
    pairs.reverse()
    tree.bulk_load(pairs)
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(encode_key((k,)) for k in keys)
    assert type(tree._root) is _Inner


def test_bulk_load_differential_against_per_row():
    """10k random keys (with duplicates): the bottom-up build must be
    observationally identical to per-row inserts."""
    import random
    rng = random.Random(7)
    keys = [rng.randrange(100_000) for _ in range(10_000)]
    per_row = make(order=64)
    for i, k in enumerate(keys):
        per_row.insert((k,), (i, 0))
    bulk = make(order=64)
    bulk.bulk_load([(encode_key((k,)), (i, 0))
                    for i, k in enumerate(keys)])
    assert len(bulk) == len(per_row) == 10_000
    assert list(bulk.items()) == list(per_row.items())
    for k in rng.sample(keys, 50):
        assert sorted(bulk.search_eq((k,))) == sorted(
            per_row.search_eq((k,)))
    probe = rng.randrange(100_000)
    assert bulk.next_key_after(encode_key((probe,))) == \
        per_row.next_key_after(encode_key((probe,)))


def test_bulk_load_replaces_prior_contents():
    tree = make()
    tree.insert(("old",), (9, 9))
    tree.bulk_load([(encode_key(("new",)), (0, 0))])
    assert tree.search_eq(("old",)) == []
    assert tree.search_eq(("new",)) == [(0, 0)]
    assert len(tree) == 1


# ------------------------------------------------- (ekey, rid) order, modelled

few_keys = st.tuples(st.one_of(st.none(), st.integers(0, 2)),
                     st.one_of(st.none(), st.integers(0, 1)))
small_rids = st.tuples(st.integers(0, 30), st.integers(0, 3))
insert_op = st.tuples(st.just("insert"), few_keys, small_rids)
model_ops = st.lists(
    st.one_of(insert_op, insert_op, insert_op,
              st.tuples(st.just("delete"), st.integers(0, 10_000)),
              st.tuples(st.just("delete-absent"), few_keys, small_rids),
              st.tuples(st.just("bulk"))),
    max_size=150)
prefix_bound = st.one_of(
    st.none(),
    st.tuples(st.one_of(st.none(), st.integers(-1, 3))),
    st.tuples(st.one_of(st.none(), st.integers(-1, 3)),
              st.one_of(st.none(), st.integers(-1, 2))))


@pytest.mark.parametrize("order", [4, 64])
@pytest.mark.parametrize("unique", [False, True])
@settings(max_examples=50, deadline=None)
@given(ops=model_ops, bounds=st.lists(st.tuples(prefix_bound, prefix_bound),
                                      max_size=3))
def test_property_entries_sort_by_key_then_rid_whatever_the_history(
        order, unique, ops, bounds):
    """The tree against a plain set of ``(ekey, rid)`` pairs: few
    distinct keys (NULL components included) so duplicate runs span
    leaves, inserts landing in the middle of a run, deletes, and a
    ``bulk_load`` of the current contents in mid-run (what restart does).
    At the end the tree lists its entries in sorted order — the order a
    fresh ``bulk_load`` of the same pairs builds — and every probe
    agrees with a filter over the sorted model."""
    def decode(ekey):
        return tuple(None if rank == 0 else value for rank, value in ekey)

    tree = BTree("idx", "t", ("a", "b"), unique=unique, order=order)
    model: set = set()
    if not unique:
        # Two runs of duplicates that already span leaves at this order,
        # with rids the generated ones (slot < 4) fall in between.
        for n in range(3 * order):
            key, rid = ((1, None), (1, 0))[n % 2], (n % 31, 4 + n // 31)
            tree.insert(key, rid)
            model.add((encode_key(key), rid))
    for op in ops:
        if op[0] == "insert":
            _, key, rid = op
            pair = (encode_key(key), rid)
            if unique and any(ekey == pair[0] for ekey, _ in model):
                with pytest.raises(DuplicateKeyError):
                    tree.insert(key, rid)
            elif pair not in model:
                tree.insert(key, rid)
                model.add(pair)
        elif op[0] == "delete" and model:
            pair = sorted(model)[op[1] % len(model)]
            assert tree.delete(decode(pair[0]), pair[1]) is True
            model.remove(pair)
        elif op[0] == "delete-absent":
            _, key, rid = op
            if (encode_key(key), rid) not in model:
                assert tree.delete(key, rid) is False
        elif op[0] == "bulk":
            tree.bulk_load(list(model))
        assert len(tree) == len(model)

    expected = sorted(model)
    assert list(tree.items()) == expected
    rebuilt = BTree("idx", "t", ("a", "b"), unique=unique, order=order)
    rebuilt.bulk_load(reversed(expected))
    assert list(rebuilt.items()) == expected

    for ekey, rid in expected:
        assert rid in tree.search_eq(decode(ekey))
    for lo, hi in bounds:
        elo = encode_key(lo) if lo is not None else None
        ehi = encode_key(hi) if hi is not None else None
        for lo_inc in (True, False):
            for hi_inc in (True, False):
                def inside(ekey):
                    if elo is not None:
                        prefix = ekey[:len(elo)]
                        if prefix < elo or (prefix == elo and not lo_inc):
                            return False
                    if ehi is not None:
                        prefix = ekey[:len(ehi)]
                        if prefix > ehi or (prefix == ehi and not hi_inc):
                            return False
                    return True
                assert list(tree.scan_range(lo, lo_inc, hi, hi_inc)) == [
                    pair for pair in expected if inside(pair[0])]
        if lo is not None:
            later = [ekey for ekey, _ in expected if ekey[:len(elo)] > elo]
            assert tree.next_key_after(lo) == (later[0] if later
                                               else INFINITY_KEY)
            assert tree.search_eq(lo) == [
                rid for ekey, rid in expected if ekey[:len(elo)] == elo]
    assert tree.next_key_after(None) == (expected[0][0] if expected
                                         else INFINITY_KEY)


def test_a_late_insert_lands_inside_its_duplicate_run():
    """The smallest case: 20 duplicates of one key fill several leaves
    of an order-4 tree, then rid 3 arrives. It belongs between rids 2
    and 10 — not wherever a descent by the bare key happens to drop it."""
    tree = make(order=4)
    for n in range(10, 30):
        tree.insert((1,), (n, 0))
    tree.insert((1,), (3, 0))
    rids = [rid for _, rid in tree.scan_range((1,), True, (1,), True)]
    assert rids == sorted(rids)
    assert list(tree.items()) == sorted(tree.items())
    rebuilt = make(order=4)
    rebuilt.bulk_load(list(tree.items()))
    assert list(rebuilt.items()) == list(tree.items())
    assert tree.delete((1,), (3, 0)) is True and len(tree) == 20


@pytest.mark.parametrize("bulk", [False, True])
def test_an_entry_equal_to_a_separator_is_found_again(bulk):
    """Separators are entries, so one can be deleted and come back as
    the very same pair; insert, delete and scan must then all descend
    to the same side of it."""
    tree = make(order=4)
    pairs = [(encode_key((1,)), (n, 0)) for n in range(40)]
    if bulk:
        tree.bulk_load(pairs)
    else:
        for _, rid in pairs:
            tree.insert((1,), rid)
    assert type(tree._root.children[0]) is _Inner
    for _, rid in pairs:
        assert tree.delete((1,), rid) is True
        tree.insert((1,), rid)
        assert tree.delete((1,), rid) is True
        assert rid not in tree.search_eq((1,))
        tree.insert((1,), rid)
        assert list(tree.items()) == pairs


def test_equal_scan_bounds_are_encoded_once(monkeypatch):
    """An equality probe's two bounds are equal, not necessarily one
    object: either way the second ``encode_key`` is skipped, and a
    genuine range still encodes both."""
    from repro.minidb import btree as module
    tree = make()
    for k in (1, 2, 3):
        tree.insert((k,), (k, 0))
    calls = []
    real = module.encode_key
    monkeypatch.setattr(module, "encode_key",
                        lambda values: calls.append(values) or real(values))
    lo, hi = (2,), tuple([2])
    assert lo is not hi
    assert [rid for _, rid in tree.scan_range(lo, True, hi, True)] == [(2, 0)]
    assert calls == [(2,)]
    del calls[:]
    assert [rid for _, rid in tree.scan_range((1,), False, (3,), False)] \
        == [(2, 0)]
    assert calls == [(1,), (3,)]
