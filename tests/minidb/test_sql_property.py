"""Property-based SQL executor testing against a Python reference model."""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Simulator
from repro.minidb import Database, DBConfig

ROWS = st.lists(
    st.tuples(st.integers(0, 50),                       # a
              st.integers(-10, 10),                     # b
              st.sampled_from(["x", "y", "z", None])),  # c
    min_size=0, max_size=40)

_OPS = {"=": operator.eq, "<": operator.lt, ">": operator.gt,
        "<=": operator.le, ">=": operator.ge, "<>": operator.ne}

predicate = st.one_of(
    st.tuples(st.just("a"), st.sampled_from(list(_OPS)),
              st.integers(0, 50)),
    st.tuples(st.just("b"), st.sampled_from(list(_OPS)),
              st.integers(-10, 10)),
    st.tuples(st.just("c"), st.just("="), st.sampled_from(["x", "y"])),
)


def build_db(rows, indexed: bool):
    sim = Simulator(seed=5)
    db = Database(sim, "ref", DBConfig(next_key_locking=False))

    def setup():
        session = db.session()
        yield from session.execute(
            "CREATE TABLE t (rowid INT, a INT, b INT, c TEXT)")
        if indexed:
            yield from session.execute("CREATE INDEX t_a ON t (a)")
            yield from session.execute("CREATE INDEX t_ab ON t (a, b)")
        for i, (a, b, c) in enumerate(rows):
            yield from session.execute(
                "INSERT INTO t (rowid, a, b, c) VALUES (?, ?, ?, ?)",
                (i, a, b, c))
        yield from session.commit()

    sim.run_process(setup())
    return sim, db


def reference_filter(rows, preds):
    def match_one(row, pred):
        col, op, value = pred
        actual = {"a": row[0], "b": row[1], "c": row[2]}[col]
        if actual is None:
            return None
        return _OPS[op](actual, value)

    out = []
    for i, row in enumerate(rows):
        if all(match_one(row, p) is True for p in preds):
            out.append(i)
    return sorted(out)


def run_query(sim, db, preds):
    where = " AND ".join(f"{c} {op} ?" for c, op, _ in preds)
    params = tuple(v for _, _, v in preds)
    sql = f"SELECT rowid FROM t WHERE {where}" if preds else \
        "SELECT rowid FROM t"

    def go():
        session = db.session()
        result = yield from session.execute(sql, params)
        yield from session.commit()
        return sorted(r[0] for r in result)

    return sim.run_process(go())


@settings(max_examples=50, deadline=None)
@given(ROWS, st.lists(predicate, min_size=1, max_size=3), st.booleans())
def test_select_matches_reference(rows, preds, runstats):
    sim, db = build_db(rows, indexed=True)
    if runstats:
        db.runstats("t")  # may flip plans to index scans
    got = run_query(sim, db, preds)
    expected = reference_filter(rows, preds)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(ROWS, st.lists(predicate, min_size=1, max_size=2))
def test_plan_choice_never_changes_results(rows, preds):
    """Table-scan plans and index-scan plans agree row for row."""
    sim1, db1 = build_db(rows, indexed=False)
    sim2, db2 = build_db(rows, indexed=True)
    db2.set_table_stats("t", card=1_000_000,
                        colcard={"a": 1_000, "b": 1_000})
    got_scan = run_query(sim1, db1, preds)
    got_index = run_query(sim2, db2, preds)
    assert got_scan == got_index


@settings(max_examples=30, deadline=None)
@given(ROWS, st.integers(0, 50), st.integers(0, 50))
def test_between_matches_reference(rows, lo, hi):
    """BETWEEN's two-sided form: one bounded index range probe."""
    sim, db = build_db(rows, indexed=True)
    db.runstats("t")

    def go():
        session = db.session()
        result = yield from session.execute(
            "SELECT rowid FROM t WHERE a >= ? AND a <= ?", (lo, hi))
        yield from session.commit()
        return sorted(r[0] for r in result)

    got = sim.run_process(go())
    expected = sorted(i for i, (a, _, _) in enumerate(rows)
                      if lo <= a <= hi)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(ROWS, st.integers(-10, 10))
def test_update_matches_reference(rows, threshold):
    sim, db = build_db(rows, indexed=True)

    def go():
        session = db.session()
        count = yield from session.execute(
            "UPDATE t SET b = b + 100 WHERE b < ?", (threshold,))
        result = yield from session.execute("SELECT rowid, b FROM t")
        yield from session.commit()
        return count, dict(result.rows)

    count, after = sim.run_process(go())
    expected = {i: (b + 100 if b < threshold else b)
                for i, (_, b, _) in enumerate(rows)}
    assert count == sum(1 for _, b, _ in rows if b < threshold)
    assert after == expected


@settings(max_examples=30, deadline=None)
@given(ROWS, st.sampled_from(["x", "y", "z"]))
def test_delete_matches_reference(rows, victim):
    sim, db = build_db(rows, indexed=True)

    def go():
        session = db.session()
        count = yield from session.execute(
            "DELETE FROM t WHERE c = ?", (victim,))
        result = yield from session.execute("SELECT rowid FROM t")
        yield from session.commit()
        return count, sorted(r[0] for r in result)

    count, remaining = sim.run_process(go())
    expected_remaining = sorted(i for i, (_, _, c) in enumerate(rows)
                                if c != victim)
    assert count == sum(1 for _, _, c in rows if c == victim)
    assert remaining == expected_remaining


@settings(max_examples=25, deadline=None)
@given(ROWS, st.integers(-10, 10))
def test_aggregates_match_reference(rows, threshold):
    sim, db = build_db(rows, indexed=False)

    def go():
        session = db.session()
        every = yield from session.execute("SELECT COUNT(*) FROM t")
        some = yield from session.execute(
            "SELECT COUNT(*) FROM t WHERE b < ?", (threshold,))
        yield from session.commit()
        return every.scalar(), some.scalar()

    assert sim.run_process(go()) == (
        len(rows), sum(1 for _, b, _ in rows if b < threshold))


@settings(max_examples=25, deadline=None)
@given(ROWS)
def test_order_by_matches_reference(rows):
    sim, db = build_db(rows, indexed=False)

    def go():
        session = db.session()
        result = yield from session.execute(
            "SELECT rowid FROM t ORDER BY a DESC, rowid ASC")
        yield from session.commit()
        return [r[0] for r in result]

    got = sim.run_process(go())
    expected = [i for i, _ in sorted(enumerate(rows),
                                     key=lambda p: (-p[1][0], p[0]))]
    assert got == expected
