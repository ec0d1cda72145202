"""SI index probes equal their oracle (DESIGN.md §13, "Index probes
under SI").

The executor finds rows whose snapshot-visible version left an index
through the heap's per-index off-index sidecar. The oracle kept here is
the sweep the sidecar replaced: B+tree matches plus EVERY rid with a
live version chain, each re-checked against the probe bounds. For any
schedule and any held snapshot the two must return the same rows in the
same order (row order feeds lock order and result order), and the same
set as a snapshot table scan filtered by the predicate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionAborted
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb.btree import encode_key

A_VALUES, B_VALUES = 5, 3
COLUMNS = "a, b, v"

#: (sql, params, predicate over (a, b, v)) — every probe must plan as an
#: index scan; between them they cover both indexes, equality, prefix
#: equality and inclusive/exclusive ranges.
PROBES = (
    [(f"SELECT {COLUMNS} FROM t WHERE a = ?", (a,),
      lambda row, a=a: row[0] == a) for a in range(A_VALUES)]
    + [(f"SELECT {COLUMNS} FROM t WHERE b = ?", (b,),
        lambda row, b=b: row[1] == b) for b in range(B_VALUES)]
    + [(f"SELECT {COLUMNS} FROM t WHERE a >= ? AND a < ?", (1, 4),
        lambda row: 1 <= row[0] < 4),
       (f"SELECT {COLUMNS} FROM t WHERE a > ? AND a <= ?", (0, 3),
        lambda row: 0 < row[0] <= 3),
       (f"SELECT {COLUMNS} FROM t WHERE b = ? AND a > ?", (1, 1),
        lambda row: row[1] == 1 and row[0] > 1)])


def make_db(sim, rows=()):
    db = Database(sim, "probe", DBConfig(rows_per_page=4))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (a INT, b INT, v INT)")
        yield from session.execute("CREATE INDEX t_a ON t (a)")
        yield from session.execute("CREATE INDEX t_ba ON t (b, a)")
        for a, b in rows:
            yield from session.execute(
                "INSERT INTO t (a, b, v) VALUES (?, ?, 0)", (a, b))
        yield from session.commit()
        pin_stats(db)

    sim.run_process(setup())
    return db


def pin_stats(db):
    db.set_table_stats("t", card=1_000_000,
                       colcard={"a": 1_000_000, "b": 1000, "v": 1000})


def sweep_oracle(db, txn, access, params):
    """``Executor._scan_snapshot`` as it was before the sidecar: tree
    matches, then every rid with a live chain, bounds re-checked."""
    heap = db.heaps[access.table]
    ts = txn.snapshot_lsn
    own = frozenset(r for t, r in txn.touched if t == access.table)
    probe = access.probe
    btree = db.btrees[probe.index.name]
    lo_vals = [expr((), params) for expr in probe.eq_exprs]
    hi_vals = list(lo_vals)
    lo_inc = hi_inc = True
    if probe.lo is not None:
        lo_vals.append(probe.lo[0]((), params))
        lo_inc = probe.lo[1]
    if probe.hi is not None:
        hi_vals.append(probe.hi[0]((), params))
        hi_inc = probe.hi[1]
    lo = tuple(lo_vals) if lo_vals else None
    hi = tuple(hi_vals) if hi_vals else None
    elo = encode_key(lo) if lo is not None else None
    ehi = encode_key(hi) if hi is not None else None

    candidates = []
    seen = set()
    for _, rid in btree.scan_range(lo, lo_inc, hi, hi_inc):
        if rid not in seen:
            seen.add(rid)
            candidates.append(rid)
    for rid in heap.version_rids():
        if rid not in seen:
            seen.add(rid)
            candidates.append(rid)

    table = db.catalog.tables[access.table]
    rows = []
    for rid in candidates:
        row = heap.snapshot_fetch(rid, ts, own)
        if row is None:
            continue
        ekey = encode_key(
            tuple(row[table.position(c)] for c in probe.index.columns))
        if elo is not None:
            prefix = ekey[:len(elo)]
            if prefix < elo or (prefix == elo and not lo_inc):
                continue
        if ehi is not None:
            prefix = ekey[:len(ehi)]
            if prefix > ehi or (prefix == ehi and not hi_inc):
                continue
        rows.append((rid, row))
    return rows


def check_probes(db, snapshots, probes=PROBES):
    """Every held snapshot × every probe: executor == sweep oracle (same
    order) and == the filtered snapshot table scan (same set)."""
    for txn in snapshots:
        own = frozenset(r for t, r in txn.touched if t == "t")
        visible = list(db.heaps["t"].snapshot_scan(txn.snapshot_lsn, own))
        for sql, params, predicate in probes:
            access = db.get_plan(sql).access
            assert access.kind == "index_scan", sql
            got = db.executor._scan_snapshot(txn, access, params)
            assert got == sweep_oracle(db, txn, access, params), (sql, params)
            assert sorted(got) == sorted(
                (rid, row) for rid, row in visible if predicate(row)), (
                    sql, params)


value_a = st.integers(0, A_VALUES - 1)
value_b = st.integers(0, B_VALUES - 1)
op = st.one_of(
    st.tuples(st.just("insert"), value_a, value_b),
    st.tuples(st.just("touch"), value_a),              # non-key update
    st.tuples(st.just("rekey_a"), value_a, value_a),   # re-keys both indexes
    st.tuples(st.just("rekey_b"), value_a, value_b),   # re-keys t_ba only
    st.tuples(st.just("delete"), value_a),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("open_reader")),
    st.tuples(st.just("close_reader"), st.integers(0, 3)),
    st.tuples(st.just("merge")),
    # checkpoint + crash + restart; the writer may be prepared first, so
    # restart seeds its before-image guards.
    st.tuples(st.just("crash"), st.booleans(), st.booleans()),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(op, min_size=4, max_size=24), st.sampled_from(["RR", "SI"]))
def test_si_probe_equals_the_sweep_oracle(ops, writer_isolation):
    sim = Simulator(seed=1)
    db = make_db(sim, rows=[(0, 0), (1, 1), (2, 2), (3, 0)])
    statements = {
        "insert": "INSERT INTO t (a, b, v) VALUES (?, ?, 0)",
        "touch": "UPDATE t SET v = v + 1 WHERE a = ?",
        "rekey_a": "UPDATE t SET a = ? WHERE a = ?",
        "rekey_b": "UPDATE t SET b = ? WHERE a = ?",
        "delete": "DELETE FROM t WHERE a = ?",
    }

    def run():
        writer = db.session(writer_isolation)
        readers = []

        def snapshots():
            held = list(readers)
            if writer.txn is not None and writer.txn.snapshot_lsn is not None:
                held.append(writer.txn)     # sees its own writes
            return held

        for step in ops:
            kind = step[0]
            if kind in statements:
                params = step[1:]
                if kind.startswith("rekey"):
                    params = (step[2], step[1])
                try:
                    yield from writer.execute(statements[kind], params)
                except TransactionAborted:
                    pass                     # SI write conflict: rolled back
            elif kind == "commit":
                yield from writer.commit()
            elif kind == "rollback":
                yield from writer.rollback()
            elif kind == "open_reader":
                if len(readers) < 3:
                    readers.append(db.begin("SI"))
            elif kind == "close_reader":
                if readers:
                    yield from db.commit(readers.pop(step[1] % len(readers)))
            elif kind == "merge":
                db.merge_versions()
            elif kind == "crash":
                prepared = None
                if step[1] and writer.txn is not None:
                    prepared = writer.txn.id
                    yield from db.prepare(writer.txn)
                db.checkpoint()
                db.crash()
                db.restart()
                pin_stats(db)
                writer = db.session(writer_isolation)
                readers = [db.begin("SI")]
                if prepared is not None:
                    check_probes(db, snapshots())
                    [indoubt] = db.indoubt_transactions()
                    if step[2]:
                        yield from db.commit(indoubt)
                    else:
                        yield from db.rollback(indoubt)
            check_probes(db, snapshots())

    sim.run_process(run())


def test_probe_during_a_deferred_index_load():
    """Rows a bulk LOAD has written are in no tree until the load ends:
    the probe must reach their chains exactly as the sweep did."""
    sim = Simulator(seed=1)
    db = make_db(sim, rows=[(0, 0), (1, 1), (2, 2)])

    def run():
        before = db.begin("SI")
        db.begin_bulk_load("t")
        loader = db.session()
        for a, b in [(3, 0), (4, 1), (1, 2)]:
            yield from loader.execute(
                "INSERT INTO t (a, b, v) VALUES (?, ?, 0)", (a, b))
            check_probes(db, [before])
        yield from loader.commit()
        during = db.begin("SI")
        check_probes(db, [before, during])
        # A second writer inside the load window: a non-key update of a
        # deferred row, a re-key and a delete of pre-existing rows.
        yield from loader.execute("UPDATE t SET v = 7 WHERE a = 4")
        yield from loader.execute("UPDATE t SET b = 0 WHERE a = 2")
        yield from loader.execute("DELETE FROM t WHERE a = 0")
        check_probes(db, [before, during])
        yield from loader.commit()
        check_probes(db, [before, during, db.begin("SI")])
        yield from db.end_bulk_load("t")
        check_probes(db, [before, during, db.begin("SI")])
        got = db.executor._scan_snapshot(
            during, db.get_plan(PROBES[4][0]).access, (4,))
        assert [row for _, row in got] == [(4, 1, 0)]

    sim.run_process(run())


def test_create_index_while_a_snapshot_is_live():
    """A new index is built from current slots; a held snapshot whose
    visible version carries an older key must still find it."""
    sim = Simulator(seed=1)
    db = make_db(sim, rows=[(0, 0), (1, 1), (2, 2)])
    by_v = [(f"SELECT {COLUMNS} FROM t WHERE v = ?", (v,),
             lambda row, v=v: row[2] == v) for v in (0, 5)]

    def run():
        reader = db.begin("SI")
        writer = db.session()
        yield from writer.execute("UPDATE t SET v = 5 WHERE a = 1")
        yield from writer.commit()
        yield from writer.execute("CREATE INDEX t_v ON t (v)")
        pin_stats(db)
        check_probes(db, [reader, db.begin("SI")], PROBES + by_v)
        got = db.executor._scan_snapshot(
            reader, db.get_plan(by_v[0][0]).access, (0,))
        assert sorted(row for _, row in got) == [
            (0, 0, 0), (1, 1, 0), (2, 2, 0)]
        yield from writer.execute("DROP INDEX t_v")
        assert "t_v" not in db.heaps["t"]._off_index
        pin_stats(db)
        check_probes(db, [reader])

    sim.run_process(run())
