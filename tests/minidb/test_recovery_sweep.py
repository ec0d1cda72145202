"""Crash-at-every-WAL-record recovery sweep.

Runs a fixed mixed DDL/DML trace, then for *every* durable log prefix L
rebuilds the identical trace on a fresh engine, truncates the durable
log to L, crashes, restarts, and checks the recovered state against the
snapshot taken at the last transaction end whose record lies inside the
prefix. Each sweep point also checks index↔heap agreement and that an
immediate second crash/restart is a no-op (idempotent recovery).

The expected-state model relies on two engine facts:

* the catalog is non-transactional (DDL is durable the moment it runs),
  so after any crash the catalog is the full trace's catalog — a table
  whose inserts fell past the prefix simply recovers empty;
* with no checkpoint and no buffer-pool eviction the disk holds no heap
  pages, so *every* durable prefix is a legitimate crash state (asserted
  before each crash: no steal and no page cleaner wrote a page).

A fast scripted trace runs in tier 1; a larger randomized sweep is
marked ``slow`` and excluded from the default run.

The fuzzy-checkpoint sweep at the bottom puts a checkpoint after every
record position of both scripted traces — inside open transactions,
between a rollback's records, before and after DDL — and crashes at
every durable prefix from that checkpoint on.
"""

import random

import pytest

from repro.kernel import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb import db as dbmod


#: The two states a restarted engine is read in: cold pages left to the
#: replay gate, or first replayed by the restart's background drain. The
#: "-mvcc" suffix only keeps the ids the sweeps have always carried (the
#: engine has no version chains any more).
RESTARTS = pytest.mark.parametrize(
    "drained", [False, True], ids=["instant-mvcc", "drained-mvcc"])


def restart(db, drained):
    """Restart ``db``; with ``drained`` run its background drain dry."""
    db.restart()
    if drained:
        db.sim.run()
        assert not db.replay_pending


def snapshot(db):
    """Current contents of every table, sorted for comparison."""
    return {name: sorted(db.table_rows(name)) for name in db.catalog.tables}


def expected_at(snaps, prefix_lsn):
    """State of the last transaction end with LSN ≤ prefix_lsn."""
    state = {}
    for lsn, snap in snaps:
        if lsn > prefix_lsn:
            break
        state = snap
    return state


def check_recovered_state(db, expected):
    for table in db.catalog.tables:
        assert sorted(db.table_rows(table)) == expected.get(table, []), \
            f"table {table} diverged"


def check_indexes(db):
    """Every heap row reachable through each index, and nothing extra."""
    for index in db.catalog.indexes.values():
        table = db.catalog.tables[index.table]
        btree = db.btrees[index.name]
        rows = list(db.heaps[index.table].scan())
        assert len(btree) == len(rows), f"index {index.name} size diverged"
        for rid, row in rows:
            key = tuple(row[table.position(c)] for c in index.columns)
            assert rid in btree.search_eq(key), \
                f"index {index.name} lost rid {rid} for key {key}"


def arm_fuzzy_checkpoint(db, after):
    """Make ``db`` checkpoint once, as soon as its log holds ``after``
    records and the engine is between two atomic steps — the only places
    another process's ``db.checkpoint()`` can land, since log append,
    heap change and index maintenance of one row never yield in between.
    Those places are the entry of every non-CLR append and the start of
    an undo run (undo changes the heap *before* it logs the CLR, and
    never yields either). Returns the trigger; call it once more when
    the trace ends to cover ``after == tail``. ``after=None`` arms
    nothing.
    """
    if after is None:
        return lambda: None
    append, undo_to = db.wal.append, db._undo_to
    fired = []

    def fire():
        if not fired and db.wal.tail_lsn >= after:
            fired.append(True)   # before: checkpoint() appends a record
            db.checkpoint()

    def hooked_append(kind, txn, **fields):
        if kind != "CLR":
            fire()
        return append(kind, txn, **fields)

    def hooked_undo_to(txn, upto_lsn):
        fire()
        return undo_to(txn, upto_lsn)

    db.wal.append, db._undo_to = hooked_append, hooked_undo_to
    return fire


def run_scripted_trace(checkpoint_after=None):
    """The fixed mixed DDL/DML trace; returns (db, [(end_lsn, snapshot)])."""
    sim = Simulator(seed=0)
    db = Database(sim, "sweep", DBConfig())
    snaps = []
    fire = arm_fuzzy_checkpoint(db, checkpoint_after)

    def snap():
        snaps.append((db.wal.tail_lsn, snapshot(db)))

    def script():
        s = db.session()
        yield from s.execute("CREATE TABLE a (k INT, v TEXT)")
        yield from s.execute("CREATE UNIQUE INDEX a_k ON a (k)")
        yield from s.commit()
        snap()
        for k, v in [(1, "one"), (2, "two"), (3, "three")]:
            yield from s.execute(
                "INSERT INTO a (k, v) VALUES (?, ?)", (k, v))
        yield from s.commit()
        snap()
        # DDL mid-trace, then DML against old and new tables in one txn.
        yield from s.execute("CREATE TABLE b (k INT, n INT)")
        yield from s.execute("CREATE UNIQUE INDEX b_k ON b (k)")
        yield from s.execute("INSERT INTO b (k, n) VALUES (10, 100)")
        yield from s.execute("UPDATE a SET v = 'TWO' WHERE k = 2")
        yield from s.commit()
        snap()
        # An explicitly rolled-back transaction: CLR + ABORT records. A
        # prefix cutting inside it exercises undo with a partial CLR chain.
        yield from s.execute("INSERT INTO a (k, v) VALUES (4, 'four')")
        yield from s.execute("DELETE FROM b WHERE k = 10")
        yield from s.rollback()
        snap()
        yield from s.execute("DELETE FROM a WHERE k = 1")
        yield from s.execute("INSERT INTO b (k, n) VALUES (11, 110)")
        yield from s.commit()
        snap()
        # A table that lives and dies within the trace: for prefixes
        # between its commit and the drop, the (non-transactional) drop
        # already removed it — redo must skip its records.
        yield from s.execute("CREATE TABLE c (k INT)")
        yield from s.execute("INSERT INTO c (k) VALUES (7)")
        yield from s.commit()
        snap()
        yield from s.execute("DROP TABLE c")
        yield from s.commit()
        snap()
        yield from s.execute("UPDATE b SET n = 111 WHERE k = 11")
        yield from s.execute("INSERT INTO a (k, v) VALUES (5, 'five')")
        yield from s.commit()
        snap()
        # In-flight loser whose records are durable at crash time.
        yield from s.execute("INSERT INTO a (k, v) VALUES (6, 'six')")
        yield from s.execute("UPDATE b SET n = 999 WHERE k = 10")
        yield from s.execute("DELETE FROM a WHERE k = 3")
        fire()
        db.wal.force()

    sim.run_process(script())
    return db, snaps


def run_random_trace(seed, checkpoint_after=None):
    """Seeded random DML trace over two tables; same return shape."""
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    db = Database(sim, "sweep", DBConfig())
    snaps = []
    fire = arm_fuzzy_checkpoint(db, checkpoint_after)

    def script():
        s = db.session()
        yield from s.execute("CREATE TABLE a (k INT, v TEXT)")
        yield from s.execute("CREATE UNIQUE INDEX a_k ON a (k)")
        yield from s.execute("CREATE TABLE b (k INT, n INT)")
        yield from s.commit()
        snaps.append((db.wal.tail_lsn, snapshot(db)))
        live = []
        next_k = 0
        for _ in range(60):
            roll = rng.random()
            if roll < 0.40 or not live:
                next_k += 1
                yield from s.execute(
                    "INSERT INTO a (k, v) VALUES (?, ?)",
                    (next_k, f"v{next_k}"))
                yield from s.execute(
                    "INSERT INTO b (k, n) VALUES (?, ?)",
                    (next_k, next_k * 10))
                live.append(next_k)
            elif roll < 0.65:
                k = rng.choice(live)
                yield from s.execute(
                    "UPDATE a SET v = ? WHERE k = ?", (f"u{k}", k))
            elif roll < 0.80:
                k = live.pop(rng.randrange(len(live)))
                yield from s.execute("DELETE FROM a WHERE k = ?", (k,))
            elif roll < 0.92:
                yield from s.commit()
                snaps.append((db.wal.tail_lsn, snapshot(db)))
            else:
                yield from s.rollback()
                # rollback restores the last committed state: re-derive
                # the live key set from it rather than tracking undo
                live[:] = [row[0] for row in db.table_rows("a")]
                snaps.append((db.wal.tail_lsn, snapshot(db)))
        fire()
        db.wal.force()  # whatever is in flight becomes a durable loser

    sim.run_process(script())
    return db, snaps


def sweep(build, drained, prefixes=None):
    """Crash/restart at each durable prefix; verify against the model."""
    reference, _ = build()
    tail = reference.wal.tail_lsn
    points = range(tail + 1) if prefixes is None else prefixes
    for prefix in points:
        db, snaps = build()
        assert db.wal.tail_lsn == tail, "trace is not deterministic"
        assert db.pool.metrics.page_writes == db.pool.metrics.cleaned == 0, \
            "dirty page reached disk: arbitrary prefixes are no longer valid"
        assert db.wal.last_checkpoint_lsn == 0, \
            "a checkpoint stored index images: earlier prefixes are no " \
            "crash states"
        db.wal.flushed_upto = min(prefix, db.wal.tail_lsn)
        db.crash()
        restart(db, drained)
        expected = expected_at(snaps, prefix)
        check_recovered_state(db, expected)
        check_indexes(db)
        # Recovery checkpointed; an immediate second crash loses nothing.
        db.crash()
        restart(db, drained)
        check_recovered_state(db, expected)
        check_indexes(db)
    return tail


@RESTARTS
def test_scripted_trace_every_prefix(drained):
    tail = sweep(run_scripted_trace, drained)
    assert tail >= 20  # the trace is big enough to mean something


def test_prefix_zero_recovers_to_empty_tables():
    db, _ = run_scripted_trace()
    db.wal.flushed_upto = 0
    db.crash()
    db.restart()
    # DDL survives (non-transactional catalog) but every row is gone.
    assert set(db.catalog.tables) == {"a", "b"}
    assert db.table_rows("a") == []
    assert db.table_rows("b") == []


def test_full_prefix_equals_clean_restart():
    db, snaps = run_scripted_trace()
    db.crash()  # flushed_upto already at tail (loser was forced)
    summary = db.restart()
    assert summary["losers"], "the in-flight tail txn must be undone"
    check_recovered_state(db, snaps[-1][1])
    check_indexes(db)


@pytest.fixture
def no_soft_checkpoints(monkeypatch):
    """The random trace runs past ``SOFT_CHECKPOINT_RECORDS``; the sweeps
    over it place every checkpoint themselves (none, or the fuzzy one)."""
    monkeypatch.setattr(dbmod, "SOFT_CHECKPOINT_RECORDS", 10**9)


@pytest.mark.slow
@RESTARTS
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_trace_every_prefix(seed, drained, no_soft_checkpoints):
    tail = sweep(lambda: run_random_trace(seed), drained)
    assert tail >= 80


# ------------------------------------------------------- checkpointed sweep

def run_checkpointed_trace(checkpoint_after=None):
    """Scripted trace with a mid-trace checkpoint: disk pages, index
    images and per-page chain heads are all live at crash time. The
    checkpoint is the quiescent one in the script, or — with
    ``checkpoint_after`` — a fuzzy one after that many log records.
    Returns (db, snaps, checkpoint_lsn)."""
    sim = Simulator(seed=0)
    # Small pages spread the rows over several per-page chains.
    db = Database(sim, "sweep", DBConfig(rows_per_page=2))
    snaps = []
    fire = arm_fuzzy_checkpoint(db, checkpoint_after)

    def snap():
        snaps.append((db.wal.tail_lsn, snapshot(db)))

    def script():
        s = db.session()
        yield from s.execute("CREATE TABLE a (k INT, v TEXT)")
        yield from s.execute("CREATE UNIQUE INDEX a_k ON a (k)")
        yield from s.commit()
        for k in range(6):
            yield from s.execute(
                "INSERT INTO a (k, v) VALUES (?, ?)", (k, f"v{k}"))
        yield from s.commit()
        snap()
        if checkpoint_after is None:
            db.checkpoint()
        # Post-checkpoint tail: updates to checkpointed pages, fresh
        # pages, a rollback, and a durable in-flight loser.
        yield from s.execute("UPDATE a SET v = 'U2' WHERE k = 2")
        yield from s.execute("DELETE FROM a WHERE k = 0")
        yield from s.commit()
        snap()
        for k in range(6, 10):
            yield from s.execute(
                "INSERT INTO a (k, v) VALUES (?, ?)", (k, f"v{k}"))
        yield from s.commit()
        snap()
        yield from s.execute("INSERT INTO a (k, v) VALUES (90, 'drop')")
        yield from s.rollback()
        snap()
        yield from s.execute("UPDATE a SET v = 'LOSER' WHERE k = 4")
        yield from s.execute("INSERT INTO a (k, v) VALUES (91, 'loser')")
        fire()
        db.wal.force()

    sim.run_process(script())
    return db, snaps, db.wal.last_checkpoint_lsn


@RESTARTS
def test_checkpointed_trace_every_tail_prefix(drained):
    """Per-page-chain sweep: every prefix at or past the checkpoint is a
    legitimate crash state (the checkpoint flushed the pages it covers),
    and recovery from chain heads + index images must match the model."""
    reference, _, ckpt = run_checkpointed_trace()
    tail = reference.wal.tail_lsn
    assert ckpt > 0 and tail > ckpt + 5
    for prefix in range(ckpt, tail + 1):
        db, snaps, _ = run_checkpointed_trace()
        db.wal.flushed_upto = prefix
        db.crash()
        restart(db, drained)
        expected = expected_at(snaps, prefix)
        check_recovered_state(db, expected)
        check_indexes(db)
        # Double restart: recovery's end checkpoint re-snapshots the
        # still-pending chain heads, so an immediate second crash —
        # i.e. a crash DURING the lazy replay — loses nothing.
        db.crash()
        restart(db, drained)
        check_recovered_state(db, expected)
        check_indexes(db)


# ------------------------------------------------------------- lazy replay

def test_replay_gate_replays_pages_on_first_touch():
    """After an instant restart the heap gate replays exactly the pages
    a reader touches, on demand, and uninstalls itself once dry."""
    db, snaps, _ = run_checkpointed_trace()
    db.crash()
    db.restart()
    assert db.replay_pending, "expected pending per-page chains"
    assert db.heaps["a"].replay_hook is not None
    before = dict(db.replay_pending)
    replayed = db.metrics.pages_replayed  # undo already replayed its pages
    # Touch one pending page directly: only that key drains.
    table, page_no = sorted(before)[0]
    db.heaps[table]._page_for(page_no)
    assert (table, page_no) not in db.replay_pending
    assert len(db.replay_pending) == len(before) - 1
    assert db.metrics.pages_replayed == replayed + 1
    # A full scan touches everything; the gate must then come off.
    check_recovered_state(db, expected_at(snaps, db.wal.tail_lsn))
    assert db.replay_pending == {}
    assert all(heap.replay_hook is None for heap in db.heaps.values())


def test_crash_during_lazy_replay_with_new_work_loses_nothing():
    """Commit NEW transactions against a partially-replayed engine, crash
    again mid-replay, and recover: both the old rows (still parked in
    per-page chains) and the new work must survive."""
    db, snaps, _ = run_checkpointed_trace()
    db.crash()
    db.restart()
    pending = len(db.replay_pending)
    assert pending > 2, "need >2 pending pages to stay partial"
    expected = dict(expected_at(snaps, db.wal.tail_lsn))

    def new_work():
        s = db.session()
        yield from s.execute("INSERT INTO a (k, v) VALUES (50, 'new')")
        yield from s.commit()

    # The drain replays one page per step, so the simulation stops when
    # the new work has committed, before the drain empties the map.
    db.sim.run_process(new_work())
    expected["a"] = sorted(expected["a"] + [(50, "new")])
    assert 0 < len(db.replay_pending) < pending, "crash must land mid-replay"
    db.crash()
    db.restart()
    check_recovered_state(db, expected)
    check_indexes(db)
    # And a third restart after full replay is still a no-op.
    check_recovered_state(db, expected)


# --------------------------------------------------- fuzzy-checkpoint sweep

def check_reads(db, expected):
    """The locking read == the state as of the last COMMIT inside the
    prefix, through a real session."""
    def read(table):
        session = db.session("CS")
        result = yield from session.execute(f"SELECT * FROM {table}")
        yield from session.commit()
        return sorted(result.rows)

    for table in db.catalog.tables:
        want = expected.get(table, [])
        assert db.sim.run_process(read(table)) == want, \
            f"locking read of {table} diverged"


def checkpointed(after):
    return run_checkpointed_trace(checkpoint_after=after)


def scripted(after):
    db, snaps = run_scripted_trace(checkpoint_after=after)
    return db, snaps, db.wal.last_checkpoint_lsn


def fuzzy_sweep(build, drained, every=1):
    """Checkpoint after every ``every``-th record position of ``build``'s
    trace, crash at every ``every``-th durable prefix from there on
    (earlier prefixes are not crash states: the checkpoint flushed pages
    past them). Returns (record count, distinct checkpoint LSNs)."""
    records = build(None)[0].wal.tail_lsn
    if build is checkpointed:
        records -= 1   # the script's own quiescent checkpoint
    checkpoints = set()
    for after in range(0, records + 1, every):
        reference, _, ckpt = build(after)
        assert reference.wal.record(ckpt).kind == "CHECKPOINT"
        if ckpt in checkpoints:
            continue   # collapsed onto the previous reachable position
        checkpoints.add(ckpt)
        tail = reference.wal.tail_lsn
        assert tail == records + 1
        for prefix in range(ckpt, tail + 1, every):
            db, snaps, _ = build(after)
            db.wal.flushed_upto = prefix
            expected = expected_at(snaps, prefix)
            for _ in ("restart", "an immediate second one is a no-op"):
                db.crash()
                restart(db, drained)
                check_recovered_state(db, expected)
                check_indexes(db)
                check_reads(db, expected)
    return records, len(checkpoints)


@RESTARTS
@pytest.mark.parametrize("build", [checkpointed, scripted])
def test_fuzzy_checkpoint_at_every_position_every_later_prefix(build,
                                                               drained):
    """ROADMAP 1a. The checkpoint lands after every record position of
    the trace — most of them inside an open transaction."""
    records, checkpoints = fuzzy_sweep(build, drained)
    # Only the positions inside an undo run collapse.
    assert checkpoints >= records - 4


@pytest.mark.slow
@RESTARTS
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzy_checkpoint_over_a_random_trace(seed, drained,
                                             no_soft_checkpoints):
    def build(after):
        db, snaps = run_random_trace(seed, checkpoint_after=after)
        return db, snaps, db.wal.last_checkpoint_lsn

    records, checkpoints = fuzzy_sweep(build, drained, every=5)
    assert records >= 80 and checkpoints >= 12
