"""Bound-plan cache: LRU bound + DDL-driven eviction.

The cache is keyed by SQL text. It must stay bounded
(``PLAN_CACHE_SIZE``), keep hot statements resident (LRU), and
evict exactly the plans a DDL statement could invalidate or improve —
most importantly, a scan plan cached before CREATE INDEX must re-bind
and pick up the new index on its next execution.
"""

from repro.minidb import Database, DBConfig
from repro.minidb.db import PLAN_CACHE_SIZE


def make_db(sim, **cfg):
    db = Database(sim, "plans", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE TABLE u (k INT, v TEXT)")
        for table in ("t", "u"):
            for i in range(50):
                yield from session.execute(
                    f"INSERT INTO {table} (k, v) VALUES (?, ?)",
                    (i, f"v{i}"))
        yield from session.commit()

    sim.run_process(setup())
    return db


def distinct_selects(count):
    return [f"SELECT * FROM t WHERE k = {i}" for i in range(count)]


def test_lru_cap_evicts_oldest(sim):
    db = make_db(sim)
    db._plan_cache.clear()               # drop the setup INSERT plans
    sqls = distinct_selects(PLAN_CACHE_SIZE + 1)
    for sql in sqls:
        db.get_plan(sql)
    assert len(db._plan_cache) == PLAN_CACHE_SIZE
    assert db.metrics.plan_evictions == 1
    assert sqls[0] not in db._plan_cache
    assert sqls[1] in db._plan_cache
    assert sqls[-1] in db._plan_cache


def test_lru_hit_refreshes_recency(sim):
    db = make_db(sim)
    db._plan_cache.clear()               # drop the setup INSERT plans
    a, b, *rest, c = distinct_selects(PLAN_CACHE_SIZE + 1)
    for sql in (a, b, *rest):            # the cache is full
        db.get_plan(sql)
    binds = db.metrics.plan_binds
    db.get_plan(a)                       # hit: no re-bind, A becomes MRU
    assert db.metrics.plan_binds == binds
    db.get_plan(c)                       # evicts B, not A
    assert a in db._plan_cache
    assert b not in db._plan_cache
    assert c in db._plan_cache


def test_ddl_evicts_only_plans_touching_the_table(sim):
    db = make_db(sim)
    t_sql = "SELECT * FROM t WHERE k = 5"
    u_sql = "SELECT * FROM u WHERE k = 5"
    db.get_plan(t_sql)
    db.get_plan(u_sql)
    db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    def ddl():
        session = db.session()
        yield from session.execute("CREATE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(ddl())
    assert t_sql not in db._plan_cache    # could now use the index
    assert u_sql in db._plan_cache        # untouched table keeps its plan
    assert db.metrics.plan_evictions >= 1


def test_reexecute_after_create_index_picks_new_index(sim):
    """The regression this cache eviction exists for: a statement bound
    to a table scan before CREATE INDEX must come back as an index scan
    on its next execution, not keep its stale plan."""
    db = make_db(sim)
    sql = "SELECT * FROM t WHERE k = ?"
    db.set_table_stats("t", card=1_000_000, npages=40_000,
                       colcard={"k": 1_000_000})
    before = db.explain(sql)
    assert before["access"] == "table_scan"

    def ddl():
        session = db.session()
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(ddl())
    after = db.explain(sql)
    assert after["access"] == "index_scan"
    assert after["index"] == "t_k"

    def query():
        session = db.session()
        result = yield from session.execute(sql, (7,))
        yield from session.commit()
        return result.rows

    assert sim.run_process(query()) == [(7, "v7")]


def test_drop_index_rebinds_back_to_scan(sim):
    db = make_db(sim)
    sql = "SELECT * FROM t WHERE k = ?"
    db.set_table_stats("t", card=1_000_000, npages=40_000,
                       colcard={"k": 1_000_000})

    def ddl(text):
        def go():
            session = db.session()
            yield from session.execute(text)
            yield from session.commit()
        sim.run_process(go())

    ddl("CREATE UNIQUE INDEX t_k ON t (k)")
    assert db.explain(sql)["access"] == "index_scan"
    ddl("DROP INDEX t_k")
    assert db.explain(sql)["access"] == "table_scan"


def test_crash_clears_the_cache(sim):
    db = make_db(sim)
    sql = "SELECT * FROM t WHERE k = 1"
    db.get_plan(sql)
    db.crash()
    db.restart()
    assert sql not in db._plan_cache
