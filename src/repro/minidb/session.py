"""SQL sessions — the black-box surface DLFM programs against.

``execute`` is a kernel generator (statements can block on locks):

    rows = yield from session.execute(
        "SELECT * FROM dfm_file WHERE filename = ?", ("a.mpg",))

Behavioural contract (mirrors DB2):

* a transaction begins implicitly at the first statement;
* each statement runs under an implicit savepoint — statement errors
  (duplicate key, type errors) undo only that statement and leave the
  transaction usable;
* deadlock / lock-timeout / log-full abort the WHOLE transaction: the
  engine rolls it back automatically and raises ``TransactionAborted``
  (with ``reason``), exactly the behaviour DLFM's phase-2 retry loops and
  the host's savepoint story are built around.
"""

from __future__ import annotations


from repro.errors import DatabaseError, TransactionAborted
from repro.kernel.sim import Timeout
from repro.minidb.config import COMPILE, STATEMENT, bill
from repro.sql import ast
from repro.sql.executor import ResultSet
from repro.sql.parser import parse


class PreparedStatement:
    """A statement handle from :meth:`Session.prepare`: parse once, bind
    once, execute many.

    The handle does NOT pin a plan object — every execution goes through
    the shared bound-plan cache, so all the invalidation machinery works
    unchanged: a stats-version bump or DDL eviction re-binds on the next
    execution (paying ``compile_cpu`` again), and a crash clears the
    cache so restarted executions re-prepare implicitly, exactly like
    DB2 packages. What the handle guarantees is a *stable cache key*
    (parameter markers, never interpolated literals) plus a one-time
    parse, which is what makes the steady state all cache hits.
    """

    def __init__(self, session: "Session", sql: str):
        self.session = session
        self.sql = sql
        self.executions = 0

    @property
    def plan(self):
        """The currently cached plan, or None if evicted/invalidated."""
        cached = self.session.db._plan_cache.get(self.sql)
        return cached[0] if cached is not None else None

    def execute(self, params: tuple = ()):
        """Generator: run the prepared statement with ``params``."""
        self.executions += 1
        result = yield from self.session.execute(self.sql, params)
        return result


class Session:
    def __init__(self, db, isolation: str):
        self.db = db
        self.isolation = isolation
        self.txn = None

    # ------------------------------------------------------------------ txn control

    def _require_txn(self):
        if self.txn is None:
            self.txn = self.db.begin(self.isolation)
        elif not self.db.txns.owns(self.txn):
            # A crash took the transaction: it goes on only if it wrote
            # nothing (then it is just an id).
            try:
                self.db.admit(self.txn, "statement")
            except TransactionAborted:
                self.txn = None
                raise
        return self.txn

    def commit(self, payload=None):
        """Generator: commit the open transaction (no-op when none).

        ``payload`` (if any) rides on the COMMIT log record — see
        :meth:`Database.commit`. A payload with no open transaction
        starts one so the record is still written and forced.
        """
        if self.txn is None:
            if payload is None:
                return
            self._require_txn()
        txn, self.txn = self.txn, None
        yield from self.db.commit(txn, payload=payload)

    def commit_lazy(self):
        """Generator: commit the open transaction without forcing the
        log; returns its durability handle (:meth:`Database.commit_lazy`),
        None when no transaction is open or it wrote nothing."""
        if self.txn is None:
            return None
        txn, self.txn = self.txn, None
        return (yield from self.db.commit_lazy(txn))

    def rollback(self):
        """Generator: roll back the open transaction (no-op when none)."""
        if self.txn is None:
            return
        txn, self.txn = self.txn, None
        yield from self.db.rollback(txn)

    def savepoint(self, name: str) -> None:
        self._require_txn().set_savepoint(name)

    def rollback_to_savepoint(self, name: str) -> None:
        if self.txn is None:
            raise DatabaseError("no transaction for savepoint rollback")
        self.db.rollback_to_savepoint(self.txn, name)

    # ------------------------------------------------------------------ execute

    def execute(self, sql: str, params: tuple = ()):
        """Generator: run one SQL statement.

        Returns a :class:`ResultSet` for SELECT, the affected-row count
        for INSERT/UPDATE/DELETE, and None for DDL.
        """
        self.db.metrics.statements += 1
        stall = self.db.traffic_open_at - self.db.sim.now
        if stall > 0:
            # Restart holds ALL new statements for its foreground I/O:
            # the log-tail scan, undo and index repair — page REDO is
            # deferred (DESIGN.md §11).
            yield Timeout(stall)
        timing = self.db.config.timing
        yield from timing.charge(STATEMENT)

        plan, hit = self._plan_or_ddl(sql)
        if not hit:
            # Parse + optimize happened: charge compilation. A cache hit
            # (the prepared-statement steady state) skips this entirely —
            # that asymmetry is the whole point of preparing.
            yield from timing.charge(COMPILE)
        if plan is None:
            return None  # DDL handled eagerly

        txn = self._require_txn()
        statement_start = txn.last_lsn
        try:
            if plan.kind == "select":
                result = yield from self.db.executor.run_select(
                    txn, plan, params)
            elif plan.kind == "insert":
                result = yield from self.db.executor.run_insert(
                    txn, plan, params)
            elif plan.kind == "update":
                result = yield from self.db.executor.run_update(
                    txn, plan, params)
            elif plan.kind == "delete":
                result = yield from self.db.executor.run_delete(
                    txn, plan, params)
            else:  # pragma: no cover — planner restricts kinds
                raise DatabaseError(f"unknown plan kind {plan.kind}")
        except TransactionAborted:
            # Severe error: DB2 has already decided the transaction dies.
            self.txn = None
            yield from self.db.rollback(txn)
            raise
        except DatabaseError:
            # Statement-level failure: undo this statement only.
            self.db._undo_to(txn, upto_lsn=statement_start)
            raise
        unbilled = self.db.unbilled
        if unbilled.pages or unbilled.entries:
            # Most statements find their pages in the pool and touch no
            # index: nothing to bill, no generator to build.
            yield from bill(unbilled.drain())
        return result

    def _plan_or_ddl(self, sql: str):
        """Resolve ``sql`` to ``(plan, cache_hit)`` — None for DDL."""
        stmt = None
        if sql not in self.db._plan_cache:
            stmt = parse(sql)
            if isinstance(stmt, (ast.CreateTable, ast.CreateIndex,
                                 ast.DropTable, ast.DropIndex)):
                self.db.ddl(stmt)
                return None, False
        return self.db.bind_plan(sql, stmt)

    # ------------------------------------------------------------------ prepare

    def prepare(self, sql: str):
        """Generator: compile ``sql`` once, returning a
        :class:`PreparedStatement` for repeated execution.

        Binding happens now, through the shared plan cache — a miss
        charges ``compile_cpu`` here so the executions themselves run
        at cache-hit cost. DDL has no bound plan and cannot be prepared.
        """
        stmt = parse(sql)
        if isinstance(stmt, (ast.CreateTable, ast.CreateIndex,
                             ast.DropTable, ast.DropIndex)):
            raise DatabaseError(f"cannot prepare DDL: {sql!r}")
        _, hit = self.db.bind_plan(sql, stmt)
        if not hit:
            yield from self.db.config.timing.charge(COMPILE)
        return PreparedStatement(self, sql)

    # ------------------------------------------------------------------ sugar

    def query_one(self, sql: str, params: tuple = ()):
        """Generator: run a SELECT and return the single row or None."""
        result = yield from self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise DatabaseError("query_one needs a SELECT")
        if len(result) > 1:
            raise DatabaseError(f"expected at most one row, got {len(result)}")
        return result.rows[0] if result.rows else None
