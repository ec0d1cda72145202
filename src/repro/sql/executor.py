"""Plan execution with the DB2-style locking protocol.

All methods are kernel generators (they may block on locks). The locking
rules implemented here are the ones the paper's lessons depend on:

* readers take table IS + row S; writers take table IX + row X;
* under **RR** read locks are held to commit and, with next-key locking
  on, the key past the end of every index range is S-locked (phantom
  protection); under **CS** read locks on qualifying rows last until the
  end of the statement and non-qualifying rows are released immediately
  — only locks the scan itself took, never one the transaction already
  held, and also when the statement fails. A plain CS ``SELECT`` (no
  lock clause) whose row locks nobody could observe — no
  lock head on any row it will read, no escalation due, no injector
  armed: ``LockManager.reads_unobserved`` — takes none at all; they are
  billed as requests and counted in ``LockMetrics.avoided``;
* **index maintenance** (insert/delete of index entries) X-locks the next
  key whenever ``next_key_locking`` is configured on, regardless of
  isolation — this is the behaviour DLFM disabled (E3);
* a table scan locks *every row it examines*, which is why the optimizer
  picking table scans under concurrency "causes havoc" (E4);
* update/delete scans lock examined rows S then convert qualifying rows
  to X (conversion deadlocks included, as in real life without U locks);
* a lock clause keeps the statement's row locks to commit at every
  level: ``FOR UPDATE`` X-locks, ``FOR SHARE`` S-locks — a fence only
  the row's writers conflict with (DESIGN §13).

Every statement reads or writes one table, so a scan's row tuple is
all its compiled expressions read. Statement-level atomicity: the
session wraps each statement in an implicit savepoint and undoes partial
work on statement errors.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DuplicateKeyError, SQLTypeError
from repro.minidb.btree import INFINITY_KEY, encode_key, encode_value
from repro.minidb.locks import LockMode
from repro.sql.optimizer import (AccessPath, DeletePlan, InsertPlan,
                                 SelectPlan, UpdatePlan)


class ResultSet:
    """Materialized query result."""

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> tuple:
        return self.rows[index]

    def scalar(self):
        """First column of the first row, or None for an empty result."""
        return self.rows[0][0] if self.rows else None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<ResultSet {self.columns} x{len(self.rows)}>"


class Executor:
    def __init__(self, db):
        self.db = db

    # ------------------------------------------------------------------ SELECT

    def run_select(self, txn, plan: SelectPlan, params: tuple):
        rows = yield from self._select_rows(txn, plan, params)
        if plan.except_plan is not None:
            removed = yield from self._select_rows(txn, plan.except_plan,
                                                   params)
            removed_set = set(removed)
            seen: set = set()
            kept = []
            for row in rows:
                if row not in removed_set and row not in seen:
                    seen.add(row)
                    kept.append(row)
            rows = kept
        if plan.limit is not None:
            limit = plan.limit((), params)
            if not isinstance(limit, int) or limit < 0:
                raise SQLTypeError(f"bad LIMIT value {limit!r}")
            rows = rows[:limit]
        return ResultSet(plan.columns, rows)

    def _select_rows(self, txn, plan: SelectPlan, params: tuple):
        for_update = plan.lock == "update"
        read_mode = LockMode.X if for_update else LockMode.S
        table_intent = LockMode.IX if for_update else LockMode.IS
        yield from self.db.locks.acquire(
            txn, ("table", plan.table.name), table_intent)

        produced: list[tuple] = []
        order_keys: list[tuple] = []
        # CS: the row locks this statement's scan newly took (never one
        # the transaction already held), in scan order; all are gone
        # when the statement ends.
        cs_read = txn.isolation == "CS" and plan.lock is None
        cs_locks: Optional[dict] = {} if cs_read else None
        locks = self.db.locks
        row_filter = plan.filter
        items = plan.items
        try:
            scanned = yield from self._scan_access(
                txn, plan.access, params, read_mode, cs_locks,
                write_scan=for_update, avoid_locks=cs_read)
            for rid, row in scanned:
                if row_filter is not None and not row_filter(row, params):
                    # None (unknown) and False both disqualify. CS: a
                    # scanned row that did not qualify is unlocked now.
                    if cs_locks:
                        resource = ("row", plan.table.name, rid)
                        if resource in cs_locks:
                            del cs_locks[resource]
                            locks.release(txn, resource)
                    continue
                produced.append(row if items is None else
                                tuple(item(row, params) for item in items))
                if plan.order_by:
                    key = []
                    for compiled, descending in plan.order_by:
                        encoded = encode_value(compiled(row, params))
                        key.append(_Reversed(encoded) if descending
                                   else encoded)
                    order_keys.append(tuple(key))
        finally:
            # ... and the qualifying ones at statement end, also when the
            # statement fails.
            for resource in cs_locks or ():
                locks.release(txn, resource)

        if plan.count:
            return [(len(produced),) * len(plan.columns)]
        if plan.order_by:
            paired = sorted(zip(order_keys, produced),
                            key=lambda pair: pair[0])
            produced = [row for _, row in paired]
        return produced

    @staticmethod
    def _passes(compiled, row: tuple, params: tuple) -> bool:
        if compiled is None:
            return True
        value = compiled(row, params)
        return bool(value) and value is not None

    # ------------------------------------------------------------------ scans

    def _scan_access(self, txn, access: AccessPath, params: tuple,
                     row_mode: LockMode, cs_locks: Optional[dict],
                     write_scan: bool, avoid_locks: bool = False):
        """Lock-and-fetch all rows the access path touches.

        Returns list of (rid, row). ``row_mode`` is the lock taken on each
        examined row (S for reads; write scans take S then convert
        qualifying rows later); the row locks the scan newly took are
        noted in ``cs_locks`` (when given) for the caller's early
        release. ``avoid_locks`` is for a
        statement that drops every S lock again before it next yields:
        the lock manager is asked once whether anybody could observe
        them; if not, the rows are fetched in the same order and no
        lock is taken (DESIGN §9).
        """
        heap = self.db.heaps[access.table]
        table = access.table
        locks = self.db.locks
        key_protect = False
        if access.kind == "table_scan":
            self.db.metrics.table_scans += 1
            matches = [(None, rid) for rid, _ in heap.scan()]
        else:
            self.db.metrics.index_scans += 1
            probe = access.probe
            btree = self.db.btrees[probe.index.name]
            lo, lo_inc, hi, hi_inc = self._probe_bounds(probe, params)
            # ARIES/KVL: each key read under RR is S-locked for commit
            # duration, so inserters' next-key X locks collide with us.
            key_protect = (self.db.config.next_key_locking
                           and txn.isolation == "RR")
            matches = list(btree.scan_range(lo, lo_inc, hi, hi_inc))

        fetch = heap.fetch
        if avoid_locks and locks.reads_unobserved(
                txn, table, [rid for _, rid in matches]):
            return [(rid, row) for _, rid in matches
                    if (row := fetch(rid)) is not None]

        rows: list = []
        for ekey, rid in matches:
            if key_protect:
                yield from locks.acquire(
                    txn, ("key", table, probe.index.name, ekey), LockMode.S)
            resource = ("row", table, rid)
            newly = yield from locks.acquire(txn, resource, row_mode)
            row = fetch(rid)  # after the lock: may have changed while blocked
            if row is None:
                if newly:
                    locks.release(txn, resource)
                continue
            if newly and cs_locks is not None:
                cs_locks[resource] = None
            rows.append((rid, row))

        # Phantom protection: under RR with next-key locking, lock the key
        # past the end of the scanned range.
        if key_protect:
            next_key = (btree.next_key_after(hi) if hi is not None
                        else INFINITY_KEY)
            nk_mode = LockMode.X if write_scan else LockMode.S
            yield from locks.acquire(
                txn, ("key", table, probe.index.name, next_key), nk_mode)
        return rows

    @staticmethod
    def _probe_bounds(probe, params: tuple):
        """``(lo, lo_inclusive, hi, hi_inclusive)`` of an index probe.

        Bounds are prefix key-value tuples, None when that side is open.
        """
        eq_values = [expr((), params) for expr in probe.eq_exprs]
        lo = hi = tuple(eq_values) if eq_values else None
        lo_inc = hi_inc = True
        if probe.lo is not None:
            lo = (*eq_values, probe.lo[0]((), params))
            lo_inc = probe.lo[1]
        if probe.hi is not None:
            hi = (*eq_values, probe.hi[0]((), params))
            hi_inc = probe.hi[1]
        return lo, lo_inc, hi, hi_inc

    # ------------------------------------------------------------------ INSERT

    def run_insert(self, txn, plan: InsertPlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        row = tuple(expr((), params) if expr is not None else None
                    for expr in plan.values)
        yield from self._insert_row(txn, table, row)
        return 1

    def _insert_row(self, txn, table, row: tuple):
        self._typecheck(table, row)

        heap = self.db.heaps[table.name]
        # Lock the landing rid before the row becomes visible: the lowest
        # free slot nobody else holds or waits for — a slot freed by an
        # uncommitted DELETE is still X-locked by its deleter, and like
        # DB2 we do not queue behind that commit for space (DESIGN §9).
        locks = self.db.locks
        while True:
            rid = next((rid for rid in heap.free_rids() if not
                        locks.others_on(txn, ("row", table.name, rid))),
                       None) or next(heap.free_rids())
            newly = yield from locks.acquire(
                txn, ("row", table.name, rid), LockMode.X)
            if heap.is_free(rid):
                break
            # Someone landed there while we waited; drop the stale lock
            # (if it is not otherwise ours) and pick a new slot.
            if newly:
                locks.release(txn, ("row", table.name, rid))

        # Key-value locks for index maintenance (lesson E3: taken whenever
        # the feature is on, irrespective of isolation level). ARIES/KVL:
        # the inserted key is X-locked for commit duration and so is the
        # next key (we hold the latter to commit too — a simplification
        # that only strengthens the paper's observed behaviour).
        indexes = self.db.catalog.indexes_by_table.get(table.name, [])
        bulk = self.db.in_bulk_load(table.name)
        if self.db.config.next_key_locking and not bulk:
            # Bulk LOAD skips key-value locks: deferred entries are not
            # in the B-tree, so next-key resources are meaningless, and
            # the loader is the table's only writer by contract.
            for index in indexes:
                key = index.key_of(row)
                if key is None:
                    continue  # no entry, so no key to lock
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, encode_key(key)),
                    LockMode.X)
                next_key = self.db.btrees[index.name].next_key_after(key)
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, next_key),
                    LockMode.X)

        # Unique pre-check (authoritative check is the B-tree insert —
        # except under bulk LOAD, where the insert is deferred and this
        # check, extended over the deferred entries, decides).
        for index in indexes:
            if not index.unique:
                continue
            key = index.key_of(row)
            if None not in key and (
                    self.db.btrees[index.name].search_eq(key)
                    or self.db.bulk_pending_duplicate(
                        table.name, index.name, key)):
                raise DuplicateKeyError(
                    f"duplicate key {key!r} for unique index {index.name}")

        self.db.log_write("INSERT", txn, table.name, rid, before=None,
                          after=row)
        heap.insert(row, rid=rid)
        self.db.apply_index_insert(table, row, rid)
        self.db.metrics.rows_inserted += 1
        self.db.note_mutation(table.name)

    # ------------------------------------------------------------------ UPDATE

    def run_update(self, txn, plan: UpdatePlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        # CS: a scanned row that does not qualify is unlocked at once —
        # if this scan took the lock; one held from before stays.
        cs_locks: Optional[dict] = {} if txn.isolation == "CS" else None
        scanned = yield from self._scan_access(
            txn, plan.access, params, LockMode.S, cs_locks,
            write_scan=True)
        count = 0
        heap = self.db.heaps[table.name]
        locks = self.db.locks
        try:
            for rid, row in scanned:
                resource = ("row", table.name, rid)
                if not self._passes(plan.filter, row, params):
                    if cs_locks and resource in cs_locks:
                        del cs_locks[resource]
                        locks.release(txn, resource)
                    continue
                yield from locks.acquire(txn, resource, LockMode.X)
                if cs_locks:
                    cs_locks.pop(resource, None)  # now X: held to commit
                current = heap.fetch(rid)
                if current is None:
                    continue
                new_row = list(current)
                for position, compiled in plan.assignments:
                    new_row[position] = compiled(current, params)
                new_row = tuple(new_row)
                self._typecheck(table, new_row)
                yield from self._index_maintenance_locks(
                    txn, table, current, new_row)
                self.db.log_write("UPDATE", txn, table.name, rid,
                                  before=current, after=new_row)
                heap.update(rid, new_row)
                self.db.apply_index_update(table, current, new_row, rid)
                count += 1
        finally:
            # A statement that fails mid-loop never examined the rest of
            # its scan: those S locks must not outlive it either.
            for resource in cs_locks or ():
                locks.release(txn, resource)
        self.db.metrics.rows_updated += count
        if count:
            self.db.note_mutation(table.name, count)
        return count

    # ------------------------------------------------------------------ DELETE

    def run_delete(self, txn, plan: DeletePlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        # CS early release, as in run_update.
        cs_locks: Optional[dict] = {} if txn.isolation == "CS" else None
        scanned = yield from self._scan_access(
            txn, plan.access, params, LockMode.S, cs_locks,
            write_scan=True)
        count = 0
        heap = self.db.heaps[table.name]
        locks = self.db.locks
        try:
            for rid, row in scanned:
                resource = ("row", table.name, rid)
                if not self._passes(plan.filter, row, params):
                    if cs_locks and resource in cs_locks:
                        del cs_locks[resource]
                        locks.release(txn, resource)
                    continue
                yield from locks.acquire(txn, resource, LockMode.X)
                if cs_locks:
                    cs_locks.pop(resource, None)
                current = heap.fetch(rid)
                if current is None:
                    continue
                yield from self._index_maintenance_locks(
                    txn, table, current, None)
                self.db.log_write("DELETE", txn, table.name, rid,
                                  before=current, after=None)
                heap.delete(rid)
                self.db.apply_index_delete(table, current, rid)
                count += 1
        finally:
            for resource in cs_locks or ():
                locks.release(txn, resource)
        self.db.metrics.rows_deleted += count
        if count:
            self.db.note_mutation(table.name, count)
        return count

    def _index_maintenance_locks(self, txn, table, old_row,
                                 new_row: Optional[tuple]):
        """Next-key X locks for delete/update index maintenance (E3)."""
        if (not self.db.config.next_key_locking
                or self.db.in_bulk_load(table.name)):
            return
        for index in self.db.catalog.indexes_by_table.get(table.name, []):
            btree = self.db.btrees[index.name]
            old_key = index.key_of(old_row)
            touched = [old_key]
            if new_row is not None:
                new_key = index.key_of(new_row)
                if new_key == old_key:
                    continue  # this index is untouched by the update
                touched.append(new_key)
            for key in touched:
                if key is None:
                    continue  # an excluded NULL key has no entry
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, encode_key(key)),
                    LockMode.X)
                next_key = btree.next_key_after(key)
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, next_key),
                    LockMode.X)

    # ------------------------------------------------------------------ helpers

    _PY_TYPES = {"INT": (int,), "FLOAT": (int, float), "TEXT": (str,),
                 "BOOL": (bool, int)}

    def _typecheck(self, table, row: tuple) -> None:
        for column, value in zip(table.columns, row):
            if value is None:
                continue
            expected = self._PY_TYPES[column.type]
            if not isinstance(value, expected):
                raise SQLTypeError(
                    f"column {table.name}.{column.name} is {column.type}, "
                    f"got {type(value).__name__} {value!r}")


class _Reversed:
    """Sort-key wrapper inverting comparison for ORDER BY ... DESC."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
