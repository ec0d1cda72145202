"""Multi-granularity strict-2PL lock manager.

Implements the DB2 behaviours the paper's lessons revolve around:

* intent modes IS/IX/S/SIX/X on tables, S/X on rows and index keys;
* **next-key locking** resources (``("key", table, index, ekey)``) taken by
  the executor when ``DBConfig.next_key_locking`` is on — experiment E3;
* **lock escalation**: when one transaction's row/key locks on a table
  exceed ``maxlocks_fraction × locklist_size``, or the locklist is full,
  its row locks are traded for a single table lock — experiment E5;
* FIFO queuing with conversion priority, **interval-based deadlock
  detection** every :data:`DEADLOCK_CHECK_INTERVAL` (victim = youngest)
  and per-request **timeouts** — E7.

The detector timer is armed only while requests are blocked, so drained
simulations terminate.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import DeadlockError, LockTimeoutError, TransactionAborted
from repro.kernel.sim import TIMEOUT, Event, Simulator

from repro.minidb.config import DBConfig

#: Period of the wait-for-graph deadlock detector, seconds (DLCHKTIME).
DEADLOCK_CHECK_INTERVAL = 1.0


class LockMode(enum.IntEnum):
    IS = 0
    IX = 1
    S = 2
    SIX = 3
    X = 4


_M = LockMode
#: COMPAT[a][b] — may a be held concurrently with b?
_COMPAT = {
    _M.IS:  {_M.IS: True,  _M.IX: True,  _M.S: True,  _M.SIX: True,
             _M.X: False},
    _M.IX:  {_M.IS: True,  _M.IX: True,  _M.S: False, _M.SIX: False,
             _M.X: False},
    _M.S:   {_M.IS: True,  _M.IX: False, _M.S: True,  _M.SIX: False,
             _M.X: False},
    _M.SIX: {_M.IS: True,  _M.IX: False, _M.S: False, _M.SIX: False,
             _M.X: False},
    _M.X:   {_M.IS: False, _M.IX: False, _M.S: False, _M.SIX: False,
             _M.X: False},
}
#: Least upper bound in the lock lattice (for conversions), keyed by
#: the ordered pair so a lookup allocates nothing.
_SUP = {
    (_M.IS, _M.IS): _M.IS, (_M.IS, _M.IX): _M.IX, (_M.IS, _M.S): _M.S,
    (_M.IS, _M.SIX): _M.SIX, (_M.IS, _M.X): _M.X,
    (_M.IX, _M.IX): _M.IX, (_M.IX, _M.S): _M.SIX, (_M.IX, _M.SIX): _M.SIX,
    (_M.IX, _M.X): _M.X,
    (_M.S, _M.S): _M.S, (_M.S, _M.SIX): _M.SIX, (_M.S, _M.X): _M.X,
    (_M.SIX, _M.SIX): _M.SIX, (_M.SIX, _M.X): _M.X,
    (_M.X, _M.X): _M.X,
}
_SUP.update({(b, a): sup for (a, b), sup in list(_SUP.items())})


def compatible(a: LockMode, b: LockMode) -> bool:
    return _COMPAT[a][b]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    return _SUP[a, b]


#: Lock resources. ``table`` granularity:   ("table", tname)
#:                 ``row``   granularity:   ("row", tname, rid)
#:                 ``key``   granularity:   ("key", tname, index, ekey)
Resource = tuple


class _Request:
    __slots__ = ("txn", "mode", "desired", "event", "is_conversion")

    def __init__(self, txn, mode: LockMode, desired: LockMode,
                 event: Event, is_conversion: bool):
        self.txn = txn
        self.mode = mode
        self.desired = desired
        self.event = event
        self.is_conversion = is_conversion


class _LockHead:
    __slots__ = ("resource", "holders", "queue")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.holders: dict[int, LockMode] = {}  # txn id → mode
        self.queue: deque[_Request] = deque()


@dataclass
class LockMetrics:
    acquires: int = 0   # lock *requests*, avoided ones included
    avoided: int = 0    # requests answered by ``reads_unobserved``
    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    escalations: int = 0
    escalation_failures: int = 0
    peak_locks: int = 0
    detector_runs: int = 0


class LockManager:
    def __init__(self, sim: Simulator, config: DBConfig, name: str = "db"):
        self.sim = sim
        self.config = config
        self.name = name
        self.heads: dict[Resource, _LockHead] = {}
        self.metrics = LockMetrics()
        self._total_locks = 0
        self._waiting: dict[int, tuple] = {}  # txn id → (resource, request, txn)
        self._detector_armed = False

    # ------------------------------------------------------------------ acquire

    def acquire(self, txn, resource: Resource, mode: LockMode,
                timeout: Optional[float] = None):
        """Generator: take ``resource`` in ``mode`` for ``txn`` (blocking).

        Returns True when a *new* lock entry was created for this
        transaction (used by cursor-stability early release). Raises
        DeadlockError / LockTimeoutError (both mark the transaction
        rollback-only), also when the escalation's table lock fails.
        """
        txn.ensure_active()
        self.metrics.acquires += 1

        if self.sim.injector.enabled:
            rule = self.sim.injector.fire(f"lock.acquire:{self.name}",
                                          ("lock_timeout", "lock_deadlock"))
            if rule is not None:
                # Forced victim, following the exact failure paths below.
                if rule.kind == "lock_timeout":
                    self.metrics.timeouts += 1
                    txn.mark_rollback_only("timeout")
                    raise LockTimeoutError(
                        f"txn {txn.id} injected lock timeout on {resource!r}")
                self.metrics.deadlocks += 1
                txn.mark_rollback_only("deadlock")
                raise DeadlockError(
                    f"txn {txn.id} injected deadlock victim on {resource!r}")

        # The uncontended cases are resolved right here, with the same
        # bookkeeping the queueing path does: a lock already held strongly
        # enough is a no-op, and a resource with no lock head has neither
        # holder nor waiter, so granting at once overtakes nobody.
        # Everything else goes through ``_acquire_raw`` as before.
        if resource[0] != "table":
            table = resource[1]
            table_res = ("table", table)
            head = self.heads.get(table_res)
            covering = head.holders.get(txn.id) if head is not None else None
            if covering is not None and self._covers(covering, mode):
                return False  # an escalated table lock already covers this
            # Multi-granularity protocol: row/key locks are always preceded
            # by the matching intent lock on the table, so an escalated
            # table lock held by someone else blocks us here.
            intent = (LockMode.IS if mode in (LockMode.S, LockMode.IS)
                      else LockMode.IX)
            if head is None:
                self._grant(self._new_head(table_res), txn, intent, new=True)
            elif covering is None or _SUP[covering, intent] != covering:
                yield from self._acquire_raw(txn, table_res, intent, timeout)
            # Every row lock a transaction holds is one of the
            # ``_total_locks`` entries, so while one more entry stays
            # within both bounds neither of them can be crossed and there
            # is nothing to check; at a bound the full check decides.
            due = self._total_locks + 1
            size = self.config.locklist_size
            if ((due > size or due > self.config.maxlocks_fraction * size)
                    and self._should_escalate(txn, table)):
                yield from self._escalate(txn, table, mode)
                return False
        head = self.heads.get(resource)
        if head is None:
            self._grant(self._new_head(resource), txn, mode, new=True)
            return True
        held = head.holders.get(txn.id)
        if held is not None and _SUP[held, mode] == held:
            return False  # already strong enough
        newly = yield from self._acquire_raw(txn, resource, mode, timeout)
        return newly

    def _new_head(self, resource: Resource) -> _LockHead:
        head = self.heads[resource] = _LockHead(resource)
        return head

    def reads_unobserved(self, txn, table: str, rids: list) -> bool:
        """May ``txn`` read rows ``rids`` of ``table`` with no row locks?

        True when S-locking each ``("row", table, rid)`` in turn through
        :meth:`acquire` would grant every one at once, escalate nothing
        and fail nothing — so a caller that releases them all again
        before it next yields (a cursor-stability statement) holds locks
        no other process can ever see: the simulator is cooperative, and
        a process only yields inside ``acquire`` when it has to wait.
        The requests are then billed (``acquires``, ``avoided``,
        ``peak_locks``) exactly as ``acquire`` would have and nothing
        enters the lock table. A row ``txn`` itself already holds in S
        or X is unobserved too: ``acquire`` answers it as a no-op. False
        changes nothing: the caller takes the locks one by one.
        """
        if self.sim.injector.enabled:
            return False  # every arrival at lock.acquire:<db> must count
        try:
            txn.ensure_active()
        except TransactionAborted:
            return False  # the first ``acquire`` raises it
        head = self.heads.get(("table", table))
        if head is None or head.holders.get(txn.id) not in (LockMode.IS,
                                                            LockMode.IX):
            return False  # intent not held, or an escalated covering lock
        count = len(rids)
        total = self._total_locks + count
        config = self.config
        if total > config.locklist_size or (
                txn.row_lock_count(table) + count
                > config.maxlocks_fraction * config.locklist_size):
            return False  # some row would escalate or exhaust the locklist
        heads = self.heads
        owned = 0
        for rid in rids:
            head = heads.get(("row", table, rid))
            if head is not None:
                if head.holders.get(txn.id) not in (LockMode.S, LockMode.X):
                    return False  # a holder or a waiter: someone could see us
                owned += 1
        metrics = self.metrics
        metrics.acquires += count
        metrics.avoided += count
        if total - owned > metrics.peak_locks:
            metrics.peak_locks = total - owned
        return True

    def _acquire_raw(self, txn, resource: Resource, mode: LockMode,
                     timeout: Optional[float] = None):
        head = self.heads.get(resource) or self._new_head(resource)
        held = head.holders.get(txn.id)
        if held is not None and _SUP[held, mode] == held:
            return False  # already strong enough
        desired = _SUP[held, mode] if held is not None else mode
        is_conversion = held is not None

        if self._grantable(head, txn, desired, is_conversion):
            self._grant(head, txn, desired, new=held is None)
            return held is None

        # Must wait.
        self.metrics.waits += 1
        event = Event(self.sim, name=f"lock:{resource!r}:{txn.id}")
        request = _Request(txn, mode, desired, event, is_conversion)
        head.queue.append(request)
        self._waiting[txn.id] = (resource, request, txn)
        self._arm_detector()
        wait_limit = self.config.lock_timeout if timeout is None else timeout
        with self.sim.tracer.span("lock.wait", db=self.name,
                                  resource=resource, mode=desired.name,
                                  txn=txn.id) as span:
            try:
                outcome = yield event.wait(wait_limit)
            except GeneratorExit:
                # The waiter was killed: left queued, the request would
                # be granted to its corpse at the next release.
                self._cancel_request(head, request)
                raise
            if outcome is TIMEOUT:
                span.set(outcome="timeout")
                self._cancel_request(head, request)
                self.metrics.timeouts += 1
                txn.mark_rollback_only("timeout")
                raise LockTimeoutError(
                    f"txn {txn.id} timed out after {wait_limit}s on "
                    f"{resource!r} ({desired.name})")
            if outcome == "deadlock":
                span.set(outcome="deadlock")
                self.metrics.deadlocks += 1
                txn.mark_rollback_only("deadlock")
                raise DeadlockError(
                    f"txn {txn.id} chosen as deadlock victim on {resource!r}")
            # ("granted", newly): bookkeeping was done by the granter.
            span.set(outcome="granted")
            return outcome[1]

    def _grantable(self, head: _LockHead, txn, desired: LockMode,
                   is_conversion: bool) -> bool:
        for other_id, other_mode in head.holders.items():
            if other_id != txn.id and not compatible(desired, other_mode):
                return False
        if not is_conversion:
            # FIFO fairness: a fresh request must not overtake waiters.
            for queued in head.queue:
                if queued.txn.id != txn.id:
                    return False
        return True

    def _grant(self, head: _LockHead, txn, desired: LockMode, new: bool) -> None:
        head.holders[txn.id] = desired
        if new:
            txn.note_lock(head.resource, self)
            self._total_locks += 1
            self.metrics.peak_locks = max(self.metrics.peak_locks,
                                          self._total_locks)

    # ------------------------------------------------------------------ release

    def release(self, txn, resource: Resource) -> None:
        """Early release of a single lock (cursor-stability reads)."""
        head = self.heads.get(resource)
        if head is None or txn.id not in head.holders:
            return
        del head.holders[txn.id]
        txn.forget_lock(resource)
        self._total_locks -= 1
        self._wake_waiters(head)

    def release_all(self, txn) -> None:
        """End-of-transaction release (strict 2PL)."""
        resources = txn.drain_locks()
        affected = []
        for resource in resources:
            head = self.heads.get(resource)
            if head is not None and txn.id in head.holders:
                del head.holders[txn.id]
                self._total_locks -= 1
                affected.append(head)
        for head in affected:
            self._wake_waiters(head)

    def _wake_waiters(self, head: _LockHead) -> None:
        if not head.queue:
            # Nobody to wake (the common, uncontended release).
            if not head.holders:
                self.heads.pop(head.resource, None)
            return
        # Pass 1: conversions anywhere in the queue (they jump the line).
        for request in list(head.queue):
            if request.is_conversion and self._compatible_with_others(
                    head, request.txn, request.desired):
                head.queue.remove(request)
                self._finish_grant(head, request)
        # Pass 2: FIFO prefix of compatible fresh requests.
        while head.queue:
            request = head.queue[0]
            if not self._compatible_with_others(head, request.txn,
                                                request.desired):
                break
            head.queue.popleft()
            self._finish_grant(head, request)
        if not head.holders and not head.queue:
            self.heads.pop(head.resource, None)

    def _compatible_with_others(self, head: _LockHead, txn,
                                desired: LockMode) -> bool:
        return all(compatible(desired, mode)
                   for other, mode in head.holders.items() if other != txn.id)

    def _finish_grant(self, head: _LockHead, request: _Request) -> None:
        new = request.txn.id not in head.holders
        self._grant(head, request.txn, request.desired, new=new)
        self._waiting.pop(request.txn.id, None)
        request.event.trigger(("granted", new))

    def _cancel_request(self, head: _LockHead, request: _Request) -> None:
        try:
            head.queue.remove(request)
        except ValueError:
            pass
        self._waiting.pop(request.txn.id, None)
        self._wake_waiters(head)

    # ------------------------------------------------------------------ escalation

    @staticmethod
    def _covers(table_mode: LockMode, row_mode: LockMode) -> bool:
        if table_mode == LockMode.X:
            return True
        if table_mode in (LockMode.S, LockMode.SIX):
            return row_mode in (LockMode.S, LockMode.IS)
        return False

    def _should_escalate(self, txn, table: str) -> bool:
        threshold = self.config.maxlocks_fraction * self.config.locklist_size
        if txn.row_lock_count(table) + 1 > threshold:
            return True
        if self._total_locks + 1 > self.config.locklist_size:
            return True
        return False

    def _escalate(self, txn, table: str, pending_mode: LockMode):
        """Trade row/key locks on ``table`` for one table lock."""
        wants_x = pending_mode in (LockMode.X, LockMode.IX, LockMode.SIX)
        if not wants_x:
            wants_x = any(
                self.heads[res].holders.get(txn.id) == LockMode.X
                for res in txn.row_locks(table) if res in self.heads)
        target = LockMode.X if wants_x else LockMode.S
        try:
            yield from self._acquire_raw(txn, ("table", table), target)
        except TransactionAborted:
            self.metrics.escalation_failures += 1
            raise
        self.metrics.escalations += 1
        for resource in list(txn.row_locks(table)):
            head = self.heads.get(resource)
            if head is not None and txn.id in head.holders:
                del head.holders[txn.id]
                self._total_locks -= 1
                self._wake_waiters(head)
            txn.forget_lock(resource)

    # ------------------------------------------------------------------ deadlocks

    def _arm_detector(self) -> None:
        if self._detector_armed:
            return
        self._detector_armed = True
        self.sim.after(DEADLOCK_CHECK_INTERVAL, self._detector_tick)

    def _detector_tick(self) -> None:
        self._detector_armed = False
        if not self._waiting:
            return
        self.metrics.detector_runs += 1
        while True:
            victim = self._find_deadlock_victim()
            if victim is None:
                break
            resource, request, txn = self._waiting.pop(victim)
            head = self.heads.get(resource)
            if head is not None:
                try:
                    head.queue.remove(request)
                except ValueError:
                    pass
                self._wake_waiters(head)
            request.event.trigger("deadlock")
        if self._waiting:
            self._arm_detector()

    def _find_deadlock_victim(self) -> Optional[int]:
        """DFS for a cycle in the wait-for graph; returns the youngest member."""
        edges: dict[int, set[int]] = {}
        for txn_id, (resource, request, _) in self._waiting.items():
            head = self.heads.get(resource)
            if head is None:
                continue
            blockers = set()
            for holder, mode in head.holders.items():
                if holder != txn_id and not compatible(request.desired, mode):
                    blockers.add(holder)
            if not request.is_conversion:
                # Fresh requests also wait behind earlier incompatible
                # waiters (FIFO); conversions jump the queue, so they wait
                # only on holders.
                for queued in head.queue:
                    if queued is request:
                        break
                    if (queued.txn.id != txn_id
                            and not compatible(request.desired,
                                               queued.desired)):
                        blockers.add(queued.txn.id)
            edges[txn_id] = blockers

        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(edges, WHITE)

        def dfs(node: int, path: list[int]) -> Optional[list[int]]:
            color[node] = GREY
            path.append(node)
            for nxt in edges.get(node, ()):
                if color.get(nxt, BLACK) == GREY:
                    return path[path.index(nxt):]
                if color.get(nxt, BLACK) == WHITE:
                    cycle = dfs(nxt, path)
                    if cycle is not None:
                        return cycle
            path.pop()
            color[node] = BLACK
            return None

        for start in list(edges):
            if color[start] == WHITE:
                cycle = dfs(start, [])
                if cycle is not None:
                    return max(cycle)  # youngest transaction dies
        return None

    # ------------------------------------------------------------------ recovery

    def force_grant(self, txn, resource: Resource, mode: LockMode) -> None:
        """Grant without queuing — restart recovery reacquiring the write
        locks of a prepared (indoubt) transaction, before any new work is
        admitted, so contention is impossible by construction."""
        if resource[0] != "table":
            self.force_grant(txn, ("table", resource[1]), LockMode.IX)
        head = self.heads.get(resource) or self._new_head(resource)
        held = head.holders.get(txn.id)
        desired = supremum(held, mode) if held is not None else mode
        self._grant(head, txn, desired, new=held is None)

    # ------------------------------------------------------------------ inspection

    @property
    def total_locks(self) -> int:
        return self._total_locks

    def others_on(self, txn, resource: Resource) -> bool:
        """Does anybody but ``txn`` hold or wait for ``resource``?"""
        head = self.heads.get(resource)
        return head is not None and (
            bool(head.queue) or any(h != txn.id for h in head.holders))

    def holders_of(self, resource: Resource) -> dict[int, LockMode]:
        head = self.heads.get(resource)
        return dict(head.holders) if head else {}

    def waiting_txns(self) -> list[int]:
        return sorted(self._waiting)

    def clear(self) -> None:
        """Crash: the lock table is volatile."""
        self.heads.clear()
        self._waiting.clear()
        self._total_locks = 0
