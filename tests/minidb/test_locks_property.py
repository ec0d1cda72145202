"""Property-based lock manager testing.

Random concurrent lock workloads must preserve:

P1  mutual exclusion — at no instant do two transactions hold
    incompatible modes on one resource;
P2  liveness — every process eventually finishes (granted, deadlock
    victim, or timeout: nothing hangs);
P3  accounting — after all transactions end, the lock table is empty.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb.config import DBConfig
from repro.minidb.locks import (LockManager, LockMode, compatible,
                                supremum)
from repro.minidb.txn import TransactionTable

# Each process: list of (resource index, mode, hold time)
step = st.tuples(st.integers(0, 3),
                 st.sampled_from([LockMode.S, LockMode.X]),
                 st.floats(0.0, 2.0))
process_plan = st.lists(step, min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(process_plan, min_size=2, max_size=5))
def test_random_workloads_hold_invariants(plans):
    sim = Simulator(seed=3)
    config = DBConfig(lock_timeout=30.0)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    violations = []
    finished = []

    def audit():
        """P1: check every lock head for incompatible co-holders."""
        for head in locks.heads.values():
            holders = list(head.holders.items())
            for i, (txn_a, mode_a) in enumerate(holders):
                for txn_b, mode_b in holders[i + 1:]:
                    if not compatible(mode_a, mode_b):
                        violations.append(
                            (head.resource, txn_a, mode_a, txn_b, mode_b))

    def proc(plan, index):
        txn = txns.begin("RR", sim.now)
        try:
            for resource_index, mode, hold in plan:
                resource = ("row", "t", (0, resource_index))
                yield from locks.acquire(txn, resource, mode)
                audit()
                if hold:
                    yield Timeout(hold)
                audit()
        except TransactionAborted:
            pass
        finally:
            locks.release_all(txn)
            txns.end(txn, __import__(
                "repro.minidb.txn", fromlist=["TxnState"]).TxnState.ABORTED)
            finished.append(index)

    for i, plan in enumerate(plans):
        sim.spawn(proc(plan, i), f"p{i}")
    sim.run(until=500.0)

    assert violations == []                  # P1
    assert sorted(finished) == list(range(len(plans)))  # P2
    assert locks.total_locks == 0            # P3
    assert locks.heads == {}
    assert locks.waiting_txns() == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=4,
                         unique=True),
                min_size=2, max_size=4))
def test_opposite_order_x_locks_always_resolve(orders):
    """All-X workloads in arbitrary orders: pure deadlock bait. Everyone
    must terminate via grant or victim selection."""
    sim = Simulator(seed=11)
    config = DBConfig(lock_timeout=60.0)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    outcomes = []

    def proc(order):
        txn = txns.begin("RR", sim.now)
        try:
            for resource_index in order:
                yield from locks.acquire(
                    txn, ("row", "t", (0, resource_index)), LockMode.X)
                yield Timeout(0.3)
            outcomes.append("done")
        except TransactionAborted as error:
            outcomes.append(error.reason)
        finally:
            locks.release_all(txn)

    for order in orders:
        sim.spawn(proc(order))
    sim.run(until=1000.0)
    assert len(outcomes) == len(orders)
    assert locks.total_locks == 0
    # at least one transaction always completes (no total livelock)
    assert "done" in outcomes


# ------------------------------------------------------- reference model
#
# The uncontended fast paths in ``LockManager.acquire`` / ``release``
# must change no decision. The model below is the whole protocol as a
# plain table — per resource a dict of holders and a FIFO list of
# waiters (the readers/one-writer table generalised to the six modes),
# with the intent-before-row rule on top — and every random plan must
# leave both with the same grants, waits, holders and counters.

class ModelLocks:
    def __init__(self):
        self.holders = {}    # resource -> {txn: mode}
        self.queues = {}     # resource -> [(txn, desired, is_conversion)]
        self.owned = {}      # txn -> {resource: None}, acquisition order
        self.todo = {}       # waiting txn -> raw requests still to make
        self.woken = []      # txns granted by the current release
        self.acquires = self.waits = self.peak = 0

    def total(self):
        return sum(len(held) for held in self.holders.values())

    def _fits(self, resource, txn, desired):
        return all(compatible(desired, mode) for other, mode
                   in self.holders.get(resource, {}).items() if other != txn)

    def _grant(self, txn, resource, desired):
        self.holders.setdefault(resource, {})[txn] = desired
        self.owned.setdefault(txn, {}).setdefault(resource)
        self.peak = max(self.peak, self.total())

    def acquire(self, txn, resource, mode):
        self.acquires += 1
        steps = [(resource, mode)]
        if resource[0] != "table":
            table = ("table", resource[1])
            covering = self.holders.get(table, {}).get(txn)
            if covering == LockMode.X or (
                    covering in (LockMode.S, LockMode.SIX)
                    and mode == LockMode.S):
                return
            steps.insert(0, (table, LockMode.IS if mode == LockMode.S
                             else LockMode.IX))
        self._advance(txn, steps)

    def _advance(self, txn, steps):
        while steps:
            resource, mode = steps.pop(0)
            held = self.holders.get(resource, {}).get(txn)
            desired = mode if held is None else supremum(held, mode)
            if desired == held:
                continue
            queue = self.queues.setdefault(resource, [])
            if self._fits(resource, txn, desired) and (
                    held is not None or not queue):
                self._grant(txn, resource, desired)
            else:
                self.waits += 1
                queue.append((txn, desired, held is not None))
                self.todo[txn] = steps
                return

    def _wake(self, resource):
        queue = self.queues.get(resource, [])
        for entry in [e for e in queue if e[2]]:      # conversions first
            if self._fits(resource, entry[0], entry[1]):
                queue.remove(entry)
                self._grant(entry[0], resource, entry[1])
                self.woken.append(entry[0])
        while queue and self._fits(resource, queue[0][0], queue[0][1]):
            txn, desired, _ = queue.pop(0)            # then the FIFO prefix
            self._grant(txn, resource, desired)
            self.woken.append(txn)

    def release(self, txn, resources):
        held = [r for r in resources if txn in self.holders.get(r, {})]
        for resource in held:
            del self.holders[resource][txn]
            del self.owned[txn][resource]
        for resource in held:
            self._wake(resource)
        woken, self.woken = self.woken, []
        for other in woken:     # each resumes where its acquire stopped
            self._advance(other, self.todo.pop(other))

    def release_all(self, txn):
        self.release(txn, list(self.owned.get(txn, {})))


RESOURCES = [("row", "t", (0, 0)), ("row", "t", (0, 1)),
             ("key", "t", "t_k", ((1, 0),)), ("table", "t"),
             ("row", "u", (0, 0))]
who = st.integers(0, 3)
which = st.integers(0, len(RESOURCES) - 1)
acquire_step = st.tuples(st.just("acquire"), who, which,
                         st.sampled_from(LockMode))
# Mostly acquires on few resources, so holders pile up and queues form.
plan_step = st.one_of(
    acquire_step, acquire_step, acquire_step,
    st.tuples(st.just("release"), who, which),
    st.tuples(st.just("release_all"), who))


@settings(max_examples=150, deadline=None)
@given(st.lists(plan_step, min_size=12, max_size=40))
def test_fast_paths_change_no_decision(plan):
    sim = Simulator(seed=5)
    # No timer may fire — the model has no timeouts and no detector —
    # and none can: every run below stops at ``sim.now``, so a lock
    # timeout or a detector tick never comes due.
    config = DBConfig(locklist_size=10_000)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    txn = [txns.begin("RR", 0.0) for _ in range(4)]
    model = ModelLocks()

    def acquire(who, resource, mode):
        yield from locks.acquire(txn[who], resource, mode)

    for step in plan:
        who = step[1]
        if txn[who].id in locks.waiting_txns():
            continue                      # a blocked process makes no calls
        if step[0] == "acquire":
            resource, mode = RESOURCES[step[2]], step[3]
            if resource[0] != "table" and mode not in (
                    LockMode.S, LockMode.X):
                continue                  # intent modes are for tables
            sim.spawn(acquire(who, resource, mode))
            model.acquire(who, resource, mode)
        elif step[0] == "release":
            locks.release(txn[who], RESOURCES[step[2]])
            model.release(who, [RESOURCES[step[2]]])
        else:
            locks.release_all(txn[who])
            model.release_all(who)
        sim.run(until=sim.now)            # let granted waiters resume

        ids = {t.id: i for i, t in enumerate(txn)}
        assert ({ids[i] for i in locks.waiting_txns()}
                == {w for queue in model.queues.values() for w, _, _ in queue})
        for resource in RESOURCES + [("table", "u")]:
            assert ({ids[i]: m for i, m in locks.holders_of(resource).items()}
                    == model.holders.get(resource, {})), resource
        assert locks.total_locks == model.total()
        assert locks.metrics.acquires == model.acquires
        assert locks.metrics.waits == model.waits
        assert locks.metrics.peak_locks == model.peak
        assert locks.metrics.escalations == 0
        assert set(locks.heads) == {
            r for r in list(model.holders) + list(model.queues)
            if model.holders.get(r) or model.queues.get(r)}


def test_fresh_reader_still_queues_behind_a_waiting_writer():
    """A lock head exists (holder + waiter), so no fast path applies:
    the new S request must not overtake the queued X."""
    sim = Simulator()
    locks = LockManager(sim, DBConfig(lock_timeout=50.0))
    txns = TransactionTable()
    row = ("row", "t", (0, 0))
    order = []

    def client(name, mode, start, hold):
        txn = txns.begin("RR", sim.now)
        yield Timeout(start)
        yield from locks.acquire(txn, row, mode)
        order.append(name)
        yield Timeout(hold)
        locks.release_all(txn)

    sim.spawn(client("reader-1", LockMode.S, 0.0, 5.0))
    sim.spawn(client("writer", LockMode.X, 1.0, 1.0))
    sim.spawn(client("reader-2", LockMode.S, 2.0, 1.0))
    sim.run()
    assert order == ["reader-1", "writer", "reader-2"]
    assert locks.metrics.waits == 2 and locks.heads == {}


def test_escalation_fires_on_the_same_acquire():
    """Threshold 10 (0.1 × 100): the 11th row lock escalates — also when
    that acquire is one the fast path could otherwise have granted, and
    also when it re-requests a row the transaction already holds."""
    sim = Simulator()
    locks = LockManager(sim, DBConfig(locklist_size=100,
                                      maxlocks_fraction=0.1))
    txns = TransactionTable()

    def main():
        first = txns.begin("RR", 0)
        for i in range(10):
            yield from locks.acquire(first, ("row", "t", (0, i)), LockMode.X)
            assert locks.metrics.escalations == 0
        assert locks.total_locks == 11            # 10 rows + the intent
        newly = yield from locks.acquire(first, ("row", "t", (0, 10)),
                                         LockMode.X)
        assert newly is False and locks.metrics.escalations == 1
        assert locks.holders_of(("table", "t")) == {first.id: LockMode.X}
        assert locks.total_locks == 1 and len(locks.heads) == 1
        locks.release_all(first)

        second = txns.begin("RR", 0)
        for i in range(10):
            yield from locks.acquire(second, ("row", "t", (0, i)), LockMode.S)
        yield from locks.acquire(second, ("row", "t", (0, 3)), LockMode.S)
        assert locks.metrics.escalations == 2
        assert locks.holders_of(("table", "t")) == {second.id: LockMode.S}
        locks.release_all(second)

    sim.run_process(main())
    assert locks.metrics.acquires == 22 and locks.metrics.peak_locks == 11


def test_injected_victim_fires_on_a_would_be_fast_path_acquire():
    """An armed ``lock.acquire:<db>`` rule is consulted before any fast
    path: the third acquire — a fresh, uncontended row — is the victim."""
    from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
    from repro.errors import LockTimeoutError
    injector = FaultInjector(FaultPlan([
        FaultRule("lock.acquire:db", "lock_timeout", skip=2)]))
    sim = Simulator(injector=injector)
    locks = LockManager(sim, DBConfig(), "db")
    txns = TransactionTable()

    def main():
        txn = txns.begin("RR", 0)
        yield from locks.acquire(txn, ("row", "t", (0, 0)), LockMode.S)
        yield from locks.acquire(txn, ("row", "t", (0, 1)), LockMode.S)
        try:
            yield from locks.acquire(txn, ("row", "t", (0, 2)), LockMode.S)
        except LockTimeoutError:
            pass
        else:
            raise AssertionError("the armed rule did not fire")
        assert txn.rollback_only and txn.abort_reason == "timeout"
        assert locks.holders_of(("row", "t", (0, 2))) == {}
        assert locks.metrics.timeouts == 1 and locks.metrics.acquires == 3
        locks.release_all(txn)

    sim.run_process(main())
    assert [f["point"] for f in injector.fired] == ["lock.acquire:db"]
