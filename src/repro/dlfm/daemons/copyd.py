"""Copy daemon: asynchronous archiving of newly linked files (§3.4/§3.5).

Sweeps ``dfm_archive`` for pending entries, copies the file content to
the archive server, deletes the archive entry and flips ``archived`` on
the file entry — committing per entry so the archive table stays tiny
("entry gets deleted as soon as it is archived"). Runs concurrently with
child agents inserting into the same small multi-indexed table, which is
precisely where the paper hit next-key-locking deadlocks.

Each sweep CLAIMS its batch first (one transaction flipping the rows to
``state='inflight'``) and then fans the transfer+commit of each entry
across a :class:`~repro.kernel.pool.WorkerPool` of
``DLFMConfig.copy_workers`` processes. The claim protocol is what makes
parallel archiving crash-safe:

* the claim set (``_claims``) is memory-only, so a claim dies with a
  crash while the ``inflight`` row survives — the restarted daemon
  treats any ``inflight`` row without a live claim as stale and
  re-queues it (counted in ``DLFMMetrics.copyd_reclaimed``);
* no two workers ever archive the same entry, because an entry enters
  the pool only on a successful state-qualified UPDATE and stays in
  ``_claims`` until its worker finishes;
* the DELETE of the archive row is the commit point: it succeeds at
  most once, so ``dfm_file.archived`` flips exactly once and
  ``files_archived`` counts each file once even when a worker crashed
  between claim and delete (the archive store itself is idempotent per
  recovery id).

``sweep()`` stays synchronous for its callers — it drains the pool
before returning — so backup's ensure-archived and the chaos quiesce
keep their "sweep means done" semantics.
"""

from __future__ import annotations

from repro.errors import (
    FileNotFound,
    TransactionAborted,
    TransientIOError,
)
from repro.kernel.pool import WorkerPool
from repro.kernel.sim import Timeout

#: Archive-entry states: freshly committed links start 'pending'; a
#: sweep's claim transaction moves them to 'inflight' until archived.
ST_PENDING = "pending"
ST_INFLIGHT = "inflight"


class CopyDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self._claims: set = set()
        self.pool = WorkerPool(
            dlfm.sim, f"{dlfm.name}-copyd", self._archive_entry,
            workers=dlfm.config.copy_workers,
            crash_point=f"daemon.worker:{dlfm.name}:copyd",
            crash_node=dlfm.db.name)

    def start_workers(self):
        """(Re)start the archive workers; claims of the previous
        incarnation are gone, so its inflight rows become re-claimable."""
        self._claims.clear()
        return self.pool.start()

    def run(self):
        while True:
            yield Timeout(self.dlfm.config.copy_period)
            # An idle DLFM's log force: phase 2 commits lazily, and the
            # host keeps each decision until a force covers its commit.
            yield from self.dlfm.db.harden()
            yield from self.sweep()

    def sweep(self):
        """Generator: claim + archive every claimable entry; returns count."""
        db = self.dlfm.db
        sim = self.dlfm.sim
        if sim.injector.enabled:
            sim.injector.maybe_crash(
                f"daemon.pass:{self.dlfm.name}:copyd", db.name)
        with self.dlfm.sim.tracer.span("daemon.copyd.sweep") as span:
            try:
                batch = yield from self._claim_batch()
            except TransactionAborted:
                self.dlfm.metrics.copyd_conflicts += 1
                span.set(outcome="conflict")
                return 0
            # Per-sweep accumulator: each worker reports its entry's
            # outcome here, so concurrent sweeps count only their own
            # batch (and a crashed worker simply never reports).
            results: list = []
            for key in batch:
                yield from self.pool.submit((key, results))
            yield from self.pool.drain()
            done = sum(results)
            span.set(pending=len(batch), archived=done)
            return done

    def _claim_batch(self):
        """Generator: one claim transaction marking a batch 'inflight'.

        Claims every 'pending' row plus every 'inflight' row with no
        live claim — the latter belonged to a crashed incarnation (the
        claim set is memory-only) or to a worker whose attempt failed
        transiently, and must be re-queued. Rows another sweep already
        claimed (in ``_claims``) are skipped, so concurrent sweeps never
        double-archive.
        """
        session = self.dlfm.db.session()
        rows = yield from session.execute(
            "SELECT filename, recovery_id, state FROM dfm_archive")
        # One claim UPDATE compiled per sweep, executed per row (the
        # archive table is exactly the repetitive-statement hot spot the
        # prepared path exists for).
        claim = yield from session.prepare(
            "UPDATE dfm_archive SET state = ? WHERE filename = ? "
            "AND recovery_id = ? AND state = ?")
        batch = []
        for path, recovery_id, state in rows.rows:
            key = (path, recovery_id)
            if key in self._claims:
                continue  # queued or being archived right now
            changed = yield from claim.execute(
                (ST_INFLIGHT, path, recovery_id, state))
            if changed:
                if state == ST_INFLIGHT:
                    self.dlfm.metrics.copyd_reclaimed += 1
                batch.append(key)
        yield from session.commit()
        self._claims.update(batch)
        self.dlfm.metrics.copyd_claimed += len(batch)
        return batch

    def archive_priority(self, entries):
        """Generator: backup utility asks for these copies *now* (§3.4)."""
        done = 0
        for path, recovery_id in entries:
            done += yield from self._archive_one(path, recovery_id)
        return done

    def _archive_entry(self, item):
        """Pool handler: archive one claimed entry, then drop its claim.

        The claim is dropped even on failure so the next sweep can
        re-claim (and thereby retry) the still-present inflight row.
        """
        (path, recovery_id), results = item
        try:
            results.append((yield from self._archive_one(path,
                                                         recovery_id)))
        finally:
            self._claims.discard((path, recovery_id))

    def _archive_one(self, path: str, recovery_id: str):
        dlfm = self.dlfm
        fs = dlfm.server.fs
        try:
            node = fs.stat(path)
            content = node.content
        except FileNotFound:
            content = None  # crashed mid-flight long ago; drop the entry
        except TransientIOError:
            dlfm.metrics.copyd_conflicts += 1
            return 0  # transient I/O fault; the next sweep retries
        if content is not None:
            yield from dlfm.archive.store(
                dlfm.server.name, path, recovery_id, content,
                owner=node.owner, group=node.group, mode=node.mode)
        try:
            session = dlfm.db.session()
            removed = yield from session.execute(
                "DELETE FROM dfm_archive WHERE filename = ? AND "
                "recovery_id = ?", (path, recovery_id))
            if removed:
                yield from session.execute(
                    "UPDATE dfm_file SET archived = 1 WHERE filename = ? "
                    "AND recovery_id = ?", (path, recovery_id))
            yield from session.commit()
        except TransactionAborted:
            # Deadlock/timeout against a child agent (the paper's archive
            # table contention); the sweep will retry next period.
            dlfm.metrics.copyd_conflicts += 1
            return 0
        if removed and content is not None:
            dlfm.metrics.files_archived += 1
            return 1
        return 0
