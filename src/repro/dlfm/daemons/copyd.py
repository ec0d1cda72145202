"""Copy daemon: asynchronous archiving of newly linked files (§3.4/§3.5).

Sweeps ``dfm_archive`` for pending entries, copies the file content to
the archive server, deletes the archive entry and flips ``archived`` on
the file entry — committing per entry so the archive table stays tiny
("entry gets deleted as soon as it is archived"). Runs concurrently with
child agents inserting into the same small multi-indexed table, which is
precisely where the paper hit next-key-locking deadlocks.

Each sweep CLAIMS its batch first (one transaction flipping the rows to
``state='inflight'``) and then spawns up to ``DLFMConfig.copy_workers``
worker processes that share one iterator over the claimed entries, each
archiving (transfer + commit) one entry at a time. One sweep runs at a
time, and a sweep ends when its last worker is out; the claim protocol
is what makes parallel archiving crash-safe:

* no two workers ever archive the same entry, because an entry enters
  a batch only on a successful state-qualified UPDATE;
* a claim is the ``inflight`` row itself, so it outlives a worker that
  died or failed with its entry: as no worker runs between sweeps,
  the next sweep treats every ``inflight`` row as stale and re-queues
  it (counted in ``DLFMMetrics.copyd_reclaimed``);
* the DELETE of the archive row is the commit point: it succeeds at
  most once, so ``dfm_file.archived`` flips exactly once and
  ``files_archived`` counts each file once even when a worker crashed
  between claim and delete (the archive store itself is idempotent per
  recovery id).

``sweep()`` returns only when its last worker is out (or the DLFM
stopped), so backup's ensure-archived (:meth:`CopyDaemon.wait`), shard
moves and the chaos quiesce keep their "sweep means done" semantics.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    CrashedError,
    FileNotFound,
    ReproError,
    TransactionAborted,
    TransientIOError,
)
from repro.kernel.sim import Event, Timeout

#: Archive-entry states: freshly committed links start 'pending'; a
#: sweep's claim transaction moves them to 'inflight' until archived.
ST_PENDING = "pending"
ST_INFLIGHT = "inflight"


class CopyDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self._workers: list = []
        #: The running sweep's end (None: no sweep running).
        self._sweep: Optional[Event] = None

    def run(self):
        while True:
            yield Timeout(self.dlfm.config.copy_period)
            # An idle DLFM's log force: phase 2 commits lazily, and the
            # host keeps each decision until a force covers its commit.
            yield from self.dlfm.db.harden()
            yield from self.sweep()

    def stop(self) -> None:
        """The DLFM stops: kill the workers (their inflight rows are
        re-claimed by the next sweep) and end the running sweep. A killed
        process never triggers ``done``: nothing joins them."""
        for proc in self._workers:
            proc.kill()
        self._workers = []
        self._end_sweep(self._sweep)

    def wait(self):
        """Generator: until no sweep is running."""
        while self._sweep is not None:
            yield self._sweep.wait()

    def _end_sweep(self, end: Optional[Event]) -> None:
        if end is not None and self._sweep is end:
            self._sweep = None
            end.trigger(None)

    def sweep(self):
        """Generator: claim + archive every claimable entry; returns count."""
        db = self.dlfm.db
        sim = self.dlfm.sim
        if sim.injector.enabled:
            sim.injector.maybe_crash(
                f"daemon.pass:{self.dlfm.name}:copyd", db.name)
        yield from self.wait()
        # Checked and set with no yield in between: one sweep at a time.
        end = self._sweep = Event(sim, name=f"{self.dlfm.name}-copyd.sweep")
        with sim.tracer.span("daemon.copyd.sweep") as span:
            batch = []
            try:
                batch = yield from self._claim_batch()
            except TransactionAborted:
                self.dlfm.metrics.copyd_conflicts += 1
                span.set(outcome="conflict")
                return 0
            finally:
                if not batch:  # no worker will end this sweep
                    self._end_sweep(end)
            # Each worker reports its entries' outcomes here (a killed
            # worker simply never reports).
            results: list = []
            if batch:
                keys = iter(batch)
                live = [min(self.dlfm.config.copy_workers, len(batch))]
                self._workers = [
                    sim.spawn(self._worker(keys, results, live, end),
                              f"{self.dlfm.name}-copyd-w{i}")
                    for i in range(live[0])]
                yield end.wait()
            done = sum(results)
            span.set(pending=len(batch), archived=done)
            return done

    def _worker(self, keys, results: list, live: list, end: Event):
        """One archive worker of a sweep: archives the next claimed entry
        until none is left; an entry that failed stays inflight, and the
        next sweep re-claims (and thereby retries) it. The last worker
        out ends the sweep."""
        dlfm = self.dlfm
        sim = dlfm.sim
        for path, recovery_id in keys:
            if sim.injector.enabled:
                # The hazard window: the entry is claimed, not archived.
                sim.injector.maybe_crash(
                    f"daemon.worker:{dlfm.name}:copyd", dlfm.db.name)
            try:
                results.append((yield from self._archive_one(path,
                                                             recovery_id)))
            except CrashedError:
                raise  # the node died inside this worker
            except ReproError:
                dlfm.metrics.copyd_conflicts += 1
        live[0] -= 1
        if not live[0]:
            self._end_sweep(end)

    def _claim_batch(self):
        """Generator: one claim transaction marking a batch 'inflight'.

        Claims every 'pending' row plus every 'inflight' row — no
        worker runs outside a sweep, so the latter belonged to a crashed
        incarnation or to a worker whose attempt failed, and must be
        re-queued.
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
            changed = yield from claim.execute(
                (ST_INFLIGHT, path, recovery_id, state))
            if changed:
                if state == ST_INFLIGHT:
                    self.dlfm.metrics.copyd_reclaimed += 1
                batch.append((path, recovery_id))
        yield from session.commit()
        self.dlfm.metrics.copyd_claimed += len(batch)
        return batch

    def archive_priority(self, entries):
        """Generator: backup utility asks for these copies *now* (§3.4)."""
        done = 0
        for path, recovery_id in entries:
            done += yield from self._archive_one(path, recovery_id)
        return done

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
