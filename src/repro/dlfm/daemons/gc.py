"""Garbage Collector daemon (§3.5): two kinds of cleanup.

1. **Backup retention** — keep unlinked-file entries (and their archive
   copies) only as far back as the oldest of the last N host backups
   needs: an unlinked entry whose unlink happened before that backup's
   recovery-id watermark can never be resurrected by a restore to any
   retained backup.
2. **Expired deleted groups** — once a deleted group's lifetime passes
   (and the Delete-Group daemon emptied it), its group entry, remaining
   unlinked file entries and archive copies are removed.
"""

from __future__ import annotations

from repro.dlfm import schema
from repro.errors import ArchiveError, TransactionAborted
from repro.kernel.sim import Timeout

#: Period of the Garbage Collector daemon (seconds).
GC_PERIOD = 600.0
#: Unlinked-file entries (and archive copies) stay for the last N backups.
KEEP_BACKUPS = 2


class GarbageCollector:
    def __init__(self, dlfm):
        self.dlfm = dlfm

    def run(self):
        while True:
            yield Timeout(GC_PERIOD)
            # Housekeeping sweep also hosts the paper's statistics guard:
            # "additional logic is put into DLFM to check for changes in
            # metadata statistics and re-invoke the utility to reset
            # statistics and rebind plans if necessary" (§4).
            self.dlfm.ensure_statistics()
            try:
                yield from self.collect()
            except TransactionAborted:
                continue  # contention; try again next period

    def collect(self):
        """Generator: one full GC pass; returns a summary dict."""
        summary = {"entries": 0, "copies": 0, "groups": 0, "backups": 0}
        sim = self.dlfm.sim
        if sim.injector.enabled:
            sim.injector.maybe_crash(
                f"daemon.pass:{self.dlfm.name}:gcd", self.dlfm.db.name)
        with self.dlfm.sim.tracer.span("daemon.gc.collect") as span:
            yield from self._prune_backups(summary)
            yield from self._prune_expired_groups(summary)
            span.set(**summary)
        self.dlfm.metrics.gc_entries_removed += summary["entries"]
        self.dlfm.metrics.gc_copies_removed += summary["copies"]
        return summary

    # -- backup retention --------------------------------------------------------

    def _prune_backups(self, summary: dict):
        db = self.dlfm.db
        session = db.session()
        backups = yield from session.execute(
            "SELECT backup_id, dbid, recovery_id FROM dfm_backup "
            "ORDER BY backup_id DESC")
        yield from session.commit()
        # Retention is per host database: each dbid keeps its last N.
        by_dbid: dict = {}
        for backup_id, dbid, watermark in backups.rows:
            by_dbid.setdefault(dbid, []).append((backup_id, watermark))
        session = db.session()
        drop_backup = yield from session.prepare(
            "DELETE FROM dfm_backup WHERE backup_id = ? AND dbid = ?")
        drop_entry = yield from session.prepare(
            "DELETE FROM dfm_file WHERE filename = ? AND "
            "recovery_id = ? AND state = ?")
        for dbid, cycles in sorted(by_dbid.items()):
            if len(cycles) <= KEEP_BACKUPS:
                continue
            oldest_kept_watermark = cycles[KEEP_BACKUPS - 1][1]
            for backup_id, _ in cycles[KEEP_BACKUPS:]:
                yield from drop_backup.execute((backup_id, dbid))
                summary["backups"] += 1
                self.dlfm.metrics.gc_backups_pruned += 1
            # Unlinked entries dead to every retained backup of this host.
            victims = yield from session.execute(
                "SELECT filename, recovery_id, unlink_recovery_id "
                "FROM dfm_file WHERE state = ? AND dbid = ?",
                (schema.ST_UNLINKED, dbid))
            for path, recovery_id, unlink_rid in victims.rows:
                if (unlink_rid is not None
                        and unlink_rid < oldest_kept_watermark):
                    yield from drop_entry.execute(
                        (path, recovery_id, schema.ST_UNLINKED))
                    summary["entries"] += 1
                    summary["copies"] += self._drop_copy(path, recovery_id)
        yield from session.commit()

    # -- expired deleted groups ------------------------------------------------------

    def _prune_expired_groups(self, summary: dict):
        now = self.dlfm.sim.now
        db = self.dlfm.db
        session = db.session()
        expired = yield from session.execute(
            "SELECT grp_id, dbid FROM dfm_group WHERE state = ? AND "
            "expires_at < ?", ("emptied", now))
        find_leftovers = yield from session.prepare(
            "SELECT filename, recovery_id FROM dfm_file WHERE "
            "grp_id = ? AND state = ?")
        drop_entry = yield from session.prepare(
            "DELETE FROM dfm_file WHERE filename = ? AND "
            "recovery_id = ? AND state = ?")
        drop_group = yield from session.prepare(
            "DELETE FROM dfm_group WHERE grp_id = ? AND dbid = ?")
        for grp_id, dbid in expired.rows:
            leftovers = yield from find_leftovers.execute(
                (grp_id, schema.ST_UNLINKED))
            for path, recovery_id in leftovers.rows:
                yield from drop_entry.execute(
                    (path, recovery_id, schema.ST_UNLINKED))
                summary["entries"] += 1
                summary["copies"] += self._drop_copy(path, recovery_id)
            yield from drop_group.execute((grp_id, dbid))
            summary["groups"] += 1
            self.dlfm.metrics.gc_groups_removed += 1
        yield from session.commit()

    def _drop_copy(self, path: str, recovery_id: str) -> int:
        try:
            self.dlfm.archive.delete_version(
                self.dlfm.server.name, path, recovery_id)
            return 1
        except ArchiveError:
            return 0  # never archived (recovery=no or still pending)
