"""Delete-Group daemon: asynchronous unlinking for dropped host tables.

When a host transaction that dropped an SQL table commits, the child
agent sends this daemon the transaction id; the daemon finds every group
the transaction deleted and unlinks all their files — **in batches of N
with a local commit per batch** so one huge group cannot blow the log or
escalate locks (lesson §4, experiment E8). Because the transaction-table
entry stays in state ``committed`` until the work is done, a DLFM crash
mid-way is resumed by a restart rescan (§3.5).

The daemon is one process: after a restart it first finishes every
transaction the rescan finds, then each notification in turn (one the
rescan already finished finds nothing left to do). Killing the process
freezes the daemon; notifications wait in its channel.
"""

from __future__ import annotations

from repro.dlfm import schema
from repro.errors import RETRIABLE_FAULTS
from repro.kernel.channel import Channel
from repro.kernel.sim import Timeout

#: Capacity of the daemon's commit-notification channel.
QUEUE_CAPACITY = 64


class DeleteGroupDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.chan = Channel(dlfm.sim, capacity=QUEUE_CAPACITY,
                            name="delgrpd")
        self.rescan_needed = True

    def notify(self, dbid: str, txn_id: int):
        """Generator: commit processing hands over a transaction id."""
        yield from self.chan.send((dbid, txn_id))

    def run(self):
        if self.rescan_needed:
            self.rescan_needed = False
            # After restart: resume every committed txn with pending groups.
            session = self.dlfm.db.session()
            rows = yield from session.execute(
                "SELECT dbid, txn_id FROM dfm_txn WHERE state = ?",
                (schema.TXN_COMMITTED,))
            yield from session.commit()
            for dbid, txn_id in rows:
                yield from self.process_txn(dbid, txn_id)
        while True:
            dbid, txn_id = yield from self.chan.recv()
            yield from self.process_txn(dbid, txn_id)

    def process_txn(self, dbid: str, txn_id: int):
        """Generator: unlink all files of all groups this txn deleted.
        After a transient fault anywhere, roll back, back off and start
        over: committed batches stay done."""
        db = self.dlfm.db
        sim = self.dlfm.sim
        if sim.injector.enabled:
            sim.injector.maybe_crash(
                f"daemon.pass:{self.dlfm.name}:delgrpd", db.name)
        backoff = self.dlfm.retry_backoff(f"delgrpd:{dbid}:{txn_id}")
        with sim.tracer.span("daemon.delgrpd.process_txn",
                             dbid=dbid, txn=txn_id) as span:
            session = db.session()
            while True:
                try:
                    groups = yield from session.execute(
                        "SELECT grp_id FROM dfm_group WHERE delete_txn = ? "
                        "AND dbid = ? AND state = ?",
                        (txn_id, dbid, schema.GRP_DELETED))
                    yield from session.commit()
                    for (grp_id,) in groups.rows:
                        yield from self._drain_group(session, dbid, grp_id,
                                                     backoff)
                        self.dlfm.metrics.groups_deleted += 1
                    span.set(groups=len(groups.rows))
                    yield from session.execute(
                        "DELETE FROM dfm_txn WHERE dbid = ? AND txn_id = ?",
                        (dbid, txn_id))
                    yield from session.commit()
                    return
                except RETRIABLE_FAULTS:
                    # Unlike an engine abort, a transport or I/O fault
                    # leaves the local transaction open: drop its locks
                    # before sleeping.
                    yield from session.rollback()
                    self.dlfm.metrics.delgrpd_retries += 1
                    yield Timeout(backoff.next())

    def _drain_group(self, session, dbid: str, grp_id: int, backoff):
        """Unlink every linked file of the group, N per local commit."""
        batch_n = self.dlfm.config.batch_commit_n
        metrics = self.dlfm.metrics
        while True:
            batch = yield from session.execute(
                "SELECT filename, recovery_id, recovery, orig_owner, "
                "orig_group, orig_mode FROM dfm_file WHERE grp_id = ? "
                "AND dbid = ? AND state = ? LIMIT ?",
                (grp_id, dbid, schema.ST_LINKED, batch_n))
            if not batch.rows:
                yield from session.commit()
                break
            for (path, recovery_id, recovery, owner, group,
                 mode) in batch.rows:
                yield from self.dlfm.chown.request(
                    "release", path, owner=owner, group=group, mode=mode)
                if recovery == "yes":
                    # Keep an unlinked marker for point-in-time restore;
                    # its own (unique) recovery id doubles as check flag.
                    yield from session.execute(
                        "UPDATE dfm_file SET state = ?, check_flag = ?, "
                        "unlink_recovery_id = ?, unlink_time = ? "
                        "WHERE filename = ? AND recovery_id = ? AND "
                        "state = ?",
                        (schema.ST_UNLINKED, recovery_id, recovery_id,
                         self.dlfm.sim.now, path, recovery_id,
                         schema.ST_LINKED))
                else:
                    yield from session.execute(
                        "DELETE FROM dfm_file WHERE filename = ? AND "
                        "recovery_id = ? AND state = ?",
                        (path, recovery_id, schema.ST_LINKED))
                metrics.delgrpd_files_unlinked += 1
            yield from session.commit()
            metrics.delgrpd_batch_commits += 1
            backoff.reset()
        # Group fully drained: mark it emptied; GC removes it at expiry.
        yield from session.execute(
            "UPDATE dfm_group SET state = ? WHERE grp_id = ? AND dbid = ?",
            ("emptied", grp_id, dbid))
        yield from session.commit()
