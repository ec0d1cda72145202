"""Version-merge daemon: folds MVCC lineage tails into base records.

The minidb engine gives every updated heap slot an append-only tail of
committed versions (DESIGN.md §13) so SI readers can resolve against a
begin-timestamp snapshot without taking read locks. Left alone the
tails only shrink when a writing transaction happens to touch the row
again; this daemon is the L-Store merge: a periodic pass over the local
database that folds every tail no live snapshot can still see back into
its base record. The watermark comes from the engine itself (the oldest
active snapshot LSN) — the daemon cannot pick a stale one, it simply
asks :meth:`~repro.minidb.db.Database.merge_versions` for a safe pass.

A merge pass is pure in-memory bookkeeping — it takes no locks and
writes no log records, because version chains are logged implicitly by
the transactions that created them (``wal.py``) — so a crash at the
``daemon.worker:<node>:merged`` injection point loses nothing: restart
recovery rebuilds the chains from the WAL and the first post-restart
pass folds whatever is foldable again.
"""

from __future__ import annotations

from repro.kernel.sim import Timeout

#: Seconds between merge passes.
MERGE_PERIOD = 5.0


class VersionMergeDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.passes = 0
        self.versions_merged = 0

    @property
    def live_chains(self) -> int:
        return self.dlfm.db.live_chains()

    def run(self):
        """Generator (daemon): periodic merge passes forever."""
        while True:
            yield Timeout(MERGE_PERIOD)
            self.run_pass()

    def run_pass(self) -> int:
        """One merge pass; returns the number of versions folded."""
        db = self.dlfm.db
        sim = self.dlfm.sim
        self.passes += 1
        if not db.live_chains():
            return 0
        with sim.tracer.span("daemon.merged.pass",
                             node=self.dlfm.name) as span:
            merged = db.merge_versions()
            self.versions_merged += merged
            span.set(merged=merged, live_chains=db.live_chains())
        if merged and sim.injector.enabled:
            # Folds applied, nothing durable to lose: the recovery
            # contract says a crash here must reconstruct every chain a
            # live snapshot could still need from the WAL alone.
            sim.injector.maybe_crash(
                f"daemon.worker:{self.dlfm.name}:merged", db.name)
        return merged
