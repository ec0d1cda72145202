"""Upcall daemon: answers DLFF "is this file linked?" queries (§3.5).

Needed for files under *partial* access control, whose ownership is
unchanged — only DLFM's metadata knows they are linked. Uses its own
cursor-stability session committing per query so it never holds locks
against the hot path.
"""

from __future__ import annotations

from repro.dlfm import schema
from repro.errors import TransactionAborted
from repro.kernel.channel import Channel
from repro.kernel.rpc import call, serve_loop


class UpcallDaemon:
    def __init__(self, dlfm):
        self.dlfm = dlfm
        self.chan = Channel(dlfm.sim, capacity=32, name="upcalld")

    def run(self):
        yield from serve_loop(self.chan, self._dispatch)

    # -- client side (called by DLFF) ----------------------------------------------

    def query(self, path: str):
        """Generator: linked-info dict or None."""
        result = yield from call(self.dlfm.sim, self.chan, {"path": path})
        return result

    # -- server side ------------------------------------------------------------------

    def _dispatch(self, payload: dict):
        self.dlfm.metrics.upcall_queries += 1
        session = self.dlfm.db.session("CS")
        try:
            row = yield from session.query_one(
                "SELECT dbid, access_ctl FROM dfm_file WHERE filename = ? "
                "AND check_flag = ?", (payload["path"], schema.LINKED_FLAG))
            yield from session.commit()
        except TransactionAborted:
            # Fail safe: treat contention as "linked" so referential
            # integrity can never be violated by a lucky race.
            return {"dbid": "unknown", "access_ctl": "unknown"}
        if row is None:
            return None
        return {"dbid": row[0], "access_ctl": row[1]}
