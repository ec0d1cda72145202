"""Chown daemon: the only DLFM process running with root privilege.

Child agents ask it for file metadata ("stat"), for takeover at commit
(chown to the DLFM admin user + read-only — full access control strips
ownership, partial control only strips the write bit so asynchronous
archiving stays safe), and for release at unlink commit (restore the
original owner/group/mode). Requests carry an authentication secret, as
the paper stresses ("it is important to safeguard unauthorized
requests").
"""

from __future__ import annotations


from repro.dlff.filter import DLFM_ADMIN
from repro.errors import PermissionDenied, ReproError
from repro.fs.filesystem import FileSystem, READ_ONLY
from repro.kernel.channel import Channel
from repro.kernel.rpc import call, serve_loop


class ChownDaemon:
    def __init__(self, sim, fs: FileSystem, secret: str, metrics):
        self.sim = sim
        self.fs = fs
        self.secret = secret
        #: The owning DLFM's ``DLFMMetrics`` (``chown_*`` fields).
        self.metrics = metrics
        self.chan = Channel(sim, capacity=32, name="chownd")

    def run(self):
        yield from serve_loop(self.chan, self._dispatch)

    # -- client side (used by agents/daemons holding the secret) ----------------

    def request(self, op: str, path: str, **kwargs):
        """Generator: authenticated request to the daemon."""
        payload = {"secret": self.secret, "op": op, "path": path, **kwargs}
        result = yield from call(self.sim, self.chan, payload)
        return result

    # -- server side --------------------------------------------------------------

    def _dispatch(self, payload: dict):
        self.metrics.chown_requests += 1
        if payload.get("secret") != self.secret:
            self.metrics.chown_denied += 1
            raise PermissionDenied("chown daemon: bad authentication")
        op = payload["op"]
        path = payload["path"]
        if op == "stat":
            node = self.fs.stat(path)
            return {"owner": node.owner, "group": node.group,
                    "mode": node.mode, "mtime": node.mtime,
                    "inode": node.inode, "size": node.size}
        if op == "takeover":
            full = payload.get("full", True)
            if full:
                self.fs.chown(path, DLFM_ADMIN)
            # Full control is read-only by definition; partial control
            # loses its write bit only when the file must be archived —
            # "the asynchronous backup is only possible because DLFM
            # takes away the write permission" (§3.4).
            if full or payload.get("recovery", True):
                self.fs.chmod(path, READ_ONLY)
            return {"taken": True}
        if op == "release":
            self.fs.chown(path, payload["owner"])
            self.fs.chmod(path, payload["mode"])
            node = self.fs.stat(path)
            node.group = payload["group"]
            return {"released": True}
        if op == "restore_file":
            self.fs.restore_file(path, payload["content"], payload["owner"],
                                 payload["group"], payload["mode"])
            return {"restored": True}
        raise ReproError(f"chown daemon: unknown op {op!r}")
        yield  # pragma: no cover — uniform generator interface
