"""The filter layer itself.

Enforcement paths (mirroring the paper §2/§3.5):

* **Full access control** — the file is owned by the DLFM administrative
  user and marked read-only; rename/delete/write are refused locally by
  ownership, and reads require an access token issued by the host
  database. No upcall is needed.
* **Partial access control** — ownership is unchanged, so the filter
  makes an **upcall** to the DLFM Upcall daemon asking "is this file
  linked?" before permitting delete/rename/move.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.errors import AccessTokenError, LinkedFileError
from repro.fs.filesystem import FileServer, FileSystem

#: The administrative user that owns files under full database control.
DLFM_ADMIN = "dlfmadm"


@dataclass(frozen=True)
class AccessToken:
    """Host-issued capability to read a file under full access control."""

    path: str
    expires_at: float
    signature: str

    @staticmethod
    def sign(secret: str, path: str, expires_at: float) -> "AccessToken":
        digest = hashlib.sha256(
            f"{secret}:{path}:{expires_at}".encode()).hexdigest()[:16]
        return AccessToken(path, expires_at, digest)

    def valid_for(self, secret: str, path: str, now: float) -> bool:
        if self.path != path or now > self.expires_at:
            return False
        expected = AccessToken.sign(secret, path, self.expires_at)
        return expected.signature == self.signature


class Filter:
    """Per-file-server DLFF instance."""

    def __init__(self, sim, token_secret: str, metrics):
        self.sim = sim
        self.token_secret = token_secret
        self.metrics = metrics  # the owning DLFM's DLFMMetrics
        #: generator callable path → linked-info dict or None (Upcall daemon)
        self.upcall: Optional[Callable[[str], Generator]] = None

    def mount(self, server: FileServer) -> "FilteredFileSystem":
        filtered = FilteredFileSystem(self.sim, server.fs, self)
        server.filtered = filtered
        return filtered

    def set_upcall(self, upcall: Callable[[str], Generator]) -> None:
        self.upcall = upcall

    # -- enforcement helpers ------------------------------------------------------

    def check_mutation_allowed(self, fs: FileSystem, path: str, user: str):
        """Generator: raise LinkedFileError if ``path`` is linked."""
        node = fs.stat(path)
        if node.owner == DLFM_ADMIN and user != DLFM_ADMIN:
            # Full access control: the database owns the file outright.
            self.metrics.filter_rejections += 1
            raise LinkedFileError(
                f"{path} is under full database control")
        if self.upcall is not None and user != DLFM_ADMIN:
            self.metrics.filter_upcalls += 1
            info = yield from self.upcall(path)
            if info is not None:
                self.metrics.filter_rejections += 1
                raise LinkedFileError(
                    f"{path} is linked to database {info.get('dbid')}")

    def check_read_token(self, fs: FileSystem, path: str, user: str,
                         token: Optional[AccessToken]) -> bool:
        """True when the read must be performed with DB authority."""
        node = fs.stat(path)
        if node.owner != DLFM_ADMIN or user == DLFM_ADMIN:
            return False
        if token is None:
            raise AccessTokenError(
                f"{path} is under full database control; a read token "
                "from the host database is required")
        if not token.valid_for(self.token_secret, path, self.sim.now):
            raise AccessTokenError(f"invalid or expired token for {path}")
        return True


class FilteredFileSystem:
    """What ordinary applications see on a DataLinks-enabled file server."""

    def __init__(self, sim, fs: FileSystem, filt: Filter):
        self.sim = sim
        self.fs = fs
        self.filter = filt

    # -- reads ---------------------------------------------------------------------

    def read(self, path: str, user: str,
             token: Optional[AccessToken] = None) -> str:
        if self.filter.check_read_token(self.fs, path, user, token):
            return self.fs.read(path, DLFM_ADMIN)  # DB authority
        return self.fs.read(path, user)

    def stat(self, path: str):
        return self.fs.stat(path)

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    # -- writes (generators: may upcall) ----------------------------------------------

    def create(self, path: str, user: str, content: str = ""):
        return self.fs.create(path, user, content)

    def write(self, path: str, user: str, content: str):
        """Generator: in-place write; refused for DB-controlled files."""
        node = self.fs.stat(path)
        if node.owner == DLFM_ADMIN and user != DLFM_ADMIN:
            self.filter.metrics.filter_rejections += 1
            raise LinkedFileError(f"{path} is under full database control")
        self.fs.write(path, user, content)
        return
        yield  # pragma: no cover — uniform generator interface

    def delete(self, path: str, user: str):
        """Generator: delete; refused for linked files."""
        yield from self.filter.check_mutation_allowed(self.fs, path, user)
        self.fs.delete(path, user)

    def rename(self, old: str, new: str, user: str):
        """Generator: rename/move; refused for linked files."""
        yield from self.filter.check_mutation_allowed(self.fs, old, user)
        self.fs.rename(old, new, user)
