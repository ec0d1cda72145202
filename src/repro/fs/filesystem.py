"""Simulated POSIX-ish file system.

Carries exactly the metadata DLFM manipulates: owner, group, permission
bits, modification time, inode number. The Chown daemon's "takeover"
(chown to the DLFM admin user + read-only) and "release" (restore the
original owner/permissions) operate on these for real, and DLFF's
enforcement decisions read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import FileExists, FileNotFound, PermissionDenied

#: Permission bits (simplified octal triple).
READ_ONLY = 0o444
READ_WRITE = 0o644


@dataclass
class FileNode:
    path: str
    owner: str
    group: str
    mode: int
    mtime: float
    inode: int
    content: str = ""

    @property
    def size(self) -> int:
        return len(self.content)

    def writable_by(self, user: str) -> bool:
        if user == "root":
            return True
        if user == self.owner:
            return bool(self.mode & 0o200)
        return bool(self.mode & 0o002)

    def readable_by(self, user: str) -> bool:
        if user == "root" or user == self.owner:
            return True
        return bool(self.mode & 0o004)


class FileSystem:
    """One mounted file system on a file server."""

    _inodes = itertools.count(1)

    def __init__(self, sim, name: str = "fs"):
        self.sim = sim
        self.name = name
        self._files: dict[str, FileNode] = {}

    def _inject(self, op: str, path: str) -> None:
        """Chaos hook: raise TransientIOError if a fault rule fires."""
        if self.sim.injector.enabled:
            self.sim.injector.fs_check(f"fs.{op}:{self.name}", path)

    # -- queries -----------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> FileNode:
        self._inject("stat", path)
        node = self._files.get(path)
        if node is None:
            raise FileNotFound(path)
        return node

    # -- mutation ----------------------------------------------------------------

    def create(self, path: str, owner: str, content: str = "",
               group: str = "users", mode: int = READ_WRITE) -> FileNode:
        self._inject("create", path)
        if path in self._files:
            raise FileExists(path)
        node = FileNode(path=path, owner=owner, group=group, mode=mode,
                        mtime=self.sim.now, inode=next(self._inodes),
                        content=content)
        self._files[path] = node
        return node

    def read(self, path: str, user: str) -> str:
        self._inject("read", path)
        node = self.stat(path)
        if not node.readable_by(user):
            raise PermissionDenied(f"{user} cannot read {path}")
        return node.content

    def write(self, path: str, user: str, content: str) -> None:
        self._inject("write", path)
        node = self.stat(path)
        if not node.writable_by(user):
            raise PermissionDenied(f"{user} cannot write {path}")
        node.content = content
        node.mtime = self.sim.now

    def delete(self, path: str, user: str) -> None:
        self._inject("delete", path)
        node = self.stat(path)
        if not node.writable_by(user):
            raise PermissionDenied(f"{user} cannot delete {path}")
        del self._files[path]

    def rename(self, old: str, new: str, user: str) -> None:
        self._inject("rename", old)
        node = self.stat(old)
        if not node.writable_by(user):
            raise PermissionDenied(f"{user} cannot rename {old}")
        if new in self._files:
            raise FileExists(new)
        del self._files[old]
        node.path = new
        self._files[new] = node

    # -- administrative (used by the Chown daemon, runs as root) ---------------------

    def chown(self, path: str, owner: str) -> None:
        self.stat(path).owner = owner

    def chmod(self, path: str, mode: int) -> None:
        self.stat(path).mode = mode

    def restore_file(self, path: str, content: str, owner: str, group: str,
                     mode: int) -> FileNode:
        """Recreate a file from an archived copy (Retrieve daemon)."""
        if path in self._files:
            del self._files[path]
        node = FileNode(path=path, owner=owner, group=group, mode=mode,
                        mtime=self.sim.now, inode=next(self._inodes),
                        content=content)
        self._files[path] = node
        return node


class FileServer:
    """A named file-server node: one file system plus its DLFF mount.

    The DLFF filter is attached later (the DLFM bootstraps it) — user
    applications must go through :attr:`filtered`, while DLFM's daemons
    use :attr:`fs` directly with root privilege.
    """

    def __init__(self, sim, name: str):
        self.sim = sim
        self.name = name
        self.fs = FileSystem(sim, name=name)
        self.filtered = None  # set by dlff.Filter.mount()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<FileServer {self.name}>"
