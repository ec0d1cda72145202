"""Versioned blob store standing in for IBM ADSM.

Copies are keyed by ``(server, path, recovery_id)`` — the paper's point
that a file of the same name can be linked/unlinked repeatedly with
different content is exactly why the recovery id is part of the key.
Transfers cost no simulated time by default: billing them under the
calibrated clock moves e2e ``bulk_load_restart``'s restart to first
commit by +44 % (1.6965 → 2.4405 sim-s, seed 42, ``--seconds 10``).
``TimingModel.archive`` bills a fixed setup plus a per-byte price; the
bench ``daemons`` arm turns it on to measure pipelined transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ArchiveError
from repro.kernel.sim import Simulator
from repro.minidb.config import ARCHIVE, TimingModel


@dataclass(frozen=True)
class ArchivedCopy:
    server: str
    path: str
    recovery_id: str
    content: str
    owner: str
    group: str
    mode: int
    archived_at: float


class ArchiveServer:
    def __init__(self, sim: Simulator, name: str = "adsm",
                 timing: Optional[TimingModel] = None):
        self.sim = sim
        self.name = name
        self.timing = timing or TimingModel()
        self._copies: dict[tuple[str, str, str], ArchivedCopy] = {}
        self.stores = 0
        self.retrieves = 0
        self.deletes = 0

    # -- operations (generators: transfers take time) ---------------------------

    def store(self, server: str, path: str, recovery_id: str, content: str,
              owner: str, group: str, mode: int):
        """Generator: archive one version; idempotent per recovery id."""
        yield from self.timing.charge(ARCHIVE, len(content))
        key = (server, path, recovery_id)
        self._copies[key] = ArchivedCopy(
            server=server, path=path, recovery_id=recovery_id,
            content=content, owner=owner, group=group, mode=mode,
            archived_at=self.sim.now)
        self.stores += 1

    def retrieve(self, server: str, path: str, recovery_id: str):
        """Generator: fetch one archived version."""
        key = (server, path, recovery_id)
        copy = self._copies.get(key)
        if copy is None:
            raise ArchiveError(f"no archived copy {key}")
        yield from self.timing.charge(ARCHIVE, len(copy.content))
        self.retrieves += 1
        return copy

    def delete_version(self, server: str, path: str, recovery_id: str) -> None:
        """Garbage collection of an obsolete backup copy."""
        key = (server, path, recovery_id)
        if key not in self._copies:
            raise ArchiveError(f"no archived copy {key}")
        del self._copies[key]
        self.deletes += 1

    # -- queries -------------------------------------------------------------------

    def has_copy(self, server: str, path: str, recovery_id: str) -> bool:
        return (server, path, recovery_id) in self._copies

    def copy_count(self) -> int:
        return len(self._copies)
