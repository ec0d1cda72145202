"""One-call wiring of a complete DataLinks deployment (paper Figure 1).

A :class:`System` builds: the simulation kernel, one archive server, N
file servers each with a DLFM (+ DLFF mount + daemons), and a host
database with the datalink engine. This is the entry point used by the
examples, the workload harness and the integration tests.
"""

from __future__ import annotations

from typing import Optional

from repro.archive import ArchiveServer
from repro.dlfm import DLFM, DLFMConfig
from repro.fs import FileServer
from repro.host import HostConfig, HostDB
from repro.host.backup import backup_database, restore_database
from repro.host.reconcile import reconcile
from repro.kernel import Simulator


class System:
    #: The one file server every DLFM shares; None gives each DLFM a
    #: file server of its own name (paper Figure 1).
    fs_name: Optional[str] = None

    def __init__(self, seed: int = 0, servers: tuple[str, ...] = ("fs1",),
                 dlfm_config: Optional[DLFMConfig] = None,
                 host_config: Optional[HostConfig] = None,
                 dbid: str = "hostdb", tracer=None, injector=None):
        self.sim = Simulator(seed=seed, tracer=tracer, injector=injector)
        self.tracer = self.sim.tracer
        self.injector = self.sim.injector
        # Transfers are billed on the DLFMs' clock (its ``archive`` term).
        self.archive = ArchiveServer(
            self.sim, timing=dlfm_config and dlfm_config.local_db.timing)
        self.servers: dict[str, FileServer] = {}
        self.dlfms: dict[str, DLFM] = {}
        for name in servers:
            fs_name = self.fs_name or name
            if fs_name not in self.servers:
                self.servers[fs_name] = FileServer(self.sim, fs_name)
            config = dlfm_config or DLFMConfig.tuned()
            dlfm = DLFM(self.sim, name, self.servers[fs_name],
                        self.archive, config)
            dlfm.start()
            self.dlfms[name] = dlfm
            self.injector.register_crash(dlfm.db.name, dlfm.crash)
        self.host = HostDB(self.sim, dbid, self.dlfms, host_config)
        self.injector.register_crash(self.host.db.name, self.host.crash)

    # ------------------------------------------------------------------ running

    def run(self, gen, name: str = "main", until: Optional[float] = None):
        """Run one root process to completion and return its result."""
        return self.sim.run_process(gen, name, until=until)

    def session(self):
        return self.host.session()

    # ------------------------------------------------------------------ conveniences

    def create_user_file(self, server: str, path: str, owner: str,
                         content: str = ""):
        """Create an ordinary user file on a file server (pre-link)."""
        return self.servers[server].fs.create(path, owner, content)

    def filtered_fs(self, server: Optional[str] = None):
        """The DLFF-filtered file system applications must use."""
        return self.servers[server or self.fs_name].filtered

    def backup(self):
        """Generator: coordinated backup; returns the backup id."""
        return (yield from backup_database(self.host))

    def restore(self, backup_id: int):
        """Generator: coordinated point-in-time restore."""
        return (yield from restore_database(self.host, backup_id))

    def reconcile(self):
        """Generator: run the Reconcile utility."""
        return (yield from reconcile(self.host))
