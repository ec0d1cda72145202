"""The system-test runner: build a System, spawn clients, collect results."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.configs import Configuration
from repro.errors import ReproError, TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.kernel.sim import Timeout
from repro.workloads.metrics import WorkloadReport

#: Operation mix weights: the paper's 2:1 link-insert:relink.
INSERT_WEIGHT = 2.0
UPDATE_WEIGHT = 1.0


@dataclass
class SystemTestConfig:
    """Parameters of the paper's system test (E1) and its ablations."""

    clients: int = 100
    #: Virtual duration in seconds (the paper ran 24 h = 86_400).
    duration: float = 1_800.0
    #: Mean exponential think time between operations per client. 13.3 s
    #: with 100 clients ≈ 450 ops/min ≈ the paper's 300 ins + 150 upd.
    think_time: float = 13.3
    seed: int = 42
    #: The configuration under test: ``paper()`` as it stands, unless
    #: an ablation passes ``Configuration("paper", {its flips})``.
    configuration: Configuration = field(
        default_factory=lambda: Configuration("paper"))
    #: Optional tracer (repro.obs.Tracer) attached to the simulator.
    tracer: Optional[object] = None


def run_system_test(config: SystemTestConfig) -> WorkloadReport:
    """Run the multi-client link/update workload; returns the report."""
    system = config.configuration.system(config.seed, tracer=config.tracer)
    report = WorkloadReport(clients=config.clients,
                            virtual_seconds=config.duration)

    def setup():
        yield from system.host.create_datalink_table(
            "media", [("id", "INT"), ("owner_name", "TEXT"),
                      ("attr", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(access_control="full", recovery=True)})
        plain = system.host.db.session()
        yield from plain.execute(
            "CREATE UNIQUE INDEX media_id ON media (id)")
        yield from plain.commit()
        # The host side gets the same statistics treatment a production
        # DBA gives it; without this every UPDATE probe is a table scan
        # over the growing table (the very E4 pathology, host edition).
        system.host.db.set_table_stats(
            "media", card=1_000_000,
            colcard={"id": 1_000_000, "owner_name": 1_000})

    system.run(setup())

    row_ids = itertools.count(1)
    file_ids = itertools.count(1)

    def new_file(client_id: int) -> str:
        # Monotonic names: every insert lands at the tail of the filename
        # index, exactly like timestamp-named media ingest. This is what
        # makes next-key locking collide across clients (E3).
        seq = next(file_ids)
        path = f"/data/ingest-{seq:09d}.obj"
        system.create_user_file("fs1", path, owner=f"user{client_id}",
                                content=f"payload-{seq}")
        return build_url("fs1", path)

    def client(client_id: int):
        rng = system.sim.stream(f"client-{client_id}")
        session = system.session()
        my_rows: list[int] = []
        while system.sim.now < config.duration:
            yield Timeout(rng.expovariate(1.0 / config.think_time))
            if system.sim.now >= config.duration:
                break
            total = INSERT_WEIGHT + UPDATE_WEIGHT
            do_insert = rng.random() < INSERT_WEIGHT / total or not my_rows
            started = system.sim.now
            try:
                if do_insert:
                    row_id = next(row_ids)
                    url = new_file(client_id)
                    yield from session.execute(
                        "INSERT INTO media (id, owner_name, attr, doc) "
                        "VALUES (?, ?, ?, ?)",
                        (row_id, f"user{client_id}", "new", url))
                    yield from session.commit()
                    my_rows.append(row_id)
                    report.inserts += 1
                else:
                    row_id = rng.choice(my_rows)
                    url = new_file(client_id)
                    yield from session.execute(
                        "UPDATE media SET doc = ?, attr = 'moved' "
                        "WHERE id = ?", (url, row_id))
                    yield from session.commit()
                    report.updates += 1
                report.record_latency(system.sim.now - started)
            except ReproError as error:
                report.note_abort(error.reason
                                  if isinstance(error, TransactionAborted)
                                  else type(error).__name__)
                try:
                    yield from session.rollback()
                except ReproError:
                    pass

    def root():
        procs = [system.sim.spawn(client(i), f"client-{i}")
                 for i in range(config.clients)]
        for proc in procs:
            yield from proc.join()

    system.run(root())

    dlfm = system.dlfms["fs1"]
    for locks in (dlfm.db.locks, system.host.db.locks):
        report.deadlocks += locks.metrics.deadlocks
        report.lock_timeouts += locks.metrics.timeouts
        report.escalations += locks.metrics.escalations
    report.commit_retries = (dlfm.metrics.commit_retries
                             + dlfm.metrics.abort_retries)
    report.log_fulls = dlfm.db.wal.metrics.log_fulls
    report.virtual_seconds = max(config.duration, 1e-9)
    report.system = system  # expose for bench-specific inspection
    return report
