"""E5 — lock escalation "brings the system to its knees" (§4).

Paper claim: "When a DLFM process holds lots of row locks in a metadata
table then it may cause the lock escalation to table level lock. The lock
escalation for a high traffic table will result in timeouts for other
applications. ... We observed that lock escalation in any of the metadata
tables usually brings the system to its knees. Within our daemons, we are
careful that they commit frequently enough so as to not cause any lock
escalation. Also ... lock list size should be set sufficiently large."

Workload: the normal client mix PLUS one bulk-load application that links
many files in a single transaction. Arms: small locklist/maxlocks (bulk
loader escalates dfm_file to a table lock) vs the tuned large locklist.
"""

from benchmarks.conftest import print_table, run_once
from repro.configs import Configuration
from repro.errors import ReproError, TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.kernel.sim import Timeout


def _run(locklist: int, maxlocks: float, bulk_size: int = 250,
         clients: int = 20, duration: float = 900.0):
    # paper() with the lock list under test (and a 20 s lock timeout so
    # the stall shows inside the 15-minute run).
    system = Configuration("paper", {
        "dlfm.local_db.locklist_size": locklist,
        "dlfm.local_db.maxlocks_fraction": maxlocks,
        "dlfm.local_db.lock_timeout": 20.0}).system(seed=11)
    stats = {"ops": 0, "timeouts": 0, "aborts": 0, "bulk_done": 0,
             "latencies": []}

    def setup():
        yield from system.host.create_datalink_table(
            "media", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})

    system.run(setup())
    counter = {"files": 0, "rows": 0}

    def new_url(owner):
        counter["files"] += 1
        path = f"/bulk/f{counter['files']:07d}"
        system.create_user_file("fs1", path, owner=owner)
        return build_url("fs1", path)

    def client(i):
        rng = system.sim.stream(f"c{i}")
        session = system.session()
        while system.sim.now < duration:
            yield Timeout(rng.expovariate(1.0 / 6.0))
            if system.sim.now >= duration:
                break
            counter["rows"] += 1
            started = system.sim.now
            try:
                yield from session.execute(
                    "INSERT INTO media (id, doc) VALUES (?, ?)",
                    (counter["rows"], new_url(f"u{i}")))
                yield from session.commit()
                stats["ops"] += 1
                stats["latencies"].append(system.sim.now - started)
            except TransactionAborted as error:
                stats["aborts"] += 1
                if error.reason == "timeout":
                    stats["timeouts"] += 1
                try:
                    yield from session.rollback()
                except ReproError:
                    pass

    def bulk_loader():
        """Links ``bulk_size`` files in ONE transaction, repeatedly."""
        session = system.session()
        while system.sim.now < duration:
            yield Timeout(30.0)
            try:
                for _ in range(bulk_size):
                    counter["rows"] += 1
                    yield from session.execute(
                        "INSERT INTO media (id, doc) VALUES (?, ?)",
                        (counter["rows"], new_url("loader")))
                    # ingesting the file's content takes real time, all of
                    # it spent INSIDE the transaction (no batched commits —
                    # exactly what the paper warns against)
                    yield Timeout(0.3)
                yield from session.commit()
                stats["bulk_done"] += 1
            except TransactionAborted:
                try:
                    yield from session.rollback()
                except ReproError:
                    pass

    def root():
        procs = [system.sim.spawn(client(i), f"client-{i}")
                 for i in range(clients)]
        procs.append(system.sim.spawn(bulk_loader(), "bulk"))
        for proc in procs:
            yield from proc.join()

    system.run(root())
    dlfm = system.dlfms["fs1"]
    lat = sorted(stats["latencies"])
    return {
        "escalations": dlfm.db.locks.metrics.escalations
                       + system.host.db.locks.metrics.escalations,
        "timeouts": stats["timeouts"],
        "aborts": stats["aborts"],
        "ops_per_min": round(stats["ops"] / (duration / 60), 1),
        "p95_latency": round(lat[int(len(lat) * 0.95)], 3) if lat else None,
        "bulk_done": stats["bulk_done"],
    }


def test_e5_escalation(benchmark):
    def run():
        small = _run(locklist=600, maxlocks=0.1)
        large = _run(locklist=200_000, maxlocks=0.6)
        return small, large

    small, large = run_once(benchmark, run)
    print_table(
        "E5 — lock escalation ablation (20 clients + 1 bulk loader)",
        ["metric", "small locklist", "large locklist", "paper"],
        [
            ("lock escalations", small["escalations"],
             large["escalations"], ">0 vs 0"),
            ("client lock timeouts", small["timeouts"], large["timeouts"],
             "many vs few"),
            ("client aborts", small["aborts"], large["aborts"], "-"),
            ("client ops/min", small["ops_per_min"], large["ops_per_min"],
             "collapses vs fine"),
            ("client p95 latency (s)", small["p95_latency"],
             large["p95_latency"], "-"),
        ])
    assert small["escalations"] > 0
    assert large["escalations"] == 0
    assert small["timeouts"] > large["timeouts"]
    assert small["ops_per_min"] < large["ops_per_min"]
