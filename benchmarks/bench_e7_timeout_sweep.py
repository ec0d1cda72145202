"""E7 — breaking global deadlocks with a timeout (§4).

Paper claim: "we take a simple approach and rely on the timeout mechanism
to resolve potential distributed deadlock. The problem with the timeout
mechanism is that it is difficult to come up with a perfect timeout
period and some transactions may get rolled back unnecessarily. In our
case, we set the timeout to 60 seconds and it has performed reasonably
well."

Workload: clients contend on a shared pool of host rows; a periodic
"hog" transaction holds locks for ~90 s. A too-small timeout aborts
healthy waiters (work lost, unnecessary rollbacks); a too-large timeout
lets everything stall behind the hog. 60 s is the sweet-ish spot.
"""

from benchmarks.conftest import print_table, run_once
from repro.configs import Configuration
from repro.errors import ReproError, TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.kernel.sim import Timeout
from repro.obs.metrics import Histogram

HOG_HOLD = 90.0
DURATION = 1_200.0


def _run(lock_timeout: float):
    # paper() with the lock timeout under test on both databases.
    system = Configuration("paper", {
        "dlfm.local_db.lock_timeout": lock_timeout,
        "host.db.lock_timeout": lock_timeout}).system(seed=23)
    stats = {"ops": 0, "timeout_aborts": 0, "deadlock_aborts": 0,
             "latencies": Histogram(), "hog_cycles": 0}

    def setup():
        yield from system.host.create_datalink_table(
            "media", [("id", "INT"), ("tag", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        session = system.host.db.session()
        yield from session.execute(
            "CREATE UNIQUE INDEX media_id ON media (id)")
        yield from session.commit()
        system.host.db.set_table_stats("media", card=1_000_000,
                                       colcard={"id": 1_000_000})
        # a shared pool of 40 rows everyone updates
        app = system.session()
        for i in range(40):
            system.create_user_file("fs1", f"/p/{i}", owner="u")
            yield from app.execute(
                "INSERT INTO media (id, tag, doc) VALUES (?, ?, ?)",
                (i, "pool", build_url("fs1", f"/p/{i}")))
        yield from app.commit()

    system.run(setup())

    def client(i):
        rng = system.sim.stream(f"c{i}")
        session = system.session()
        while system.sim.now < DURATION:
            yield Timeout(rng.expovariate(1.0 / 8.0))
            if system.sim.now >= DURATION:
                break
            row = rng.randrange(40)
            started = system.sim.now
            try:
                yield from session.execute(
                    "UPDATE media SET tag = ? WHERE id = ?",
                    (f"touch-{i}", row))
                yield from session.commit()
                stats["ops"] += 1
                stats["latencies"].record(system.sim.now - started)
            except TransactionAborted as error:
                if error.reason == "timeout":
                    stats["timeout_aborts"] += 1
                elif error.reason == "deadlock":
                    stats["deadlock_aborts"] += 1
                try:
                    yield from session.rollback()
                except ReproError:
                    pass

    def hog():
        """Every 5 minutes, grabs 6 pool rows and sits on them."""
        session = system.session()
        while system.sim.now < DURATION:
            yield Timeout(180.0)
            if system.sim.now >= DURATION:
                break
            try:
                for row in range(6):
                    yield from session.execute(
                        "UPDATE media SET tag = 'hogged' WHERE id = ?",
                        (row,))
                yield Timeout(HOG_HOLD)
                yield from session.commit()
                stats["hog_cycles"] += 1
            except TransactionAborted:
                try:
                    yield from session.rollback()
                except ReproError:
                    pass

    def root():
        procs = [system.sim.spawn(client(i), f"c{i}") for i in range(15)]
        procs.append(system.sim.spawn(hog(), "hog"))
        for proc in procs:
            yield from proc.join()

    system.run(root())
    lat = stats["latencies"].summary()
    return {
        "timeout_aborts": stats["timeout_aborts"],
        "deadlocks": stats["deadlock_aborts"],
        "ops_per_min": round(stats["ops"] / (DURATION / 60), 1),
        "p50_latency": round(lat["p50"], 2) if lat["count"] else None,
        "p95_latency": round(lat["p95"], 2) if lat["count"] else None,
        "p99_latency": round(lat["p99"], 2) if lat["count"] else None,
        "max_latency": round(lat["max"], 2) if lat["count"] else None,
    }


def test_e7_timeout_sweep(benchmark):
    values = [5.0, 15.0, 60.0, 300.0]

    def run():
        return [(t, _run(t)) for t in values]

    results = run_once(benchmark, run)
    rows = [(f"{t:.0f}s" + (" (paper)" if t == 60 else ""),
             r["timeout_aborts"], r["ops_per_min"], r["p50_latency"],
             r["p95_latency"], r["p99_latency"], r["max_latency"])
            for t, r in results]
    print_table(
        "E7 — lock-timeout sweep (15 clients on a hot pool + 90 s hog)",
        ["timeout", "unnecessary aborts", "ops/min", "p50 lat (s)",
         "p95 lat (s)", "p99 lat (s)", "max lat (s)"],
        rows)
    by_timeout = dict(results)
    # Small timeouts abort healthy waiters; 60 s and up do not.
    assert by_timeout[5.0]["timeout_aborts"] > by_timeout[60.0][
        "timeout_aborts"]
    assert by_timeout[15.0]["timeout_aborts"] >= by_timeout[60.0][
        "timeout_aborts"]
    # Generous timeouts trade aborts for stall time behind the hog.
    assert (by_timeout[300.0]["max_latency"]
            >= by_timeout[5.0]["max_latency"])
