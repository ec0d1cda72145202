"""Crash/recovery walk-through: indoubt transactions and daemon resume.

Demonstrates §3.3 of the paper end to end:

1. a transaction links a file and completes phase 1 (prepare) at the
   DLFM, the host records its commit decision — then the DLFM node dies;
2. on restart the transaction is *indoubt* at the DLFM; the host's
   resolution (or its polling daemon, if the DLFM stays down a while)
   drives phase 2 and the link materializes;
3. a second transaction that never prepared simply vanishes with the
   crash — the local database's own restart recovery rolls it back.

Run:  python examples/crash_recovery_demo.py
"""

from repro.dlfm import api
from repro.host import DatalinkSpec, build_url
from repro.host.indoubt import indoubt_poller
from repro.kernel import Timeout
from repro.system import System


def main():
    system = System(seed=4)
    host = system.host
    dlfm = system.dlfms["fs1"]

    def demo():
        yield from host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for name in ("committed.doc", "inflight.doc"):
            system.create_user_file("fs1", f"/d/{name}", owner="u")

        # --- transaction 1: prepared, decision logged, then DLFM dies ----
        session = system.session()
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/d/committed.doc")))
        txn_id = session.txn_id
        yield from session.send_control("fs1",
                                        api.Prepare(host.dbid, txn_id))
        yield from host.decide(session.session, ["fs1"])
        print(f"txn {txn_id}: prepared at DLFM, commit decision durable "
              "at host")

        # --- transaction 2: in-flight, never prepared ----------------------
        session2 = system.session()
        yield from session2.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (2, build_url("fs1", "/d/inflight.doc")))
        print(f"txn {session2.txn_id}: forward work done, NOT prepared")

        print("\n*** DLFM node crashes ***\n")
        dlfm.crash()

        # The host spawns the polling daemon the paper describes — the
        # DLFM is unavailable right now.
        poller = system.sim.spawn(indoubt_poller(host, "fs1"),
                                  "indoubt-poller")
        yield Timeout(12)

        print("DLFM restarts; local recovery runs")
        summary = dlfm.restart()
        print(f"  local restart: redone={summary['redone']} "
              f"undone={summary['undone']}")

        outcome = yield from poller.join()
        print(f"indoubt resolution: {outcome}")

        # Verify: txn 1's link survived; txn 2 left no trace.
        entries = dlfm.file_entries()
        linked = [row[0] for row in entries if row[8] == "linked"]
        print(f"linked files after recovery: {linked}")
        assert linked == ["/d/committed.doc"]
        assert dlfm.db.table_rows("dfm_txn") == []
        owner = system.servers["fs1"].fs.stat("/d/committed.doc").owner
        print(f"/d/committed.doc owner: {owner} (taken over in the "
              "re-driven phase 2)")

    system.run(demo())
    print("\ncrash recovery demo complete")


if __name__ == "__main__":
    main()
