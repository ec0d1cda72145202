"""Crash/recovery walk-through: indoubt transactions and daemon resume.

Demonstrates §3.3 of the paper end to end:

1. a transaction links a file and completes phase 1 (prepare) at the
   DLFM, the host records its commit decision; a second one prepares
   too but the host never decides it; a third never prepares — then
   the host and the DLFM node both die;
2. the host restarts first and hands in-doubt resolution to its
   polling daemon at once; the poller's first pass cannot reach the
   DLFM, so it polls ("if DLFM is unavailable at restart, host database
   spawns a daemon whose sole purpose is to poll the DLFM
   periodically");
3. the DLFM restarts; the poller commits the decided transaction (the
   link materializes) and aborts the undecided one (presumed abort);
   the transaction that never prepared simply vanished with the crash —
   the local database's own restart recovery rolled it back.

Run:  python examples/crash_recovery_demo.py
"""

from repro.dlfm import api
from repro.host import DatalinkSpec, build_url
from repro.kernel import Timeout
from repro.system import System


def main():
    system = System(seed=4)
    host = system.host
    dlfm = system.dlfms["fs1"]

    def link(doc_id, name):
        session = system.session()
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (doc_id, build_url("fs1", f"/d/{name}")))
        return session

    def prepare(session):
        yield from session.send_control(
            "fs1", api.Prepare(host.dbid, session.txn_id))

    def demo():
        yield from host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for name in ("committed.doc", "undecided.doc", "inflight.doc"):
            system.create_user_file("fs1", f"/d/{name}", owner="u")
        yield Timeout(10)   # the table's own 2PC is durable and forgotten

        # --- transaction 1: prepared, decision logged ---------------------
        session = yield from link(1, "committed.doc")
        yield from prepare(session)
        yield from host.decide(session.session, ["fs1"])
        print(f"txn {session.txn_id}: prepared at DLFM, commit decision "
              "durable at host")

        # --- transaction 2: prepared, no decision -------------------------
        session2 = yield from link(2, "undecided.doc")
        yield from prepare(session2)
        print(f"txn {session2.txn_id}: prepared at DLFM, no decision")

        # --- transaction 3: in-flight, never prepared ---------------------
        session3 = yield from link(3, "inflight.doc")
        print(f"txn {session3.txn_id}: forward work done, NOT prepared")

        print("\n*** host and DLFM node crash ***\n")
        host.crash()
        dlfm.crash()

        print("host restarts while the DLFM is still down")
        poller = yield from host.restart()
        print(f"  in-doubt resolution handed to the host's poller: "
              f"{poller.name}")
        yield Timeout(12)

        print("DLFM restarts; local recovery runs")
        summary = dlfm.restart()
        print(f"  local restart: redone={summary['redone']} "
              f"undone={summary['undone']}")

        outcome = yield from host.poller.join()
        print(f"indoubt resolution by the poller: {outcome}")

        # Verify: txn 1's link survived; txns 2 and 3 left no trace.
        entries = dlfm.file_entries()
        linked = [row[0] for row in entries if row[8] == "linked"]
        print(f"linked files after recovery: {linked}")
        assert linked == ["/d/committed.doc"]
        assert outcome == {"committed": 1, "aborted": 1}
        assert dlfm.db.table_rows("dfm_txn") == []
        owner = system.servers["fs1"].fs.stat("/d/committed.doc").owner
        print(f"/d/committed.doc owner: {owner} (taken over in the "
              "re-driven phase 2)")

    system.run(demo())
    print("\ncrash recovery demo complete")


if __name__ == "__main__":
    main()
