"""XA global transactions spanning the host database and two file servers.

The paper (§3.3): "In the case of an XA transaction, the host database
also generates a local transaction id that is different from the global
XA transaction id" — the DLFMs only ever see the local id.

This example plays the external transaction manager: one global
transaction links files on two file servers, prepares everywhere, then
the host crashes before the TM's verdict arrives. After restart the
branch is indoubt — its rows still locked — until the TM decides.

Run:  python examples/global_transactions.py
"""

from repro.host import DatalinkSpec, build_url
from repro.host.xa import xa_commit, xa_prepare, xa_recover
from repro.system import System


def main():
    system = System(seed=8, servers=("fs-east", "fs-west"))
    host = system.host

    def tm_flow():
        yield from host.create_datalink_table(
            "ledger_docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        system.create_user_file("fs-east", "/docs/invoice.pdf", owner="fin")
        system.create_user_file("fs-west", "/docs/receipt.pdf", owner="fin")

        # --- the application's branch of a global transaction -----------
        session = system.session()
        yield from session.execute(
            "INSERT INTO ledger_docs (id, doc) VALUES (?, ?)",
            (1, build_url("fs-east", "/docs/invoice.pdf")))
        yield from session.execute(
            "INSERT INTO ledger_docs (id, doc) VALUES (?, ?)",
            (2, build_url("fs-west", "/docs/receipt.pdf")))

        gtrid = "TM-0001:branch-42"
        prepared = yield from xa_prepare(session, gtrid)
        print(f"prepared: global id {gtrid!r} ↔ local txn id "
              f"{prepared.txn_id}, vote {prepared.vote!r} "
              "(the DLFMs only ever saw the local id)")

        # --- host crashes before the TM's commit arrives ----------------
        print("\n*** host database crashes ***\n")
        host.db.crash()
        summary = host.db.restart()
        print(f"host restart: prepared branches recovered = "
              f"{summary['prepared']}")

        # The branch rode the PREPARE record: restart hands it back —
        # gtrid, participants and all — with the resurrected transaction.
        print(f"xa_recover() → {xa_recover(host)}")

        # the branch's rows are still locked against everyone else
        probe = host.db.session()
        from repro.errors import TransactionAborted
        try:
            yield from probe.execute("SELECT * FROM ledger_docs")
        except TransactionAborted as error:
            print(f"probe blocked as expected: {error.reason}")

        # --- the TM finally says COMMIT ---------------------------------
        decision = yield from xa_commit(host, gtrid)
        print(f"TM verdict applied: branch committed, phase 2 driven to "
              f"{list(decision['servers'])} "
              f"(read-only, skipped: {list(decision['readonly'])})")

        reader = host.db.session()
        rows = yield from reader.execute(
            "SELECT id, doc FROM ledger_docs ORDER BY id")
        yield from reader.commit()
        for row in rows:
            print(f"  row {row[0]}: {row[1]}")
        east = system.dlfms["fs-east"].linked_count()
        west = system.dlfms["fs-west"].linked_count()
        print(f"linked files: fs-east={east} fs-west={west}")

    system.run(tm_flow())
    print("\nglobal transactions example complete")


if __name__ == "__main__":
    main()
