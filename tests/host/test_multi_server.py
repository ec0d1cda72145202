"""Transactions spanning multiple DLFMs (multiple file servers).

The paper: "when multiple DLFM's are involved in a transaction, if one
of the DLFMs fails to prepare the transaction, the host database sends
Abort request to all the remaining DLFMs, even though they may have
prepared successfully."
"""

import pytest

from repro.dlff.filter import DLFM_ADMIN
from repro.errors import LinkError, TransactionAborted
from repro.host import DatalinkSpec, build_url
from repro.system import System
from tests.conftest import run_until_durable


@pytest.fixture
def twin():
    system = System(seed=41, servers=("fs1", "fs2"))

    def setup():
        yield from system.host.create_datalink_table(
            "spread", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for server in ("fs1", "fs2"):
            for i in range(4):
                system.create_user_file(server, f"/s/f{i}", owner="u")

    system.run(setup())
    return system


def test_one_transaction_two_servers(twin):
    def go():
        session = twin.session()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/s/f0")))
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (2, build_url("fs2", "/s/f0")))
        assert sorted(session.participants) == ["fs1", "fs2"]
        yield from session.commit()

    twin.run(go())
    assert twin.dlfms["fs1"].linked_count() == 1
    assert twin.dlfms["fs2"].linked_count() == 1
    for server in ("fs1", "fs2"):
        assert twin.servers[server].fs.stat("/s/f0").owner == DLFM_ADMIN


def test_rollback_spans_both_servers(twin):
    def go():
        session = twin.session()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/s/f1")))
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (2, build_url("fs2", "/s/f1")))
        yield from session.rollback()

    twin.run(go())
    assert twin.dlfms["fs1"].linked_count() == 0
    assert twin.dlfms["fs2"].linked_count() == 0


def test_prepare_failure_aborts_everyone(twin):
    """fs2 dies before commit: fs1 prepared successfully but must abort."""
    def go():
        session = twin.session()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/s/f2")))
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (2, build_url("fs2", "/s/f2")))
        twin.dlfms["fs2"].crash()
        twin.dlfms["fs2"].restart()
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    twin.run(go())
    assert twin.dlfms["fs1"].linked_count() == 0
    assert twin.dlfms["fs2"].linked_count() == 0
    # nothing indoubt anywhere
    assert twin.dlfms["fs1"].db.table_rows("dfm_txn") == []
    run_until_durable(twin)
    assert twin.host.decision_rows() == []


def test_statement_error_on_second_server_backs_out_first(twin):
    def go():
        yield from twin.host.create_datalink_table(
            "pairs", [("id", "INT"), ("a", "TEXT"), ("b", "TEXT")],
            {"a": DatalinkSpec(), "b": DatalinkSpec()})
        session = twin.session()
        with pytest.raises(LinkError):
            yield from session.execute(
                "INSERT INTO pairs (id, a, b) VALUES (?, ?, ?)",
                (1, build_url("fs1", "/s/f3"),
                 build_url("fs2", "/s/missing")))
        yield from session.commit()

    twin.run(go())
    assert twin.dlfms["fs1"].linked_count() == 0
    assert twin.dlfms["fs2"].linked_count() == 0


def test_backup_and_restore_cover_all_servers(twin):
    def go():
        session = twin.session()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/s/f3")))
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (2, build_url("fs2", "/s/f3")))
        yield from session.commit()
        backup_id = yield from twin.backup()
        # damage both servers' state
        yield from session.execute("DELETE FROM spread WHERE id = 1")
        yield from session.execute("DELETE FROM spread WHERE id = 2")
        yield from session.commit()
        result = yield from twin.restore(backup_id)
        return result

    result = twin.run(go())
    assert result["fs1"]["restored"] == 1
    assert result["fs2"]["restored"] == 1
    assert twin.dlfms["fs1"].linked_count() == 1
    assert twin.dlfms["fs2"].linked_count() == 1


def test_reconcile_covers_all_servers(twin):
    def go():
        session = twin.session()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (1, build_url("fs2", "/s/f1")))
        yield from session.commit()
        # wipe fs2's metadata behind everyone's back
        dlfm_session = twin.dlfms["fs2"].db.session()
        yield from dlfm_session.execute("DELETE FROM dfm_file")
        yield from dlfm_session.commit()
        return (yield from twin.reconcile())

    result = twin.run(go())
    assert result["fs2"]["relinked"] == 1
    assert result["fs1"] == {"relinked": 0, "removed": 0, "dangling": [],
                             "conflicts": [], "nulled": 0}
