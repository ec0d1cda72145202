"""Two host databases sharing one DLFM (the paper: DLFM "work[s]
cooperatively with host database server(s)").

Transaction ids and group ids are only unique per host, so every piece
of DLFM metadata must be scoped by dbid — these tests collide them on
purpose.
"""

import pytest

from repro.errors import LinkError
from repro.host import DatalinkSpec, HostDB, build_url
from repro.system import System


@pytest.fixture
def shared():
    """One System plus a SECOND host database attached to the same DLFM."""
    system = System(seed=83)
    other = HostDB(system.sim, "otherdb", system.dlfms)

    def setup():
        for host in (system.host, other):
            yield from host.create_datalink_table(
                "t", [("id", "INT"), ("doc", "TEXT")],
                {"doc": DatalinkSpec(recovery=False)})
        for i in range(6):
            system.create_user_file("fs1", f"/mh/f{i}", owner="u")

    system.run(setup())
    return system, other


def test_group_ids_collide_but_are_scoped_by_dbid(shared):
    system, other = shared
    # both hosts allocated grp_id=1 for t.doc — the unique index is
    # (dbid, grp_id), so registration succeeded for both
    groups = system.dlfms["fs1"].db.table_rows("dfm_group")
    assert sorted((g[1], g[0]) for g in groups) == [
        ("hostdb", 1), ("otherdb", 1)]


def test_both_hosts_link_files_concurrently(shared):
    system, other = shared

    def client(host, path):
        session = host.session()
        yield from session.execute(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", path)))
        yield from session.commit()

    def go():
        pa = system.sim.spawn(client(system.host, "/mh/f0"))
        pb = system.sim.spawn(client(other, "/mh/f1"))
        yield from pa.join()
        yield from pb.join()

    system.run(go())
    entries = system.dlfms["fs1"].file_entries()
    dbids = sorted(row[1] for row in entries)
    assert dbids == ["hostdb", "otherdb"]
    assert system.dlfms["fs1"].linked_count() == 2


def test_colliding_txn_ids_stay_separate(shared):
    """Host A's txn N and host B's txn N must not see each other's work —
    commit processing selects by (txn id, dbid)."""
    system, other = shared

    def client(host, path, commit):
        session = host.session()
        yield from session.execute(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", path)))
        # both hosts hand the DLFM the SAME local txn id here
        if commit:
            yield from session.commit()
        else:
            yield from session.rollback()

    def go():
        pa = system.sim.spawn(client(system.host, "/mh/f2", True))
        pb = system.sim.spawn(client(other, "/mh/f3", False))
        yield from pa.join()
        yield from pb.join()

    system.run(go())
    entries = system.dlfms["fs1"].file_entries()
    assert len(entries) == 1
    assert entries[0][1] == "hostdb"
    assert entries[0][0] == "/mh/f2"


def test_one_host_cannot_unlink_anothers_file(shared):
    system, other = shared

    def go():
        session_a = system.host.session()
        yield from session_a.execute(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/mh/f4")))
        yield from session_a.commit()
        # host B tries to link the same file: the check-flag unique index
        # is global by filename — a file belongs to ONE database at a time
        session_b = other.session()
        with pytest.raises(LinkError):
            yield from session_b.execute(
                "INSERT INTO t (id, doc) VALUES (?, ?)",
                (1, build_url("fs1", "/mh/f4")))
        yield from session_b.rollback()

    system.run(go())
    assert system.dlfms["fs1"].linked_count() == 1


def test_indoubt_resolution_is_per_host(shared):
    from repro.dlfm import api
    from repro.host.indoubt import resolve_indoubts
    system, other = shared

    def phase1(host, path, decided):
        session = host.session()
        yield from session.execute(
            "INSERT INTO t (id, doc) VALUES (?, ?)",
            (9, build_url("fs1", path)))
        txn_id = session.txn_id
        yield from session.send_control(
            "fs1", api.Prepare(host.dbid, txn_id))
        yield from host.decide(session.session,
                               ["fs1"] if decided else [])

    # host A prepares WITH a decision; host B prepares WITHOUT one
    def go():
        yield from phase1(system.host, "/mh/f4", decided=True)
        yield from phase1(other, "/mh/f5", decided=False)
        result_a = yield from resolve_indoubts(system.host)
        result_b = yield from resolve_indoubts(other)
        return result_a, result_b

    result_a, result_b = system.run(go())
    assert result_a == {"committed": 1, "aborted": 0}
    assert result_b == {"committed": 0, "aborted": 1}
    entries = system.dlfms["fs1"].file_entries()
    assert [(e[0], e[1]) for e in entries] == [("/mh/f4", "hostdb")]


def test_per_host_backup_retention(shared):
    system, other = shared

    def go():
        # three backups for host A, one for host B
        for _ in range(3):
            yield from system.backup()
        from repro.host.backup import backup_database
        yield from backup_database(other)
        result = yield from system.dlfms["fs1"].gc.collect()
        return result

    result = system.run(go())
    assert result["backups"] == 1  # only host A exceeded KEEP_BACKUPS=2
    remaining = system.dlfms["fs1"].db.table_rows("dfm_backup")
    assert sorted(r[1] for r in remaining) == ["hostdb", "hostdb",
                                               "otherdb"]
