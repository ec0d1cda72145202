"""Service daemons: Copy, Delete-Group, GC, Upcall, Chown (Fig. 5)."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.dlfm.manager import GROUP_LIFETIME
from repro.errors import PermissionDenied
from repro.host import DatalinkSpec
from repro.kernel import Timeout
from repro.system import System

from tests.dlfm.conftest import insert_clip, url


def commit_links(media, ids):
    def go():
        session = media.session()
        for i in ids:
            yield from insert_clip(session, i)
        yield from session.commit()
    media.run(go())


def test_copy_daemon_archives_after_commit(media):
    commit_links(media, [0, 1])
    assert media.archive.copy_count() == 0  # nothing archived synchronously

    def wait():
        yield Timeout(15)

    media.run(wait())
    assert media.archive.copy_count() == 2
    assert media.dlfms["fs1"].db.table_rows("dfm_archive") == []
    # file entries flagged archived
    assert all(row[15] == 1 for row in media.dlfms["fs1"].file_entries())


def test_copy_daemon_resumes_after_crash(media):
    commit_links(media, [0, 1, 2])
    dlfm = media.dlfms["fs1"]
    # crash before the copy daemon's first sweep; pending entries are
    # durable because prepare committed them locally
    dlfm.crash()
    dlfm.restart()

    def wait():
        yield Timeout(15)

    media.run(wait())
    assert media.archive.copy_count() == 3


def test_delete_group_daemon_unlinks_dropped_table(media):
    commit_links(media, [0, 1, 2, 3])

    def drop():
        session = media.session()
        yield from session.drop_table("clips")
        yield from session.commit()
        yield Timeout(10)  # daemon works asynchronously after commit

    media.run(drop())
    dlfm = media.dlfms["fs1"]
    assert dlfm.linked_count() == 0
    # recovery=yes → unlinked markers kept
    states = {row[8] for row in dlfm.file_entries()}
    assert states == {"unlinked"}
    # files released back to their owner
    assert media.servers["fs1"].fs.stat("/v/clip0.mpg").owner == "alice"
    # host table really dropped
    assert "clips" not in media.host.db.catalog.tables
    # transaction table fully drained
    assert dlfm.db.table_rows("dfm_txn") == []


def test_drop_table_rollback_keeps_links(media):
    commit_links(media, [0])

    def drop_then_rollback():
        session = media.session()
        yield from session.drop_table("clips")
        yield from session.rollback()
        yield Timeout(10)

    media.run(drop_then_rollback())
    assert media.dlfms["fs1"].linked_count() == 1
    assert "clips" in media.host.db.catalog.tables
    groups = media.dlfms["fs1"].db.table_rows("dfm_group")
    assert all(row[4] == "active" for row in groups)


def test_delete_group_daemon_resumes_after_crash(media):
    """Commit the drop, crash DLFM before the daemon runs, restart: the
    committed transaction entry drives the rescan (§3.5)."""
    commit_links(media, [0, 1, 2])
    dlfm = media.dlfms["fs1"]

    def drop():
        session = media.session()
        yield from session.drop_table("clips")
        yield from session.commit()

    # freeze the daemon so it cannot start working before the crash
    next(p for p in dlfm._daemon_procs if "delgrpd" in p.name).kill()
    media.run(drop())
    assert dlfm.linked_count() == 3  # nothing unlinked yet
    dlfm.crash()
    dlfm.restart()

    def wait():
        yield Timeout(10)

    media.run(wait())
    assert dlfm.linked_count() == 0
    assert dlfm.db.table_rows("dfm_txn") == []


def test_same_filename_cannot_relink_while_group_delete_pending(media):
    commit_links(media, [0])
    dlfm = media.dlfms["fs1"]
    next(p for p in dlfm._daemon_procs if "delgrpd" in p.name).kill()

    def drop_and_try_relink():
        from repro.errors import LinkError
        from repro.host import DatalinkSpec
        session = media.session()
        yield from session.drop_table("clips")
        yield from session.commit()
        # group committed-deleted, daemon frozen → entry still linked
        yield from media.host.create_datalink_table(
            "clips2", [("id", "INT"), ("video", "TEXT")],
            {"video": DatalinkSpec()})
        session = media.session()
        with pytest.raises(LinkError):
            yield from session.execute(
                "INSERT INTO clips2 (id, video) VALUES (?, ?)", (1, url(0)))
        yield from session.rollback()
        return True

    assert media.run(drop_and_try_relink()) is True


def test_gc_prunes_old_backups_and_unlinked_entries(media):
    commit_links(media, [0])

    def scenario():
        yield Timeout(15)  # archive clip0
        session = media.session()
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()  # → unlinked entry retained
        # three backups: retention keeps the last 2
        for _ in range(3):
            yield from media.backup()
        result = yield from media.dlfms["fs1"].gc.collect()
        return result

    result = media.run(scenario())
    assert result["backups"] == 1
    # the unlink happened before the oldest kept backup → entry + copy gone
    assert result["entries"] == 1
    assert result["copies"] == 1
    assert media.dlfms["fs1"].file_entries() == []
    assert media.archive.copy_count() == 0


def test_gc_keeps_entries_needed_by_retained_backups(media):
    commit_links(media, [0])

    def scenario():
        yield Timeout(15)
        yield from media.backup()   # clip0 linked at this backup
        session = media.session()
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()
        yield from media.backup()
        yield from media.backup()   # oldest retained is #2 (watermark
        # before the unlink? no — unlink before #2) — entry prunable only
        # if unlinked before the OLDEST KEPT backup.
        result = yield from media.dlfms["fs1"].gc.collect()
        return result

    result = media.run(scenario())
    # unlink happened before backup #2 (oldest kept) → prunable
    assert result["entries"] == 1


def test_gc_expired_groups(media):
    commit_links(media, [0, 1])

    def scenario():
        session = media.session()
        yield from session.drop_table("clips")
        yield from session.commit()
        yield Timeout(10)  # delete-group daemon empties the group
        # before expiry: nothing collected
        early = yield from media.dlfms["fs1"].gc.collect()
        yield Timeout(GROUP_LIFETIME + 10)
        late = yield from media.dlfms["fs1"].gc.collect()
        return early, late

    early, late = media.run(scenario())
    assert early["groups"] == 0
    assert late["groups"] == 1
    assert late["entries"] == 2  # the unlinked markers of both files
    assert media.dlfms["fs1"].db.table_rows("dfm_group") == []


def test_upcall_daemon_answers_linked_query(media):
    commit_links(media, [0])
    dlfm = media.dlfms["fs1"]

    def ask():
        linked = yield from dlfm.upcalld.query("/v/clip0.mpg")
        free = yield from dlfm.upcalld.query("/v/clip1.mpg")
        return linked, free

    linked, free = media.run(ask())
    assert linked == {"dbid": "hostdb", "access_ctl": "full"}
    assert free is None


def test_chown_daemon_rejects_bad_secret(media):
    dlfm = media.dlfms["fs1"]

    def forge():
        from repro.kernel.rpc import call
        with pytest.raises(PermissionDenied):
            yield from call(media.sim, dlfm.chown.chan,
                            {"secret": "wrong", "op": "takeover",
                             "path": "/v/clip0.mpg"})
        return True

    assert media.run(forge()) is True
    assert dlfm.metrics.chown_denied == 1


def test_partial_access_control_uses_upcall(media):
    from repro.host import DatalinkSpec

    def go():
        yield from media.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(access_control="partial", recovery=False)})
        media.create_user_file("fs1", "/docs/a.txt", owner="carol",
                               content="hi")
        session = media.session()
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (1, "dlfs://fs1/docs/a.txt"))
        yield from session.commit()
        # partial control: owner unchanged, file still readable normally
        node = media.servers["fs1"].fs.stat("/docs/a.txt")
        assert node.owner == "carol"
        # but delete is rejected via upcall
        from repro.errors import LinkedFileError
        with pytest.raises(LinkedFileError):
            yield from media.filtered_fs("fs1").delete("/docs/a.txt",
                                                       "carol")
        return media.dlfms["fs1"].metrics.filter_upcalls

    upcalls = media.run(go())
    assert upcalls >= 1


def test_delete_group_survives_a_deadlock_at_its_first_statement():
    """The Delete-Group daemon's work for a transaction is a deadlock
    victim at its first statement (the probe for the deleted groups).
    It rolls back, backs off and starts over: the group is emptied and
    the transaction row goes, with no DLFM restart."""
    system = System(seed=7, injector=FaultInjector(FaultPlan([
        FaultRule("lock.acquire:dlfm-*", "lock_deadlock")])))
    system.injector.enabled = False
    dlfm = system.dlfms["fs1"]

    def drop():
        for i in range(3):
            system.create_user_file("fs1", f"/v/clip{i}.mpg", owner="alice")
        yield from system.host.create_datalink_table(
            "clips", [("id", "INT"), ("title", "TEXT"), ("video", "TEXT")],
            {"video": DatalinkSpec(access_control="full", recovery=True)})
        session = system.session()
        for i in range(3):
            yield from insert_clip(session, i)
        yield from session.commit()
        yield from session.drop_table("clips")
        txn_id = session.txn_id
        yield from session.commit()
        return txn_id

    # Freeze the daemon's intake: the work runs below, by hand, with the
    # deadlock aimed at its first lock request.
    next(p for p in dlfm._daemon_procs if "delgrpd" in p.name).kill()
    txn_id = system.run(drop())
    assert dlfm.linked_count() == 3
    system.injector.enabled = True
    system.run(dlfm.delete_groupd.process_txn(system.host.dbid, txn_id))
    assert [f["point"] for f in system.injector.fired] == [
        "lock.acquire:dlfm-fs1"]
    assert dlfm.metrics.delgrpd_retries == 1
    assert dlfm.linked_count() == 0
    assert dlfm.db.table_rows("dfm_txn") == []
    state = dlfm.db.catalog.tables["dfm_group"].position("state")
    assert {row[state] for row in dlfm.db.table_rows("dfm_group")} == {
        "emptied"}
