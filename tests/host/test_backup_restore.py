"""Coordinated backup / point-in-time restore / reconcile (§3.4, E10)."""


from repro.dlff.filter import DLFM_ADMIN

from tests.conftest import restart_and_resolve
from tests.dlfm.conftest import insert_clip


def count_clips(media):
    def go():
        session = media.session()
        result = yield from session.execute("SELECT COUNT(*) FROM clips")
        yield from session.commit()
        return result.scalar()
    return media.run(go())


def test_backup_waits_for_pending_archives(media):
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from insert_clip(session, 1)
        yield from session.commit()
        # backup immediately: copies are still pending — the utility must
        # drive them with priority before declaring success (§3.4)
        backup_id = yield from media.backup()
        return backup_id

    backup_id = media.run(go())
    assert media.archive.copy_count() == 2
    assert media.host.backups[backup_id]["archived"]["fs1"] == 2
    # backup cycle recorded at the DLFM
    assert len(media.dlfms["fs1"].db.table_rows("dfm_backup")) == 1


def test_restore_resurrects_unlinked_file(media):
    """Linked at backup, unlinked + deleted afterwards → restore brings
    the database row AND the file back (from the archive server)."""
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        backup_id = yield from media.backup()
        # after the backup: remove the row, unlink the file, delete it
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()
        yield from media.filtered_fs("fs1").delete("/v/clip0.mpg", "alice")
        assert not media.servers["fs1"].fs.exists("/v/clip0.mpg")
        result = yield from media.restore(backup_id)
        return result

    result = media.run(go())
    assert result["fs1"]["restored"] == 1
    assert count_clips(media) == 1
    node = media.servers["fs1"].fs.stat("/v/clip0.mpg")
    assert node.owner == DLFM_ADMIN
    assert node.content.startswith("VIDEO-0")
    assert media.dlfms["fs1"].linked_count() == 1


def test_files_restored_counts_archive_fetches_once(media):
    """Three entries come back to linked; only the one whose file is
    gone is fetched from the archive, and ``files_restored`` counts that
    fetch once (the reply's ``restored`` counts entries)."""
    def go():
        session = media.session()
        for i in range(3):
            yield from insert_clip(session, i)
        yield from session.commit()
        backup_id = yield from media.backup()
        yield from session.execute("DELETE FROM clips")
        yield from session.commit()
        yield from media.filtered_fs("fs1").delete("/v/clip0.mpg", "alice")
        result = yield from media.restore(backup_id)
        return result

    result = media.run(go())
    assert result["fs1"]["restored"] == 3
    assert media.dlfms["fs1"].metrics.files_restored == 1
    assert media.servers["fs1"].fs.exists("/v/clip0.mpg")


def test_restore_releases_files_linked_after_backup(media):
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        backup_id = yield from media.backup()
        yield from insert_clip(session, 1)  # linked after the backup
        yield from session.commit()
        result = yield from media.restore(backup_id)
        return result

    result = media.run(go())
    assert result["fs1"]["released"] == 1
    assert count_clips(media) == 1
    # clip1 is free again
    assert media.servers["fs1"].fs.stat("/v/clip1.mpg").owner == "alice"
    assert media.dlfms["fs1"].linked_count() == 1


def test_restore_is_point_in_time_for_plain_data_too(media):
    def go():
        session = media.session()
        yield from session.execute(
            "INSERT INTO clips (id, title, video) VALUES (?, ?, ?)",
            (1, "before", None))
        yield from session.commit()
        backup_id = yield from media.backup()
        yield from session.execute(
            "UPDATE clips SET title = 'after' WHERE id = 1")
        yield from session.commit()
        yield from media.restore(backup_id)
        row = yield from session.session.query_one(
            "SELECT title FROM clips WHERE id = 1")
        yield from session.session.commit()
        return row

    assert media.run(go()) == ("before",)


def test_same_filename_different_content_versions(media):
    """The recovery-id point (§3): the same name linked twice with
    different content restores to the RIGHT version."""
    def go():
        fs = media.servers["fs1"].fs
        session = media.session()
        yield from insert_clip(session, 0)  # content VIDEO-0...
        yield from session.commit()
        backup1 = yield from media.backup()  # version 1 archived
        # unlink, replace content, relink
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()
        yield from media.filtered_fs("fs1").delete("/v/clip0.mpg", "alice")
        media.create_user_file("fs1", "/v/clip0.mpg", owner="alice",
                               content="SECOND-VERSION")
        yield from insert_clip(session, 0)
        yield from session.commit()
        yield from media.backup()
        # destroy and restore to backup1 → must get version 1 content
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()
        yield from media.filtered_fs("fs1").delete("/v/clip0.mpg", "alice")
        yield from media.restore(backup1)
        return fs.stat("/v/clip0.mpg").content

    content = media.run(go())
    assert content.startswith("VIDEO-0")


def test_reconcile_fixes_orphaned_dlfm_entry(media):
    """Host restored to before a link → DLFM thinks linked, host doesn't.
    (Covered by restore itself, so here we manufacture the skew directly.)"""
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        # manufacture skew: host forgets the row without unlinking
        plain = media.host.db.session()
        yield from plain.execute("DELETE FROM clips WHERE id = 0")
        yield from plain.commit()
        result = yield from media.reconcile()
        return result

    result = media.run(go())
    assert result["fs1"]["removed"] == 1
    assert media.dlfms["fs1"].linked_count() == 0
    assert media.servers["fs1"].fs.stat("/v/clip0.mpg").owner == "alice"


def test_reconcile_fixes_missing_dlfm_entry(media):
    """Host references a file the DLFM has no linked entry for."""
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        # manufacture skew: wipe the DLFM entry behind everyone's back
        dlfm_session = media.dlfms["fs1"].db.session()
        yield from dlfm_session.execute(
            "DELETE FROM dfm_file WHERE filename = ?", ("/v/clip0.mpg",))
        yield from dlfm_session.commit()
        result = yield from media.reconcile()
        return result

    result = media.run(go())
    assert result["fs1"]["relinked"] == 1
    assert media.dlfms["fs1"].linked_count() == 1


def test_reconcile_nulls_dangling_host_reference(media):
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        # file disappears (e.g. disk damage) and DLFM metadata wiped
        media.servers["fs1"].fs.delete("/v/clip0.mpg", "root")
        dlfm_session = media.dlfms["fs1"].db.session()
        yield from dlfm_session.execute(
            "DELETE FROM dfm_file WHERE filename = ?", ("/v/clip0.mpg",))
        yield from dlfm_session.commit()
        result = yield from media.reconcile()
        session2 = media.session()
        row = yield from session2.session.query_one(
            "SELECT video FROM clips WHERE id = 0")
        yield from session2.session.commit()
        return result, row

    result, row = media.run(go())
    assert result["fs1"]["nulled"] == 1
    assert row == (None,)


def test_reconcile_clean_system_is_noop(media):
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        return (yield from media.reconcile())

    result = media.run(go())
    assert result["fs1"] == {"relinked": 0, "removed": 0, "dangling": [],
                             "conflicts": [], "nulled": 0}


def test_backup_under_running_clients_survives_a_host_crash(media):
    """``backup()`` checkpoints the host while clients hold transactions
    open; each of those commits after the checkpoint. A host crash and
    restart later, every read must still see them (e2e finding 1b)."""
    from repro.chaos.invariants import check_invariants
    from repro.kernel.sim import Timeout

    sim = media.sim
    state = {"backup_done": False, "open_at_backup": 0}

    def index_clips():   # point updates, or the four clients deadlock
        plain = media.host.db.session()
        yield from plain.execute("CREATE UNIQUE INDEX clips_id ON clips (id)")
        yield from plain.commit()
        media.host.db.set_table_stats("clips", card=100_000,
                                      colcard={"id": 100_000})

    media.run(index_clips())

    def client(n):
        session = media.session()
        yield from insert_clip(session, n)
        yield from session.commit()
        round_no = 0
        while not state["backup_done"]:
            round_no += 1
            yield from session.execute(
                "UPDATE clips SET title = ? WHERE id = ?",
                (f"clip {n} take {round_no}", n))
            yield Timeout(0.05)   # the transaction stays open here
            yield from session.commit()

    def backup():
        yield Timeout(1.0)
        state["open_at_backup"] = len(media.host.db.txns.active)
        yield from media.backup()
        state["backup_done"] = True

    def root():
        procs = [sim.spawn(client(n), f"client-{n}") for n in range(4)]
        procs.append(sim.spawn(backup(), "backup"))
        for proc in procs:
            yield from proc.join()

    media.run(root())
    assert state["open_at_backup"] >= 2
    media.host.crash()
    media.run(restart_and_resolve(media.host))
    assert check_invariants(media) == []
    assert count_clips(media) == 4
