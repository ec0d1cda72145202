"""Failure injection: daemons must degrade gracefully, never corrupt."""

import pytest

from repro.errors import CrashedError

from tests.dlfm.conftest import insert_clip, url


def test_copy_daemon_drops_entry_for_vanished_file(media):
    """An archive entry whose file no longer exists (pre-crash edge) is
    dropped rather than wedging the sweep forever."""
    dlfm = media.dlfms["fs1"]

    def inject():
        session = dlfm.db.session()
        yield from session.execute(
            "INSERT INTO dfm_archive (filename, recovery_id, state, "
            "enqueued_at) VALUES (?, ?, ?, ?)",
            ("/ghost/file", "rid-ghost", "pending", 0.0))
        yield from session.commit()
        done = yield from dlfm.copyd.sweep()
        return done

    done = media.run(inject())
    assert done == 0
    assert dlfm.db.table_rows("dfm_archive") == []  # entry removed
    assert media.archive.copy_count() == 0


def test_copy_daemon_survives_lock_conflicts(media):
    """A child agent holding locks on dfm_archive makes the sweep back
    off (conflict counted) without losing the pending entry."""
    dlfm = media.dlfms["fs1"]
    dlfm.db.config.lock_timeout = 2.0

    def scenario():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()  # → pending archive entry
        # an interloper X-locks the pending archive row and sits on it
        blocker = dlfm.db.session()
        yield from blocker.execute(
            "UPDATE dfm_archive SET state = 'pending' WHERE filename = ?",
            ("/v/clip0.mpg",))
        swept = yield from dlfm.copyd.sweep()
        conflicts = dlfm.metrics.copyd_conflicts
        yield from blocker.rollback()
        again = yield from dlfm.copyd.sweep()
        return swept, conflicts, again

    swept, conflicts, again = media.run(scenario())
    assert swept == 0
    assert conflicts >= 1
    assert again == 1  # succeeded once the blocker went away
    assert media.archive.copy_count() == 1


def test_upcall_daemon_fails_safe_under_contention(media):
    """If the metadata row is locked, the upcall answers 'linked' rather
    than risking a referential-integrity violation."""
    dlfm = media.dlfms["fs1"]
    dlfm.db.config.lock_timeout = 1.0

    def scenario():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
        blocker = dlfm.db.session()
        yield from blocker.execute(
            "SELECT * FROM dfm_file WHERE filename = ? FOR UPDATE",
            ("/v/clip0.mpg",))
        answer = yield from dlfm.upcalld.query("/v/clip0.mpg")
        yield from blocker.rollback()
        return answer

    answer = media.run(scenario())
    assert answer is not None           # fail safe: treated as linked
    assert answer["dbid"] == "unknown"


def test_gc_tolerates_missing_archive_copy(media):
    """GC of an unlinked entry whose copy was never archived
    (recovery=no churn) must not fail."""
    from repro.host import DatalinkSpec

    def scenario():
        yield from media.host.create_datalink_table(
            "scratch", [("id", "INT"), ("f", "TEXT")],
            {"f": DatalinkSpec(recovery=True)})
        session = media.session()
        yield from session.execute(
            "INSERT INTO scratch (id, f) VALUES (?, ?)", (1, url(0)))
        yield from session.commit()
        # unlink BEFORE the copy daemon ran, and drop the pending archive
        # work so no copy ever exists (simulates a copy lost to history)
        yield from session.execute("DELETE FROM scratch WHERE id = 1")
        yield from session.commit()
        dlfm_session = media.dlfms["fs1"].db.session()
        yield from dlfm_session.execute("DELETE FROM dfm_archive")
        yield from dlfm_session.commit()
        for _ in range(3):
            yield from media.backup()
        result = yield from media.dlfms["fs1"].gc.collect()
        return result

    result = media.run(scenario())
    assert result["entries"] == 1
    assert result["copies"] == 0  # nothing to delete — and no crash


def test_operations_against_crashed_dlfm_db_raise(media):
    dlfm = media.dlfms["fs1"]
    dlfm.crash()
    with pytest.raises(CrashedError):
        dlfm.db.begin()
    dlfm.restart()
    assert dlfm.db.begin() is not None


def test_daemon_sweeps_idle_system_are_noops(media):
    dlfm = media.dlfms["fs1"]

    def idle():
        swept = yield from dlfm.copyd.sweep()
        collected = yield from dlfm.gc.collect()
        return swept, collected

    swept, collected = media.run(idle())
    assert swept == 0
    assert collected == {"entries": 0, "copies": 0, "groups": 0,
                         "backups": 0}


def test_chown_restore_file_op(media):
    dlfm = media.dlfms["fs1"]

    def go():
        result = yield from dlfm.chown.request(
            "restore_file", "/fresh/file", content="data", owner="bob",
            group="users", mode=0o644)
        return result

    assert media.run(go()) == {"restored": True}
    node = media.servers["fs1"].fs.stat("/fresh/file")
    assert node.owner == "bob"
    assert node.content == "data"


def test_unknown_chown_op_rejected(media):
    from repro.errors import ReproError
    dlfm = media.dlfms["fs1"]

    def go():
        with pytest.raises(ReproError):
            yield from dlfm.chown.request("chmod-777", "/v/clip0.mpg")
        return True

    assert media.run(go()) is True
