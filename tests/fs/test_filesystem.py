"""File system and archive server unit tests."""

import pytest

from repro.archive import ArchiveServer
from repro.errors import (ArchiveError, FileExists, FileNotFound,
                          PermissionDenied)
from repro.fs.filesystem import READ_ONLY, READ_WRITE, FileSystem
from repro.minidb.config import TimingModel


@pytest.fixture
def fs(sim):
    return FileSystem(sim)


def test_create_and_stat(fs):
    node = fs.create("/a.txt", owner="alice", content="hello")
    assert node.owner == "alice"
    assert node.size == 5
    assert fs.stat("/a.txt").inode == node.inode


def test_create_duplicate_raises(fs):
    fs.create("/a.txt", "alice")
    with pytest.raises(FileExists):
        fs.create("/a.txt", "bob")


def test_stat_missing_raises(fs):
    with pytest.raises(FileNotFound):
        fs.stat("/nope")


def test_owner_can_read_write(fs):
    fs.create("/a.txt", "alice", "v1")
    assert fs.read("/a.txt", "alice") == "v1"
    fs.write("/a.txt", "alice", "v2")
    assert fs.read("/a.txt", "alice") == "v2"


def test_other_user_can_read_with_world_bits(fs):
    fs.create("/a.txt", "alice", "x", mode=READ_WRITE)
    assert fs.read("/a.txt", "bob") == "x"


def test_other_user_cannot_write(fs):
    fs.create("/a.txt", "alice", "x")
    with pytest.raises(PermissionDenied):
        fs.write("/a.txt", "bob", "y")


def test_read_only_mode_blocks_even_owner_write(fs):
    fs.create("/a.txt", "alice", "x", mode=READ_ONLY)
    with pytest.raises(PermissionDenied):
        fs.write("/a.txt", "alice", "y")


def test_root_bypasses_permissions(fs):
    fs.create("/a.txt", "alice", "x", mode=READ_ONLY)
    fs.write("/a.txt", "root", "y")
    assert fs.read("/a.txt", "root") == "y"


def test_delete_and_rename(fs):
    fs.create("/a.txt", "alice", "x")
    fs.rename("/a.txt", "/b.txt", "alice")
    assert not fs.exists("/a.txt")
    assert fs.exists("/b.txt")
    fs.delete("/b.txt", "alice")
    assert not fs.exists("/b.txt")


def test_rename_onto_existing_raises(fs):
    fs.create("/a.txt", "alice")
    fs.create("/b.txt", "alice")
    with pytest.raises(FileExists):
        fs.rename("/a.txt", "/b.txt", "alice")


def test_chown_chmod(fs):
    fs.create("/a.txt", "alice", "x")
    fs.chown("/a.txt", "dlfmadm")
    fs.chmod("/a.txt", READ_ONLY)
    node = fs.stat("/a.txt")
    assert node.owner == "dlfmadm"
    assert node.mode == READ_ONLY
    with pytest.raises(PermissionDenied):
        fs.delete("/a.txt", "alice")


def test_mtime_advances_with_clock(sim):
    fs = FileSystem(sim)
    fs.create("/a.txt", "alice", "x")
    sim.after(10, lambda: None)
    sim.run()
    fs.write("/a.txt", "alice", "y")
    assert fs.stat("/a.txt").mtime == 10.0


def test_restore_file_replaces(fs):
    fs.create("/a.txt", "alice", "old")
    node = fs.restore_file("/a.txt", "new", "bob", "users", READ_WRITE)
    assert node.content == "new"
    assert node.owner == "bob"


# -- archive server --------------------------------------------------------

def run(sim, gen):
    return sim.run_process(gen)


def test_archive_store_and_retrieve(sim):
    archive = ArchiveServer(sim)

    def go():
        yield from archive.store("fs1", "/a", "r1", "content", "alice",
                                 "users", READ_WRITE)
        copy = yield from archive.retrieve("fs1", "/a", "r1")
        return copy

    copy = run(sim, go())
    assert copy.content == "content"
    assert copy.owner == "alice"
    assert archive.copy_count() == 1


def test_archive_versions_by_recovery_id(sim):
    archive = ArchiveServer(sim)

    def go():
        yield from archive.store("fs1", "/a", "r1", "v1", "a", "g", 0o644)
        yield from archive.store("fs1", "/a", "r2", "v2", "a", "g", 0o644)
        one = yield from archive.retrieve("fs1", "/a", "r1")
        two = yield from archive.retrieve("fs1", "/a", "r2")
        return one.content, two.content

    assert run(sim, go()) == ("v1", "v2")
    assert archive.copy_count() == 2


def test_archive_missing_version_raises(sim):
    archive = ArchiveServer(sim)

    def go():
        with pytest.raises(ArchiveError):
            yield from archive.retrieve("fs1", "/a", "nope")
        return True

    assert run(sim, go()) is True


def test_archive_delete_version(sim):
    archive = ArchiveServer(sim)

    def go():
        yield from archive.store("fs1", "/a", "r1", "v", "a", "g", 0o644)
        archive.delete_version("fs1", "/a", "r1")
        with pytest.raises(ArchiveError):
            archive.delete_version("fs1", "/a", "r1")
        return archive.copy_count()

    assert run(sim, go()) == 0


def test_archive_transfer_charges_time_when_enabled(sim):
    archive = ArchiveServer(sim, timing=TimingModel(archive=True))

    def go():
        yield from archive.store("fs1", "/a", "r1", "x" * 1000, "a", "g", 0)
        return sim.now

    # Setup plus 1 000 bytes, with the engine's clock still disabled.
    assert run(sim, go()) == pytest.approx(0.05 + 0.1)
