"""DLFF enforcement: referential integrity and access tokens (§2, F2)."""

import pytest

from repro.dlff.filter import AccessToken
from repro.errors import AccessTokenError, LinkedFileError
from repro.host.hostdb import TOKEN_EXPIRY
from repro.kernel import Timeout

from tests.dlfm.conftest import insert_clip, url


@pytest.fixture
def linked(media):
    def go():
        session = media.session()
        yield from insert_clip(session, 0)
        yield from session.commit()
    media.run(go())
    return media


def test_delete_of_linked_file_rejected(linked):
    def go():
        with pytest.raises(LinkedFileError):
            yield from linked.filtered_fs("fs1").delete("/v/clip0.mpg",
                                                        "alice")
        return True
    assert linked.run(go()) is True
    assert linked.dlfms["fs1"].metrics.filter_rejections >= 1


def test_rename_of_linked_file_rejected(linked):
    def go():
        with pytest.raises(LinkedFileError):
            yield from linked.filtered_fs("fs1").rename(
                "/v/clip0.mpg", "/v/moved.mpg", "alice")
        return True
    assert linked.run(go()) is True


def test_write_of_full_control_file_rejected(linked):
    def go():
        with pytest.raises(LinkedFileError):
            yield from linked.filtered_fs("fs1").write(
                "/v/clip0.mpg", "alice", "overwrite")
        return True
    assert linked.run(go()) is True


def test_unlinked_files_are_free(linked):
    def go():
        fsf = linked.filtered_fs("fs1")
        yield from fsf.rename("/v/clip1.mpg", "/v/moved.mpg", "alice")
        yield from fsf.delete("/v/moved.mpg", "alice")
        return True
    assert linked.run(go()) is True


def test_read_without_token_rejected_full_control(linked):
    with pytest.raises(AccessTokenError):
        linked.filtered_fs("fs1").read("/v/clip0.mpg", "bob")


def test_read_with_valid_token_succeeds(linked):
    token = linked.host.issue_token(url(0))
    content = linked.filtered_fs("fs1").read("/v/clip0.mpg", "bob",
                                             token=token)
    assert content.startswith("VIDEO-0")


def test_owner_also_needs_token_after_takeover(linked):
    with pytest.raises(AccessTokenError):
        linked.filtered_fs("fs1").read("/v/clip0.mpg", "alice")


def test_expired_token_rejected(linked):
    token = linked.host.issue_token(url(0))

    def go():
        yield Timeout(TOKEN_EXPIRY + 1)
        with pytest.raises(AccessTokenError):
            linked.filtered_fs("fs1").read("/v/clip0.mpg", "bob",
                                           token=token)
        return True

    assert linked.run(go()) is True


def test_forged_token_rejected(linked):
    forged = AccessToken.sign("wrong-secret", "/v/clip0.mpg", 10_000.0)
    with pytest.raises(AccessTokenError):
        linked.filtered_fs("fs1").read("/v/clip0.mpg", "bob", token=forged)


def test_token_bound_to_path(linked):
    def go():
        session = linked.session()
        yield from insert_clip(session, 1)
        yield from session.commit()
    linked.run(go())
    token = linked.host.issue_token(url(0))
    # clip1 is also DB-controlled now; clip0's token must not open it
    with pytest.raises(AccessTokenError):
        linked.filtered_fs("fs1").read("/v/clip1.mpg", "bob", token=token)
    # an unlinked file needs no token at all
    assert linked.filtered_fs("fs1").read("/v/clip2.mpg", "bob")


def test_after_unlink_file_is_ordinary_again(linked):
    def go():
        session = linked.session()
        yield from session.execute("DELETE FROM clips WHERE id = 0")
        yield from session.commit()
        fsf = linked.filtered_fs("fs1")
        assert fsf.read("/v/clip0.mpg", "bob").startswith("VIDEO-0")
        yield from fsf.delete("/v/clip0.mpg", "alice")
        return True

    assert linked.run(go()) is True
