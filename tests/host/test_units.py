"""Unit tests for the host's small helpers: ids, urls, render, tokens."""

import pytest

from repro.dlff.filter import AccessToken
from repro.errors import DataLinkError
from repro.host.datalink import (DatalinkSpec, build_url, parse_url,
                                 shadow_column)
from repro.host.ids import RecoveryIdGenerator
from repro.host.render import count_params, render_expr, render_literal
from repro.kernel import Simulator
from repro.sql.parser import parse


# -- recovery ids -------------------------------------------------------------

def test_recovery_ids_monotonic_within_time():
    sim = Simulator()
    gen = RecoveryIdGenerator(sim, "db1")
    ids = [gen.next() for _ in range(100)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 100


def test_recovery_ids_monotonic_across_time():
    sim = Simulator()
    gen = RecoveryIdGenerator(sim, "db1")
    early = gen.next()
    sim.after(1000.0, lambda: None)
    sim.run()
    late = gen.next()
    assert early < late


def test_recovery_ids_carry_dbid():
    sim = Simulator()
    assert RecoveryIdGenerator(sim, "main").next().startswith("main-")


# -- URLs ----------------------------------------------------------------------

def test_url_round_trip():
    url = build_url("fs1", "/a/b/c.mpg")
    assert url == "dlfs://fs1/a/b/c.mpg"
    assert parse_url(url) == ("fs1", "/a/b/c.mpg")


def test_url_requires_absolute_path():
    with pytest.raises(DataLinkError):
        build_url("fs1", "relative.mpg")


def test_parse_rejects_other_schemes():
    with pytest.raises(DataLinkError):
        parse_url("http://fs1/a")


def test_parse_rejects_missing_path():
    with pytest.raises(DataLinkError):
        parse_url("dlfs://serveronly")


def test_shadow_column_name():
    assert shadow_column("video") == "video__recid"


def test_datalink_spec_validation():
    with pytest.raises(DataLinkError):
        DatalinkSpec(access_control="sideways")
    assert DatalinkSpec(recovery=True).recovery_flag == "yes"
    assert DatalinkSpec(recovery=False).recovery_flag == "no"


# -- SQL rendering ---------------------------------------------------------------

def roundtrip_where(sql_where):
    stmt = parse(f"SELECT * FROM t WHERE {sql_where}")
    return render_expr(stmt.where)


def test_render_comparison():
    assert roundtrip_where("a = 5") == "(a = 5)"


def test_render_preserves_params():
    rendered = roundtrip_where("a = ? AND b < ?")
    assert rendered.count("?") == 2


def test_render_complex_expression_reparses():
    original = ("a = 1 AND (b > 2 AND c = NULL) AND d IN (1, 2) "
                "AND e >= 0 AND e <= 9 - 1 AND f <> 'x''y'")
    rendered = roundtrip_where(original)
    stmt = parse(f"SELECT * FROM t WHERE {rendered}")
    assert render_expr(stmt.where) == roundtrip_where(rendered)


def test_render_literals():
    assert render_literal(None) == "NULL"
    assert render_literal("o'brien") == "'o''brien'"
    assert render_literal(7) == "7"


def test_count_params():
    stmt = parse("SELECT * FROM t WHERE a = ? AND b >= ? AND b <= ? + 1 "
                 "AND c IN (?, 5)")
    assert count_params(stmt.where) == 4


# -- access tokens ------------------------------------------------------------------

def test_token_sign_and_verify():
    token = AccessToken.sign("secret", "/a", 100.0)
    assert token.valid_for("secret", "/a", now=50.0)
    assert not token.valid_for("secret", "/a", now=150.0)   # expired
    assert not token.valid_for("other", "/a", now=50.0)     # wrong secret
    assert not token.valid_for("secret", "/b", now=50.0)    # wrong path


def test_token_signature_is_deterministic():
    a = AccessToken.sign("s", "/a", 10.0)
    b = AccessToken.sign("s", "/a", 10.0)
    assert a == b


def test_tampered_expiry_invalidates_signature():
    token = AccessToken.sign("s", "/a", 10.0)
    forged = AccessToken("/a", 10_000.0, token.signature)
    assert not forged.valid_for("s", "/a", now=50.0)
