"""Every DLFM text keeps its plan, and every DLFM index is some plan's.

``tests/golden/dlfm_plans.json`` maps each SQL text the shipped drivers
send to a ``dfm_*`` or ``dlk_*`` table (the census of
``tools/reached.py --with-experiments``) to the access path it gets
under the DLFM's pinned statistics: an index name, ``table_scan``, one
per SELECT of an EXCEPT, or null for an INSERT. Rebinding every text
must reproduce it — a schema change that moves no plan moves no lock
footprint of a read. An index no text reads is upkeep every write of
its table pays for nothing. Regenerate (only when a plan is meant to
move) with ``python3 tools/reached.py --with-experiments --plans
tests/golden/dlfm_plans.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((ROOT / "tests/golden/dlfm_plans.json").read_text())


def _reached():
    spec = importlib.util.spec_from_file_location(
        "reached", ROOT / "tools/reached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reached = _reached()


@pytest.fixture(scope="module")
def db():
    return reached.plan_context()


def test_every_dlfm_text_keeps_its_access_path(db):
    assert {sql: reached.access_path(db, sql) for sql in GOLDEN} == GOLDEN


def test_every_index_of_the_schema_is_some_texts_access_path(db):
    read = {index for path in GOLDEN.values() if path
            for index in path.split(" EXCEPT ")}
    assert set(db.catalog.indexes) - read == set()
