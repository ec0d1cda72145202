"""``tools/reached.py``'s ``KEPT`` table names real functions, each with
a reason — checked without tracing, so an entry whose function was
deleted fails here in seconds rather than after the traced run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reached():
    spec = importlib.util.spec_from_file_location(
        "reached", os.path.join(ROOT, "tools", "reached.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kept_entry_names_a_def_under_src_repro_and_gives_a_reason():
    reached = load_reached()
    missing = []
    for key, reason in reached.KEPT.items():
        rel, _, name = key.partition(":")
        path = os.path.join(ROOT, rel)
        if not (rel.startswith("src/repro/") and os.path.isfile(path)
                and name in {qual for qual, _ in
                             reached.functions(path).values()}):
            missing.append(key)
        assert reason.strip(), f"{key} has no reason"
    assert not missing, f"KEPT names no such def: {missing}"
