"""The file-group fence under ``all_on``, end to end.

LinkFile and UnlinkFile probe their group row ``FOR SHARE``: a current
read whose S lock lasts to the local commit at Prepare. It must conflict
with the group's writers — DeleteGroup's UPDATE, ExportGroup's FOR
UPDATE — in whichever order they arrive, and with nothing else: linkers
into one group run side by side (DESIGN §13). Each race is driven
through host sessions whose buffered ops are flushed at chosen instants,
on one DLFM and on a 4-shard fleet.
"""

import pytest

from repro.chaos.invariants import check_invariants
from repro.configs import Configuration
from repro.errors import LinkError, ReproError
from repro.host import DatalinkSpec, build_url
from repro.kernel import Timeout, rpc
from repro.shard import move_group
from tests.conftest import run_until_durable

DEPLOYMENTS = pytest.mark.parametrize("shards", [0, 4])


def build(shards: int, files: int = 16):
    system = Configuration("all_on").system(seed=7, shards=shards)

    def setup():
        yield from system.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for i in range(files):
            system.create_user_file("fs1", f"/x/f{i}", owner="u")

    system.run(setup())
    return system


def _attempt(system, out: dict, who: str, body):
    """Generator: run ``body``; note how it ended and when."""
    try:
        yield from body
        out[who] = "committed"
    except ReproError as error:
        out[who] = error
    out[f"{who}_at"] = system.sim.now


def linker(system, out, start: float, hold: float, i: int = 0):
    """Link file ``i`` at ``start`` (the LinkFile reaches the DLFM then,
    not at commit), commit ``hold`` later."""
    session = system.session()

    def body():
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (i, build_url("fs1", f"/x/f{i}")))
        yield from session.flush_datalinks()
        out["fenced_at"] = system.sim.now
        yield Timeout(hold)
        yield from session.commit()

    yield Timeout(start)
    yield from _attempt(system, out, "link", body())
    if out["link"] != "committed":
        yield from session.rollback()


def dropper(system, out, start: float, hold: float):
    session = system.session()

    def body():
        yield from session.drop_table("docs")
        yield from session.flush_datalinks()
        out["marked_at"] = system.sim.now
        yield Timeout(hold)
        yield from session.commit()

    yield Timeout(start)
    yield from _attempt(system, out, "drop", body())


def mover(system, out, start: float):
    host = system.host
    grp_id = host.group_ids[("docs", "doc")]
    src = host.shard_map.resolve(grp_id)[0]
    out["dst"] = next(n for n in sorted(system.dlfms) if n != src)
    yield Timeout(start)
    yield from _attempt(system, out, "move",
                        move_group(host, grp_id, out["dst"]))


def race(system, *procs) -> dict:
    out: dict = {}
    system.run(rpc.gather_all(system.sim,
                              [proc(system, out) for proc in procs],
                              name="racer"))

    def settle():   # the delete-group daemon, phase 2, the sweeps
        yield Timeout(120.0)

    system.run(settle())
    assert check_invariants(system) == []
    return out


def _linked(system) -> dict:
    return {name: dlfm.linked_count()
            for name, dlfm in system.dlfms.items() if dlfm.linked_count()}


@DEPLOYMENTS
def test_delete_group_waits_for_a_link_that_got_there_first(shards):
    system = build(shards)
    out = race(system,
               lambda s, o: linker(s, o, start=0.0, hold=1.0),
               lambda s, o: dropper(s, o, start=0.5, hold=0.0))
    assert out["link"] == out["drop"] == "committed"
    # The group was marked only once the linker's Prepare had committed
    # locally; the file it linked went out with the group.
    assert out["fenced_at"] < 0.5
    assert out["fenced_at"] + 1.0 < out["marked_at"] < out["link_at"]
    assert _linked(system) == {}
    assert system.servers["fs1"].fs.stat("/x/f0").owner == "u"


@DEPLOYMENTS
def test_a_link_behind_delete_group_waits_and_then_fails(shards):
    """The group probe waits for the uncommitted delete and sees what
    it wrote."""
    system = build(shards)
    out = race(system,
               lambda s, o: dropper(s, o, start=0.0, hold=1.0),
               lambda s, o: linker(s, o, start=0.5, hold=0.0))
    assert out["drop"] == "committed"
    assert isinstance(out["link"], LinkError)
    assert "missing or deleted" in str(out["link"])
    assert out["marked_at"] + 1.0 < out["link_at"] < out["drop_at"]
    assert "fenced_at" not in out and _linked(system) == {}


def test_move_group_waits_for_a_link_that_got_there_first():
    """The export waits for the link's group fence until the link
    PREPAREs, then finds its ``dfm_txn`` row in doubt and refuses,
    retryably: the group stays on its source. Once phase 2 has settled,
    the retry moves it, the link with it."""
    system = build(shards=4)
    grp_id = system.host.group_ids[("docs", "doc")]
    src = system.host.shard_map.resolve(grp_id)[0]
    out = race(system,
               lambda s, o: linker(s, o, start=0.0, hold=1.0),
               lambda s, o: mover(s, o, start=0.5))
    assert out["link"] == "committed"
    assert isinstance(out["move"], LinkError)
    assert "retry later" in str(out["move"])
    assert out["fenced_at"] + 1.0 < out["move_at"] < out["link_at"]
    assert _linked(system) == {src: 1}
    retry = race(system, lambda s, o: mover(s, o, start=0.0))
    assert retry["move"] == "committed"
    assert _linked(system) == {retry["dst"]: 1}    # the link moved with it


def test_a_link_behind_move_group_waits_and_then_gets_a_stale_route():
    """... which the flush heals like every other path: the session
    reloads the map, waits the move out and re-sends the bucket to the
    new owner (before the shared ship path the flush surfaced the
    StaleRouteError and the application had to retry)."""
    system = build(shards=4)
    reloads = system.host.shard_map.reloads
    out = race(system,
               lambda s, o: mover(s, o, start=0.0),
               lambda s, o: linker(s, o, start=0.02, hold=0.0))
    assert out["move"] == out["link"] == "committed"
    assert system.host.shard_map.reloads > reloads
    assert out["move_at"] < out["fenced_at"]    # fenced on the new owner
    assert _linked(system) == {out["dst"]: 1}


@DEPLOYMENTS
def test_link_then_drop_in_one_transaction_upgrades_and_commits(shards):
    system = build(shards)

    def both(system, out):
        session = system.session()

        def body():
            yield from session.execute(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                (0, build_url("fs1", "/x/f0")))
            yield from session.flush_datalinks()      # S on the group row
            yield from session.drop_table("docs")     # ... converts to X
            yield from session.commit()

        yield from _attempt(system, out, "both", body())

    assert race(system, both)["both"] == "committed"
    assert _linked(system) == {}
    assert all(dlfm.db.locks.metrics.waits == 0
               for dlfm in system.dlfms.values())


@DEPLOYMENTS
def test_sixteen_one_link_transactions_into_one_group_overlap(shards):
    """One transaction's Batch holds its fence through Prepare's log
    force. Exclusive, sixteen of them into one file group are that sum
    (the parent: 16 waits, makespan 16x); shared, they overlap."""
    def makespan(clients):
        system = build(shards)
        done = []

        def client(i):
            session = system.session()
            yield from session.execute(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                (i, build_url("fs1", f"/x/f{i}")))
            yield from session.commit()
            done.append(system.sim.now)

        started = system.sim.now
        system.run(rpc.gather_all(system.sim,
                                  [client(i) for i in range(clients)],
                                  name="linker"))
        assert sum(_linked(system).values()) == clients
        run_until_durable(system)
        assert check_invariants(system) == []
        return max(done) - started, sum(
            dlfm.db.locks.metrics.waits for dlfm in system.dlfms.values())

    alone, _ = makespan(1)
    together, waits = makespan(16)
    assert together < 0.5 * 16 * alone
    assert waits == 0
