"""The sharded fleet: shard-map routing, rebalancing, recovery.

A :class:`~repro.shard.ShardedSystem` runs one shared file server and N
DLFM shards partitioning the metadata by file group. These tests cover
the router (ops land on the owning shard only, stale routes retry),
``move_group`` (online 2PC rebalancing), and crash recovery (shard-map
persistence, in-doubt moves resolving to the new owner, piggybacked
decisions re-driven).
"""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultRule
from repro.chaos.invariants import check_invariants
from repro.configs import Configuration
from repro.dlff.filter import DLFM_ADMIN
from repro.dlfm import schema
from repro.errors import (CrashedError, DataLinkError, LinkedFileError,
                          LinkError, ReproError)
from repro.host import DatalinkSpec, build_url
from repro.host.indoubt import resolve_indoubts
from repro.kernel import Timeout, rpc
from repro.shard import ShardedSystem, move_group
from tests.conftest import restart_and_resolve, run_until_durable


def _group_rows(dlfm, grp_id):
    return [row for row in dlfm.db.table_rows("dfm_group")
            if row[0] == grp_id]


@pytest.fixture
def fleet():
    system = ShardedSystem(seed=7, shards=2)

    def setup():
        yield from system.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for i in range(6):
            system.create_user_file("fs1", f"/x/f{i}", owner="u")

    system.run(setup())
    return system


def _link(system, table, rid, path):
    """Generator: link one file in its own transaction."""
    session = system.session()
    yield from session.execute(
        f"INSERT INTO {table} (id, doc) VALUES (?, ?)",
        (rid, build_url("fs1", path)))
    yield from session.commit()


def test_registration_lands_on_assigned_shard(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]
    owner = fleet.shard_of(grp_id)
    other = next(n for n in fleet.dlfms if n != owner)
    assert owner == fleet.host.shard_map.assign(grp_id)
    assert [row[:2] for row in fleet.host.db.table_rows("dlk_shardmap")] \
        == [(grp_id, owner)]
    assert _group_rows(fleet.dlfms[owner], grp_id) != []
    assert _group_rows(fleet.dlfms[other], grp_id) == []
    # Sharded groups register fenced at epoch 1.
    assert _group_rows(fleet.dlfms[owner], grp_id)[0][8] == 1


def test_links_route_to_owning_shard_only(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]
    owner = fleet.shard_of(grp_id)
    other = next(n for n in fleet.dlfms if n != owner)

    def go():
        yield from _link(fleet, "docs", 1, "/x/f0")
        yield from _link(fleet, "docs", 2, "/x/f1")

    fleet.run(go())
    assert fleet.dlfms[owner].linked_count() == 2
    assert fleet.dlfms[other].linked_count() == 0
    assert fleet.servers["fs1"].fs.stat("/x/f0").owner == DLFM_ADMIN


def test_fleet_upcall_protects_linked_files(fleet):
    """The shared filter's upcall must find the owner among N shards."""
    def go():
        yield from _link(fleet, "docs", 1, "/x/f0")
        with pytest.raises(LinkedFileError):
            yield from fleet.filtered_fs().delete("/x/f0", user="u")

    fleet.run(go())


def test_stale_route_reloads_and_retries(fleet):
    """A poisoned cache entry self-heals: the wrong shard answers
    StaleRouteError, the router reloads the catalog and retries."""
    grp_id = fleet.host.group_ids[("docs", "doc")]
    owner = fleet.shard_of(grp_id)
    other = next(n for n in fleet.dlfms if n != owner)
    fleet.host.shard_map._cache[grp_id] = (other, 99)
    before = fleet.host.shard_map.reloads

    fleet.run(_link(fleet, "docs", 1, "/x/f0"))
    assert fleet.host.shard_map.reloads > before
    assert fleet.dlfms[owner].linked_count() == 1
    assert fleet.dlfms[other].linked_count() == 0


def test_wide_transaction_spans_shards(fleet):
    """Two tables land on different shards (hash assignment); one
    transaction touching both commits across them."""
    def go():
        yield from fleet.host.create_datalink_table(
            "pics", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec()})
        session = fleet.session()
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/x/f0")))
        yield from session.execute(
            "INSERT INTO pics (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/x/f1")))
        yield from session.commit()

    fleet.run(go())
    docs_shard = fleet.shard_of(fleet.host.group_ids[("docs", "doc")])
    pics_shard = fleet.shard_of(fleet.host.group_ids[("pics", "doc")])
    assert docs_shard != pics_shard
    assert fleet.dlfms[docs_shard].linked_count() == 1
    assert fleet.dlfms[pics_shard].linked_count() == 1
    # Phase 2 acked and durable: no decision left anywhere.
    run_until_durable(fleet)
    assert fleet.host.decision_rows() == []


def test_move_group_end_to_end(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]
    src = fleet.shard_of(grp_id)
    dst = next(n for n in fleet.dlfms if n != src)

    def go():
        yield from _link(fleet, "docs", 1, "/x/f0")
        yield from _link(fleet, "docs", 2, "/x/f1")
        result = yield from move_group(fleet.host, grp_id, dst)
        assert result == {"moved": True, "src": src, "dst": dst,
                          "epoch": 2, "files": 2}

    fleet.run(go())
    assert fleet.dlfms[src].linked_count() == 0
    assert fleet.dlfms[dst].linked_count() == 2
    assert _group_rows(fleet.dlfms[src], grp_id) == []
    [group] = _group_rows(fleet.dlfms[dst], grp_id)
    assert group[4] == schema.GRP_ACTIVE and group[8] == 2
    assert [tuple(r) for r in fleet.host.db.table_rows("dlk_shardmap")] \
        == [(grp_id, dst, 2)]

    def after():
        # The fleet upcall now finds the file on the new owner...
        with pytest.raises(LinkedFileError):
            yield from fleet.filtered_fs().delete("/x/f0", user="u")
        # ...and both link and unlink route there.
        yield from _link(fleet, "docs", 3, "/x/f2")
        session = fleet.session()
        yield from session.execute("DELETE FROM docs WHERE id = ?", (1,))
        yield from session.commit()

    fleet.run(after())
    assert fleet.dlfms[dst].linked_count() == 2
    assert fleet.servers["fs1"].fs.stat("/x/f0").owner == "u"


def test_move_group_sweep_waits_out_the_periodic_sweep(monkeypatch):
    """``move_group`` drains the source's archive backlog with a Copy
    daemon sweep. When the periodic sweep is already running there (its
    archive transfers billed), the move's sweep waits it out: both
    return, one after the other, and the move goes through."""
    from repro.dlfm.daemons.copyd import CopyDaemon
    fleet = Configuration("all_on", {"timing.archive": True}).system(
        7, shards=2)
    fleet.run(fleet.host.create_datalink_table(
        "docs", [("id", "INT"), ("doc", "TEXT")],
        {"doc": DatalinkSpec(recovery=True)}))
    for i in range(2):
        fleet.create_user_file("fs1", f"/x/f{i}", owner="u")
    grp_id = fleet.host.group_ids[("docs", "doc")]
    src = fleet.shard_of(grp_id)
    dst = next(n for n in fleet.dlfms if n != src)
    copyd = fleet.dlfms[src].copyd
    fleet.run(_link(fleet, "docs", 1, "/x/f0"))
    fleet.run(_link(fleet, "docs", 2, "/x/f1"))

    returned, claimed = {}, []
    sweep, claim = CopyDaemon.sweep, CopyDaemon._claim_batch

    def logged_sweep(self):
        done = yield from sweep(self)
        if self is copyd:
            returned[fleet.sim.process_name] = done
        return done

    def logged_claim(self):
        if self is copyd:   # who claims, and what is archived by then?
            claimed.append((fleet.sim.process_name,
                            self.dlfm.metrics.files_archived))
        return (yield from claim(self))

    monkeypatch.setattr(CopyDaemon, "sweep", logged_sweep)
    monkeypatch.setattr(CopyDaemon, "_claim_batch", logged_claim)
    fleet.sim.run(stop_when=lambda: copyd._sweep is not None)
    # Bounded, so a wedged sweep fails the run instead of hanging it.
    moved = fleet.run(move_group(fleet.host, grp_id, dst), "mover",
                      until=fleet.sim.now + 60.0)
    assert moved["moved"] and moved["files"] == 2
    assert returned == {f"{src}-copyd": 2, "mover": 0}
    assert claimed == [(f"{src}-copyd", 0), ("mover", 2)]
    assert copyd._sweep is None


def test_move_group_rejects_bad_targets(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]
    src = fleet.shard_of(grp_id)

    def go():
        result = yield from move_group(fleet.host, grp_id, src)
        assert result == {"moved": False, "src": src, "dst": src}
        with pytest.raises(DataLinkError):
            yield from move_group(fleet.host, grp_id, "shard99")

    fleet.run(go())


def test_shard_map_survives_host_restart(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]
    dst = next(n for n in fleet.dlfms if n != fleet.shard_of(grp_id))

    def go():
        yield from _link(fleet, "docs", 1, "/x/f0")
        yield from move_group(fleet.host, grp_id, dst)

    fleet.run(go())
    fleet.host.crash()
    assert fleet.host.shard_map.entries() != {}  # cache only — now stale?

    def recover():
        # The move completed before the crash but its FORGET record is
        # unforced and died with the host: restart re-drives the move's
        # two idempotent phase-2 Commits.
        result = yield from restart_and_resolve(fleet.host)
        assert result == {"committed": 2, "aborted": 0}
        # Routing rebuilt from the durable catalog, not the old cache.
        assert fleet.host.shard_map.resolve(grp_id) == (dst, 2)
        yield from _link(fleet, "docs", 2, "/x/f1")

    fleet.run(recover())
    assert fleet.dlfms[dst].linked_count() == 2


def _crashing_fleet(point="twopc.fanout:phase2", kind="crash"):
    plan = FaultPlan([FaultRule(point=point, kind=kind)], name="t")
    system = ShardedSystem(seed=11, shards=2, injector=FaultInjector(plan))
    system.injector.enabled = False

    def setup():
        yield from system.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for i in range(4):
            system.create_user_file("fs1", f"/x/f{i}", owner="u")

    system.run(setup())
    return system


def test_indoubt_move_resolves_to_new_owner():
    """Host crashes mid phase 2 of a move: the decision and the catalog
    flip are both durable, so recovery finishes the move — the group is
    active on the destination only and every route lands there."""
    system = _crashing_fleet()
    grp_id = system.host.group_ids[("docs", "doc")]
    src = system.shard_of(grp_id)
    dst = next(n for n in system.dlfms if n != src)
    system.run(_link(system, "docs", 1, "/x/f0"))

    def crash_mid_move():
        system.injector.enabled = True
        with pytest.raises(CrashedError):
            yield from move_group(system.host, grp_id, dst)

    system.run(crash_mid_move())
    system.injector.enabled = False
    assert len(system.injector.crashes) == 1

    def recover():
        result = yield from restart_and_resolve(system.host)
        # Both participants of the move re-acked the re-driven Commit.
        assert result == {"committed": 2, "aborted": 0}
        assert system.host.shard_map.resolve(grp_id) == (dst, 2)
        yield from _link(system, "docs", 2, "/x/f1")

    system.run(recover())
    assert _group_rows(system.dlfms[src], grp_id) == []
    [group] = _group_rows(system.dlfms[dst], grp_id)
    assert group[4] == schema.GRP_ACTIVE
    assert system.dlfms[src].linked_count() == 0
    assert system.dlfms[dst].linked_count() == 2
    run_until_durable(system)
    assert system.host.decision_rows() == []


def test_decision_redriven_after_crash():
    """The commit decision lives on the COMMIT record only — after a
    crash it is rescanned from the WAL and re-driven."""
    system = _crashing_fleet()
    grp_id = system.host.group_ids[("docs", "doc")]
    owner = system.shard_of(grp_id)

    def crash_mid_commit():
        system.injector.enabled = True
        with pytest.raises(CrashedError):
            yield from _link(system, "docs", 1, "/x/f0")

    system.run(crash_mid_commit())
    system.injector.enabled = False

    def recover():
        result = yield from restart_and_resolve(system.host)
        assert result == {"committed": 1, "aborted": 0}

    system.run(recover())
    assert system.dlfms[owner].linked_count() == 1
    assert system.servers["fs1"].fs.stat("/x/f0").owner == DLFM_ADMIN
    assert system.host.pending_decisions() == {}


def test_export_refuses_group_with_unresolved_transaction():
    """An in-doubt link pins its group to the source shard: a move
    adopts rows verbatim, so phase-2 verbs for the old transaction would
    miss moved rows. The resolver runs first, then the move goes."""
    system = _crashing_fleet()
    grp_id = system.host.group_ids[("docs", "doc")]
    src = system.shard_of(grp_id)
    dst = next(n for n in system.dlfms if n != src)

    def crash_mid_commit():
        system.injector.enabled = True
        with pytest.raises(CrashedError):
            yield from _link(system, "docs", 1, "/x/f0")

    system.run(crash_mid_commit())
    system.injector.enabled = False
    # Bring the host db back WITHOUT resolving, as a poller would see it:
    # the link's prepared transaction is still in doubt on the shard.
    system.host.db.restart()
    system.host.shard_map.reload()

    def go():
        # The refusal names the unresolved transaction — or its pending
        # archive work, when the crashed commit's stray in-flight Commit
        # already landed on the shard. Either way the move bounces with
        # "retry" until the resolver has run.
        with pytest.raises(LinkError, match="retry"):
            yield from move_group(system.host, grp_id, dst)
        result = yield from resolve_indoubts(system.host)
        assert result["committed"] == 1
        moved = yield from move_group(system.host, grp_id, dst)
        assert moved["moved"] and moved["files"] == 1

    system.run(go())
    assert system.dlfms[dst].linked_count() == 1
    assert system.shard_of(grp_id) == dst


def test_drop_table_cleans_catalog_row(fleet):
    grp_id = fleet.host.group_ids[("docs", "doc")]

    def go():
        session = fleet.session()
        yield from session.drop_table("docs")
        yield from session.commit()

    fleet.run(go())
    assert fleet.host.db.table_rows("dlk_shardmap") == []
    with pytest.raises(DataLinkError):
        fleet.host.shard_map.resolve(grp_id)


# -- utilities on a fleet: routed by group, never by the URL's server ----------

@pytest.fixture
def wide_fleet(fleet):
    """``fleet`` plus a second table, so both shards own a group, and
    20 files; rows 0-9 alternate between the two tables."""
    def setup():
        yield from fleet.host.create_datalink_table(
            "pics", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for i in range(20):
            fleet.create_user_file("fs1", f"/y/f{i}", owner="u")

    fleet.run(setup())
    owners = {fleet.shard_of(fleet.host.group_ids[(table, "doc")])
              for table in ("docs", "pics")}
    assert owners == set(fleet.dlfms)
    return fleet


def _link_ten(system):
    def go():
        for i in range(10):
            yield from _link(system, ("docs", "pics")[i % 2], i,
                             f"/y/f{i}")
    system.run(go())


def _linked(system):
    return {name: dlfm.linked_count()
            for name, dlfm in system.dlfms.items()}


def test_load_on_a_fleet_links_through_the_shard_map(wide_fleet):
    from repro.host.load import LoadUtility
    system = wide_fleet
    owner = system.shard_of(system.host.group_ids[("docs", "doc")])
    load = LoadUtility(
        system.host, "docs", "doc",
        [({"id": i}, build_url("fs1", f"/y/f{i}")) for i in range(20)],
        piece_size=5)
    stats = system.run(load.run())
    assert stats.linked == 20 and stats.batches == 4
    assert _linked(system) == {
        name: 20 if name == owner else 0 for name in system.dlfms}
    assert system.dlfms[owner].db.table_rows("dfm_txn") == []
    assert system.servers["fs1"].fs.stat("/y/f7").owner == DLFM_ADMIN
    run_until_durable(system)
    assert system.host.decision_rows() == []


def test_reconcile_on_a_healthy_fleet_changes_nothing(wide_fleet):
    system = wide_fleet
    _link_ten(system)
    before = _linked(system)
    summary = system.run(system.reconcile())
    assert sorted(summary) == sorted(system.dlfms)
    for result in summary.values():
        assert (result["removed"], result["relinked"], result["nulled"],
                result["dangling"]) == (0, 0, 0, [])
    assert _linked(system) == before == {name: 5 for name in system.dlfms}


def test_reconcile_relinks_a_lost_entry_on_its_owning_shard(wide_fleet):
    system = wide_fleet
    _link_ten(system)
    owner = system.shard_of(system.host.group_ids[("pics", "doc")])

    def lose_entry():
        session = system.dlfms[owner].db.session()
        yield from session.execute(
            "DELETE FROM dfm_file WHERE filename = ?", ("/y/f3",))
        yield from session.commit()

    system.run(lose_entry())
    assert system.dlfms[owner].linked_count() == 4
    summary = system.run(system.reconcile())
    assert {name: result["relinked"] for name, result in summary.items()} \
        == {name: int(name == owner) for name in system.dlfms}
    assert all(result["removed"] == 0 for result in summary.values())
    assert _linked(system) == {name: 5 for name in system.dlfms}


def test_backup_unlink_restore_round_trips_on_a_fleet(wide_fleet):
    system = wide_fleet
    _link_ten(system)

    def go():
        backup_id = yield from system.backup()
        session = system.session()
        for table in ("docs", "pics"):
            yield from session.execute(f"DELETE FROM {table}")
        yield from session.commit()
        assert _linked(system) == {name: 0 for name in system.dlfms}
        return (yield from system.restore(backup_id))

    result = system.run(go())
    assert {name: r["restored"] for name, r in result.items()} \
        == {name: 5 for name in system.dlfms}
    assert _linked(system) == {name: 5 for name in system.dlfms}
    assert system.host.db.table_rows("docs") != []
    assert system.servers["fs1"].fs.stat("/y/f4").owner == DLFM_ADMIN


def test_move_killed_on_a_lost_reply_leaves_no_host_transaction():
    """A partition drops the reply to the move's first request and the
    caller, wedged on it, is killed (what the chaos campaign does to a
    round that outlives its budget). The move's session is its own, so
    the move must see to it that the transaction it began is rolled
    back: nothing stays active on the host, the group stays where it
    was and a second move goes through."""
    system = _crashing_fleet("rpc.reply:dlfm-agent", kind="partition")
    grp_id = system.host.group_ids[("docs", "doc")]
    src = system.shard_of(grp_id)
    dst = next(n for n in system.dlfms if n != src)
    system.run(_link(system, "docs", 1, "/x/f0"))

    system.injector.enabled = True
    mover = system.sim.spawn(move_group(system.host, grp_id, dst), "mover")
    system.sim.run(until=system.sim.now + 60.0)
    system.injector.enabled = False
    assert not mover.finished and len(system.injector.fired) == 1
    assert len(system.host.db.txns.active) == 1
    mover.kill()
    system.sim.run(until=system.sim.now + 60.0)

    assert system.host.db.txns.active == []
    assert system.host.db.locks.total_locks == 0
    assert system.shard_of(grp_id) == src
    moved = system.run(move_group(system.host, grp_id, dst))
    assert moved["moved"] and moved["files"] == 1


def test_abort_after_prepare_takes_back_the_group_it_registered(fleet):
    """CREATE of a datalink table whose transaction is aborted AFTER the
    shard prepared (the coordinator died, or a partition ate the vote):
    the shard-map row goes with the host rollback, so the group the
    shard registered — and hardened at prepare — must go with the
    Abort, or it lives on with no catalog row routing to it."""
    def go():
        session = fleet.session()
        yield from fleet.host.create_datalink_table(
            "extra", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)}, session=session)
        yield from session.execute(
            "INSERT INTO extra (id, doc) VALUES (?, ?)",
            (1, build_url("fs1", "/x/f0")))
        yield from session.prepare_participants()
        yield from session.rollback()

    fleet.run(go())
    grp_id = fleet.host.group_ids[("extra", "doc")]
    assert all(_group_rows(dlfm, grp_id) == []
               for dlfm in fleet.dlfms.values())
    assert sum(d.linked_count() for d in fleet.dlfms.values()) == 0
    run_until_durable(fleet)
    assert check_invariants(fleet) == []



# -- one stale-route handler: LOAD, DROP and a racing move heal like DML -------

def _poison(system, table="docs"):
    """Point the route cache at the wrong shard, at a wrong epoch."""
    grp_id = system.host.group_ids[(table, "doc")]
    owner = system.shard_of(grp_id)
    other = next(n for n in system.dlfms if n != owner)
    system.host.shard_map._cache[grp_id] = (other, 99)
    return grp_id, owner, other


def _settled_invariants(system):
    """check_invariants once the daemons (copy, delete-group) are done."""
    def settle():
        yield Timeout(120.0)

    system.run(settle())
    return check_invariants(system)


def _load(system, files=6, piece_size=3):
    from repro.host.load import LoadUtility
    return LoadUtility(
        system.host, "docs", "doc",
        [({"id": i}, build_url("fs1", f"/x/f{i}")) for i in range(files)],
        piece_size=piece_size)


def test_load_on_a_stale_route_reloads_and_lands_on_the_owner(fleet):
    _, owner, other = _poison(fleet)
    before = fleet.host.shard_map.reloads
    stats = fleet.run(_load(fleet).run())
    assert fleet.host.shard_map.reloads > before
    assert stats.linked == 6 and stats.pieces == 2
    assert _linked(fleet) == {owner: 6, other: 0}
    assert all(dlfm.db.table_rows("dfm_txn") == []
               for dlfm in fleet.dlfms.values())
    assert _settled_invariants(fleet) == []


def test_drop_table_on_a_stale_route_reloads_and_lands_on_the_owner(fleet):
    grp_id, owner, other = _poison(fleet)
    before = fleet.host.shard_map.reloads

    def go():
        session = fleet.session()
        yield from session.drop_table("docs")
        yield from session.commit()

    fleet.run(go())
    assert fleet.host.shard_map.reloads > before
    assert fleet.host.db.table_rows("dlk_shardmap") == []
    assert _settled_invariants(fleet) == []
    [group] = _group_rows(fleet.dlfms[owner], grp_id)
    assert group[4] == "emptied"            # the delete-group daemon ran
    assert _group_rows(fleet.dlfms[other], grp_id) == []


def test_load_racing_move_group_waits_the_move_out():
    """The first piece reaches the source while the move holds the group
    moving-out: it backs off with everyone else's retry, follows the
    group and the whole load lands on the new owner. (Once a piece is
    committed the order is the other way round: the next test.) Runs
    under ``all_on``'s calibrated clock so the move has a duration."""
    fleet = Configuration("all_on").system(seed=7, shards=2)

    def setup():
        yield from fleet.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        for i in range(6):
            fleet.create_user_file("fs1", f"/x/f{i}", owner="u")

    fleet.run(setup())
    grp_id = fleet.host.group_ids[("docs", "doc")]
    src = fleet.shard_of(grp_id)
    dst = next(n for n in fleet.dlfms if n != src)
    load = _load(fleet)
    out = {}

    def mover():
        out["moved"] = yield from move_group(fleet.host, grp_id, dst)
        out["moved_at"] = fleet.sim.now

    def loader():
        yield Timeout(0.02)        # the export has marked the group
        try:
            out["stats"] = yield from load.run()
        except ReproError as error:
            out["stats"] = error
            yield from load.session.rollback()   # or the move never ends

    before = fleet.host.shard_map.reloads
    fleet.run(rpc.gather_all(fleet.sim, [mover(), loader()], name="race"))
    assert out["moved"]["moved"] and fleet.host.shard_map.reloads > before
    assert not isinstance(out["stats"], ReproError), out["stats"]
    assert out["stats"].linked == 6 and out["stats"].pieces == 2
    assert _linked(fleet) == {src: 0, dst: 6}
    assert all(dlfm.db.table_rows("dfm_txn") == []
               for dlfm in fleet.dlfms.values())
    assert _settled_invariants(fleet) == []


def test_move_group_is_refused_once_a_load_piece_is_committed(fleet):
    """ExportGroup adopts rows verbatim, so a group with an unresolved
    transaction — a LOAD between pieces — stays where it is."""
    grp_id = fleet.host.group_ids[("docs", "doc")]
    src = fleet.shard_of(grp_id)
    dst = next(n for n in fleet.dlfms if n != src)
    load = _load(fleet)

    def go():
        yield from load._load_piece()
        with pytest.raises(LinkError, match="unresolved transaction"):
            yield from move_group(fleet.host, grp_id, dst)
        return (yield from load.run())

    stats = fleet.run(go())
    assert stats.linked == 6 and _linked(fleet) == {src: 6, dst: 0}
    assert _settled_invariants(fleet) == []
