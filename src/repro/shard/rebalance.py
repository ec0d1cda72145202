"""Online rebalancing: move a file group between shards under 2PC.

``move_group`` is an ordinary host transaction with two participants:

1. **ExportGroup** to the source shard — locks the group, snapshots its
   ``dfm_file`` rows, marks the group *moving-out* under the move's
   transaction id (a delayed-update mark, like unlink's);
2. **ImportGroup** to the destination — inserts the group *moving-in*
   at the bumped epoch plus the file rows verbatim;
3. the ``dlk_shardmap`` catalog row flips to the destination at the new
   epoch **in the same host transaction**;
4. COMMIT runs the normal 2PC: phase 1 hardens both shards, the durable
   decision (on the host's COMMIT record) makes the move final, phase 2
   deletes the moving-out copy and activates the moving-in one.

A crash anywhere leaves nothing stranded: before the decision is
durable, presumed abort restores the source and deletes the import;
after it, in-doubt re-drive finishes the flip on both shards — and the
catalog row, committed with the decision, already names the new owner,
so the resolver (and every rebooted cache) routes there. Concurrent
ops meanwhile bounce off the *moving* states with StaleRouteError and
retry until phase 2 resolves.

Chaos crash points (``shard.move:*``): ``exported`` (source marked,
nothing durable), ``imported`` (both sides staged), ``mapped`` (catalog
row written, decision not yet durable). All three must resolve to
"group active on exactly one shard, catalog agrees" — the campaign's
sharded invariants check exactly that.
"""

from __future__ import annotations

from repro.dlfm import api
from repro.errors import DataLinkError, ReproError


def move_group(host, grp_id: int, dst: str):
    """Generator: move ``grp_id`` to shard ``dst``; returns a summary.

    Raises :class:`~repro.errors.LinkError` when the group cannot move
    right now (deleted, already moving, or carrying pending archive
    work), :class:`~repro.errors.TransactionAborted` when the move
    transaction lost a lock fight — both leave the group untouched on
    the source. A no-op move (already on ``dst``) returns early.
    """
    shard_map = host.shard_map
    if shard_map is None:
        raise DataLinkError("move_group needs a sharded host")
    if dst not in shard_map.shards:
        raise DataLinkError(f"unknown destination shard {dst!r}")
    src, _epoch = shard_map.resolve(grp_id)
    if src == dst:
        return {"moved": False, "src": src, "dst": dst}

    # Export refuses groups with pending archive work (the copy daemon's
    # completion update must find its row on the source shard), so drain
    # the source's backlog up front instead of bouncing the caller.
    yield from shard_map.shards[src].copyd.sweep()

    injector = host.sim.injector
    session = host.session()
    try:
        export = yield from session.dlfm_call(src, api.ExportGroup(
            host.dbid, session.begin(), grp_id))
        if injector.enabled:
            injector.maybe_crash("shard.move:exported", host.db.name)
        new_epoch = int(export["epoch"] or 0) + 1
        yield from session.dlfm_call(dst, api.ImportGroup(
            host.dbid, session.begin(), grp_id,
            export["group_row"], export["file_rows"], new_epoch))
        if injector.enabled:
            injector.maybe_crash("shard.move:imported", host.db.name)
        changed = yield from session.execute(
            "UPDATE dlk_shardmap SET shard = ?, epoch = ? WHERE grp_id = ?",
            (dst, new_epoch, grp_id))
        if changed != 1:
            raise DataLinkError(
                f"group {grp_id} has no shard-map row to flip")
        if injector.enabled:
            injector.maybe_crash("shard.move:mapped", host.db.name)
        yield from session.commit()
    except ReproError:
        # rollback() is a no-op when commit() already aborted everything
        # (or the host db crashed under us — restart recovery owns it).
        yield from session.rollback()
        raise
    finally:
        session.close()
        if session.session.txn is not None and not host.db.crashed:
            # Only a caller killed mid-move gets here with the
            # transaction still open (its wait for a reply a partition
            # dropped never ended). Nobody else holds this session.
            host.sim.spawn(_roll_back_orphan(session),
                           f"move-{grp_id}-orphaned")
    shard_map._cache[grp_id] = (dst, new_epoch)
    return {"moved": True, "src": src, "dst": dst, "epoch": new_epoch,
            "files": len(export["file_rows"])}


def _roll_back_orphan(session):
    """Generator (detached): the rollback a killed caller cannot run."""
    try:
        yield from session.rollback()
    except ReproError:
        pass  # the host crashed meanwhile: restart recovery owns it
    finally:
        session.close()
