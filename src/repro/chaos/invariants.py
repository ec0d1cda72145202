"""Cross-layer invariant checking (chaos oracle).

After a campaign round has quiesced — every node restarted and
recovered, all daemons drained, no in-flight transactions — the whole
deployment must be in a *clean* state: the host's DATALINK columns, each
DLFM's metadata tables, the file servers' namespace/ownership bits and
the archive contents all agree. :func:`check_invariants` cross-checks
them and returns the violations found.

The checker is an out-of-band oracle: it reads engine state directly
(``Database.table_rows``, ``FileSystem._files``) rather than going
through sessions, so it can never deadlock with the system under test
and never perturbs its RNG streams.

Violation codes (also documented in DESIGN.md §10):

==========================  ====================================================
``node-down``               a database is still crashed at check time
``dangling-host-ref``       DATALINK value with no ST_LINKED DLFM entry
``linked-file-missing``     ST_LINKED entry but the file is gone
``linked-not-protected``    linked file missing takeover ownership/read-only
``orphan-linked-entry``     ST_LINKED entry no host row references
``linked-in-dead-group``    ST_LINKED entry in a deleted/unknown group
``stale-write-protection``  file owned by the DLFM admin with no linked entry
``unresolved-delayed-update`` ST_UNLINKING row survived quiesce
``orphan-indoubt-txn``      prepared dfm_txn row with no host decision
``unfinished-commit-work``  committed/in-flight dfm_txn row after quiesce
``stale-decision-row``      host decision with no prepared DLFM txn behind it
``unresolved-deleted-group`` group still in state 'deleted' after quiesce
``unarchived-pending``      dfm_archive row survived quiesce
``missing-archive-copy``    archived=1 entry with no archive copy
``leaked-txn``              active (never-prepared) transaction after quiesce
``leaked-locks``            lock table non-empty with no transactions
``unresolved-moving-group`` group still moving-out/moving-in after quiesce
``ambiguous-group-ownership`` sharded: group active on several shards, on the
                            wrong shard, or at an epoch the catalog disagrees
                            with
``unrouted-group``          sharded: catalog row with no active group behind
                            it, or an active group no catalog row routes to
``unreplayed-page``         a live database still has pages waiting for lazy
                            replay (its log stays pinned below them), or
                            checkpoint index-image pages restart never read
``forget-before-durable``   the host forgot a decision whose phase-2 COMMIT
                            is still in a DLFM's unforced log tail
``page-ahead-of-log``       a durable page carries an LSN past the durable
                            log (a page write broke the WAL rule)
==========================  ====================================================

``forget-before-durable`` is also checked at every DLFM crash of a
campaign, just before the tail is lost (:func:`check_forgets`): that is
the moment the mistake turns into damage — the transaction comes back
prepared, no decision is left, and presumed abort undoes a commit.
``page-ahead-of-log`` is checked at every crash point a database of a
campaign passes, fired or not (:func:`check_wal_rule`, through
``FaultInjector.watch``): a crash there would lose records such a page
needs to be undone or redone, and the window closes at the next force.

Decision bookkeeping (``stale-decision-row``, ``orphan-indoubt-txn``)
reads the one decision store: the unforgotten decisions carried on the
host's COMMIT records (``host.decision_rows()``). Shards of a sharded
fleet share one file server, so the
host-ref ↔ linked-entry and write-protection cross-checks run per file
server against the union of its DLFMs' metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dlff.filter import DLFM_ADMIN
from repro.dlfm import schema
from repro.errors import DataLinkError
from repro.fs.filesystem import READ_ONLY
from repro.host.datalink import parse_url, shadow_column
from repro.minidb import wal as walmod
from repro.minidb.txn import TxnState


@dataclass(frozen=True)
class Violation:
    code: str     # stable identifier, see module docstring
    node: str     # node the evidence lives on ("host", "fs1", ...)
    detail: str   # human-readable specifics

    def to_doc(self) -> dict:
        return {"code": self.code, "node": self.node, "detail": self.detail}


def _rows(db, table: str) -> list[dict]:
    """Whole table as column-name dicts (robust to column reordering)."""
    names = db.catalog.tables[table].column_names
    return [dict(zip(names, row)) for row in db.table_rows(table)]


def check_invariants(system) -> list["Violation"]:
    """Cross-check host ↔ DLFMs ↔ file servers ↔ archive; return violations."""
    out: list[Violation] = []

    downs = _check_nodes_up(system, out)
    host_refs = _collect_host_refs(system, out)
    for name in sorted(system.dlfms):
        if name in downs or system.host.db.crashed:
            continue  # can't cross-check against a crashed side
        _check_dlfm(system, name, host_refs, out)
        out.extend(check_forgets(system, name))
    _check_fs_crosslinks(system, downs, host_refs, out)
    if not system.host.db.crashed:
        _check_host(system, downs, out)
        if getattr(system.host, "shard_map", None) is not None:
            _check_shard_catalog(system, downs, out)
    return out


# ---------------------------------------------------------------- node state

def _check_nodes_up(system, out: list) -> set:
    """``node-down``, and ``unreplayed-page`` — checked before anything
    scans a table, since a scan replays every page it touches."""
    downs = set()
    if system.host.db.crashed:
        out.append(Violation("node-down", "host",
                             f"host database {system.host.dbid} still down"))
    for name, dlfm in sorted(system.dlfms.items()):
        if dlfm.db.crashed:
            downs.add(name)
            out.append(Violation("node-down", name,
                                 f"DLFM database on {name} still down"))
    for name, db in [("host", system.host.db)] + [
            (name, dlfm.db) for name, dlfm in sorted(system.dlfms.items())]:
        out.extend(check_wal_rule(db, name))
        if db.replay_pending:
            out.append(Violation(
                "unreplayed-page", name,
                f"{len(db.replay_pending)} pages still wait for lazy replay"))
        for index, pages in db.cold_index_pages().items():
            out.append(Violation(
                "unreplayed-page", name,
                f"{pages} image pages of index {index} still unread"))
    return downs


def check_wal_rule(db, node: str) -> list["Violation"]:
    """``page-ahead-of-log``: no durable page of ``db`` may carry an LSN
    the durable log does not reach (steal, the page worker)."""
    durable = db.wal.flushed_upto
    return [Violation("page-ahead-of-log", node,
                      f"{table} page {page_no} is on disk at LSN {lsn}; "
                      f"{db.name}'s log is durable to {durable}")
            for table, page_no, lsn in sorted(db.disk.page_lsns())
            if lsn > durable]


# ---------------------------------------------------------------- host side

def _collect_host_refs(system, out: list):
    """Every live DATALINK value: (server, path) → (recid, table, column).

    Returns None when the host is down (cross-checks are skipped then).
    """
    host = system.host
    if host.db.crashed:
        return None
    refs: dict[tuple, tuple] = {}
    for table, dl_columns in sorted(host.datalink_columns.items()):
        tdef = host.db.catalog.tables.get(table)
        if tdef is None:
            continue  # dropped table with a stale registry entry
        rows = host.db.table_rows(table)
        for column in sorted(dl_columns):
            pos = tdef.position(column)
            shadow = tdef.position(shadow_column(column))
            for row in rows:
                url = row[pos]
                if url is None:
                    continue
                try:
                    server, path = parse_url(url)
                except DataLinkError:
                    out.append(Violation(
                        "dangling-host-ref", "host",
                        f"{table}.{column} holds malformed URL {url!r}"))
                    continue
                refs[(server, path)] = (row[shadow], table, column)
    return refs


def _check_host(system, downs: set, out: list) -> None:
    host = system.host
    # Presumed abort bookkeeping: a decision survives quiesce only if
    # phase 2 never finished — but then the DLFM must still hold a
    # prepared transaction for it (else the decision is garbage that
    # will re-drive phase 2 forever).
    for txn_id, server in sorted(host.decision_rows()):
        dlfm = system.dlfms.get(server)
        if dlfm is None or server in downs:
            continue
        prepared = any(
            r["txn_id"] == txn_id and r["state"] == schema.TXN_PREPARED
            for r in _rows(dlfm.db, "dfm_txn") if r["dbid"] == host.dbid)
        if not prepared:
            out.append(Violation(
                "stale-decision-row", "host",
                f"decision ({txn_id}, {server}) but {server} has no "
                f"prepared txn {txn_id}"))
    _check_engine_residue(host.db, "host", out)


def check_forgets(system, name: str) -> list["Violation"]:
    """``forget-before-durable`` for DLFM ``name``: phase 2 commits
    lazily, so the host may write FORGET only once the participant's
    phase-2 COMMIT is durable. Reads the DLFM's log — a local
    transaction committed in the unforced tail that took a ``dfm_txn``
    row of this host out of PREPARED is a phase 2 not yet durable — and
    the FORGET records the host still holds."""
    host, db = system.host, system.dlfms[name].db
    wal = db.wal
    lazy = {r.txn_id for r in wal.since(wal.flushed_upto)
            if r.kind == walmod.COMMIT}
    if not lazy:
        return []
    names = db.catalog.tables["dfm_txn"].column_names
    pending = set()
    for record in wal.records:
        if (record.txn_id in lazy and record.table == "dfm_txn"
                and record.kind in (walmod.UPDATE, walmod.DELETE)):
            row = dict(zip(names, record.before))
            if (row["dbid"] == host.dbid
                    and row["state"] == schema.TXN_PREPARED):
                pending.add(row["txn_id"])
    forgotten = {r.payload["txn"] for r in host.db.wal.records
                 if r.kind == walmod.FORGET}
    return [Violation("forget-before-durable", name,
                      f"host forgot txn {txn_id} while its phase-2 COMMIT "
                      f"is in {name}'s unforced log tail")
            for txn_id in sorted(pending & forgotten)]


# ---------------------------------------------------------------- DLFM side

def _check_dlfm(system, name: str, host_refs, out: list) -> None:
    dlfm = system.dlfms[name]
    host = system.host
    fs = dlfm.server.fs
    files = _rows(dlfm.db, "dfm_file")
    groups = {r["grp_id"]: r for r in _rows(dlfm.db, "dfm_group")
              if r["dbid"] == host.dbid}

    for row in files:
        path, state = row["filename"], row["state"]
        if state == schema.ST_LINKED:
            _check_linked_file(system, name, fs, row, groups, host_refs, out)
        elif state == schema.ST_UNLINKING:
            out.append(Violation(
                "unresolved-delayed-update", name,
                f"{path} still ST_UNLINKING (txn {row['unlink_txn']}) "
                f"after quiesce"))
        if (row["archived"] and not system.archive.has_copy(
                dlfm.server.name, path, row["recovery_id"])):
            out.append(Violation(
                "missing-archive-copy", name,
                f"{path}@{row['recovery_id']} marked archived but the "
                f"archive has no copy"))

    _check_dlfm_txns(system, name, dlfm, out)
    for row in sorted(groups.values(), key=lambda r: r["grp_id"]):
        if row["state"] == schema.GRP_DELETED:
            out.append(Violation(
                "unresolved-deleted-group", name,
                f"group {row['grp_id']} ({row['table_name']}."
                f"{row['column_name']}) still 'deleted' after quiesce"))
        elif row["state"] in (schema.GRP_MOVING_OUT, schema.GRP_MOVING_IN):
            out.append(Violation(
                "unresolved-moving-group", name,
                f"group {row['grp_id']} ({row['table_name']}."
                f"{row['column_name']}) still {row['state']!r} after "
                f"quiesce"))
    for row in _rows(dlfm.db, "dfm_archive"):
        out.append(Violation(
            "unarchived-pending", name,
            f"{row['filename']}@{row['recovery_id']} still pending "
            f"archive after quiesce"))
    _check_engine_residue(dlfm.db, name, out)


def _check_linked_file(system, name, fs, row, groups, host_refs, out) -> None:
    path = row["filename"]
    node = fs._files.get(path)
    if node is None:
        out.append(Violation(
            "linked-file-missing", name,
            f"{path} is ST_LINKED but missing from the file system"))
    else:
        full = row["access_ctl"] == "full"
        want_ro = full or row["recovery"] == "yes"
        if full and node.owner != DLFM_ADMIN:
            out.append(Violation(
                "linked-not-protected", name,
                f"{path} linked under full control but owned by "
                f"{node.owner!r}"))
        if want_ro and node.mode != READ_ONLY:
            out.append(Violation(
                "linked-not-protected", name,
                f"{path} must be read-only but has mode {oct(node.mode)}"))
    group = groups.get(row["grp_id"])
    if group is None or group["state"] != schema.GRP_ACTIVE:
        state = "missing" if group is None else repr(group["state"])
        out.append(Violation(
            "linked-in-dead-group", name,
            f"{path} is ST_LINKED in group {row['grp_id']} ({state})"))
        return  # a dead group has no host rows to cross-check against
    fs_name = system.dlfms[name].server.name
    if host_refs is not None and (fs_name, path) not in host_refs:
        out.append(Violation(
            "orphan-linked-entry", name,
            f"{path} is ST_LINKED (group {row['grp_id']}, "
            f"{group['table_name']}.{group['column_name']}) but no host "
            f"row references it"))


def _check_dlfm_txns(system, name, dlfm, out) -> None:
    host = system.host
    decisions = set()
    if not host.db.crashed:
        decisions = {txn_id for txn_id, server in host.decision_rows()
                     if server == name}
    for row in _rows(dlfm.db, "dfm_txn"):
        txn_id, state = row["txn_id"], row["state"]
        if state == schema.TXN_PREPARED:
            if not host.db.crashed and txn_id not in decisions:
                out.append(Violation(
                    "orphan-indoubt-txn", name,
                    f"txn {txn_id} prepared but the host holds no "
                    f"decision (presumed abort should have fired)"))
        else:
            out.append(Violation(
                "unfinished-commit-work", name,
                f"txn {txn_id} still {state!r} after quiesce"))


# ---------------------------------------------------------------- file-server side

def _check_fs_crosslinks(system, downs: set, host_refs, out: list) -> None:
    """Per-FILE-SERVER cross-checks: host refs must have an ST_LINKED
    entry behind them, and takeover ownership must be backed by one.

    These run against the union of all DLFMs mounted on a server: in a
    sharded fleet every shard shares one file server and any shard may
    own the entry, so judging a single shard's table would cry wolf.
    """
    if host_refs is None:
        return
    fleets: dict[str, list] = {}
    for name, dlfm in sorted(system.dlfms.items()):
        fleets.setdefault(dlfm.server.name, []).append(name)
    for fs_name, members in sorted(fleets.items()):
        if any(m in downs for m in members):
            continue  # partial view of the linked set: skip this server
        fs = system.dlfms[members[0]].server.fs
        linked: dict[str, list] = {}
        for member in members:
            for row in _rows(system.dlfms[member].db, "dfm_file"):
                if row["state"] == schema.ST_LINKED:
                    linked.setdefault(row["filename"], []).append(row)
        for (server, path), (recid, table, column) in sorted(
                host_refs.items()):
            if server != fs_name:
                continue
            match = linked.get(path, [])
            if not match:
                out.append(Violation(
                    "dangling-host-ref", fs_name,
                    f"{table}.{column} -> {path} has no ST_LINKED entry"))
            elif recid is not None and all(
                    r["recovery_id"] != recid for r in match):
                out.append(Violation(
                    "dangling-host-ref", fs_name,
                    f"{table}.{column} -> {path} recovery id {recid} "
                    f"matches no ST_LINKED entry"))
        # Takeover bits with no linked entry = protection leaked by a
        # half-done unlink (the release never ran and never will).
        for path, node in sorted(fs._files.items()):
            if node.owner == DLFM_ADMIN and path not in linked:
                out.append(Violation(
                    "stale-write-protection", fs_name,
                    f"{path} owned by {DLFM_ADMIN} with no ST_LINKED "
                    f"entry"))


# ---------------------------------------------------------------- shard catalog

def _check_shard_catalog(system, downs: set, out: list) -> None:
    """Sharded fleet: every group has exactly one active owner and the
    durable ``dlk_shardmap`` catalog routes to it at the same epoch."""
    if downs:
        return  # a down shard hides ownership; node-down already reported
    host = system.host
    catalog = {r["grp_id"]: (r["shard"], r["epoch"])
               for r in _rows(host.db, "dlk_shardmap")}
    owners: dict[int, list] = {}
    for name in sorted(system.dlfms):
        for row in _rows(system.dlfms[name].db, "dfm_group"):
            if row["dbid"] != host.dbid:
                continue
            if row["state"] not in (schema.GRP_ACTIVE, schema.GRP_MOVING_OUT,
                                    schema.GRP_MOVING_IN):
                continue  # deleted/emptied: dropped group awaiting GC
            owners.setdefault(row["grp_id"], []).append(
                (name, row["state"], row["epoch"]))
    for grp_id, (shard, epoch) in sorted(catalog.items()):
        entries = owners.get(grp_id, [])
        if any(s in (schema.GRP_MOVING_OUT, schema.GRP_MOVING_IN)
               for _, s, _ in entries):
            continue  # already reported as unresolved-moving-group
        active = [(n, e) for n, s, e in entries if s == schema.GRP_ACTIVE]
        if not active:
            out.append(Violation(
                "unrouted-group", "host",
                f"catalog routes group {grp_id} to {shard} (epoch "
                f"{epoch}) but no shard has it active"))
        elif len(active) > 1:
            out.append(Violation(
                "ambiguous-group-ownership", "host",
                f"group {grp_id} active on "
                f"{', '.join(n for n, _ in active)}"))
        else:
            (owner, gepoch), = active
            if owner != shard or gepoch != epoch:
                out.append(Violation(
                    "ambiguous-group-ownership", "host",
                    f"catalog routes group {grp_id} to {shard}@{epoch} "
                    f"but it is active on {owner}@{gepoch}"))
    for grp_id in sorted(set(owners) - set(catalog)):
        names = ", ".join(n for n, _, _ in owners[grp_id])
        out.append(Violation(
            "unrouted-group", "host",
            f"group {grp_id} lives on {names} but no catalog row "
            f"routes to it"))


# ---------------------------------------------------------------- engine residue

def _check_engine_residue(db, node: str, out: list) -> None:
    """Leaked transactions and locks inside one minidb engine."""
    active = db.txns.active
    stray = [t for t in active if t.state is not TxnState.PREPARED]
    for txn in stray:
        out.append(Violation(
            "leaked-txn", node,
            f"transaction {txn.id} still {txn.state.value} after quiesce"))
    if not active and db.locks.total_locks:
        out.append(Violation(
            "leaked-locks", node,
            f"{db.locks.total_locks} locks held with no live transactions"))
