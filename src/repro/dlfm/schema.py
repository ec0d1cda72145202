"""DLFM metadata schema in the local database (paper §3.1).

Five SQL tables:

* ``dfm_file`` — one entry per (linked or unlinked) file version. The
  **check-flag trick** (§3.2): a unique index on ``(filename,
  check_flag)`` where ``check_flag = '0'`` while linked and
  ``check_flag = recovery_id`` once unlinked permits at most ONE linked
  entry per file while allowing many unlinked ones, closing the
  check-then-insert race between child agents.
* ``dfm_group`` — file groups (one per datalink column of a host table),
  needed to unlink everything when a host SQL table is dropped.
* ``dfm_txn`` — transaction table for 2PC: entries appear at *prepare*
  (or at the first batched local commit of a long utility, marked
  ``in-flight``). Its ``work`` column names the kinds of work the
  transaction did (:data:`WORK_KINDS`, comma-joined), so phase-2 Commit
  runs only the sweeps that can find something — on any session, after
  a restart or from the host's poller. A row with no value (a utility's
  in-flight row) runs every sweep.
* ``dfm_archive`` — pending copy work for the Copy daemon; kept separate
  from ``dfm_file`` exactly as the paper says, "to avoid contention in
  the main metadata table" and to restart copying cheaply.
* ``dfm_backup`` — host backup cycles, for retention-driven GC.

The multiple secondary indexes on ``dfm_file`` are faithful to the paper
— they are what made next-key locking deadlock-prone (E3). Every index
is some plan's access path (``tests/dlfm/test_schema_plans.py``): an
index no plan reads only adds an entry to every write of its table.
For the same reason ``dfm_file_unlink_txn`` is ``EXCLUDE NULL KEYS``: a
linked entry's ``unlink_txn`` is NULL, and no text can reach a NULL key
(``= ?`` never matches NULL), so a link writes no entry there.
"""

from __future__ import annotations

#: check_flag value of a *linked* entry (the paper sets it "to zero").
LINKED_FLAG = "0"

#: dfm_file.state values.
ST_LINKED = "linked"          # forward-processed link, or committed link
ST_UNLINKING = "unlinking"    # delayed-update mark: unlink awaiting phase 2
ST_UNLINKED = "unlinked"      # committed unlink, kept for point-in-time restore

#: dfm_group.state values.
GRP_ACTIVE = "active"
GRP_DELETED = "deleted"
#: Rebalance (repro.shard) delayed-update marks: the move transaction
#: holds the group in these states between prepare and phase 2. Commit
#: deletes a moving-out group (rows now live on the destination shard)
#: and activates a moving-in one; abort restores/deletes respectively.
GRP_MOVING_OUT = "moving-out"
GRP_MOVING_IN = "moving-in"

#: dfm_txn.state values.
TXN_PREPARED = "prepared"
TXN_COMMITTED = "committed"   # retained only while delete-group work remains
TXN_INFLIGHT = "in-flight"    # long utility with batched local commits

#: Kinds of work a transaction does at a DLFM, as ``dfm_txn.work``
#: records them: LinkFile, UnlinkFile, DeleteGroup, RegisterGroup, and
#: ExportGroup/ImportGroup (a rebalance move).
WORK_LINK = "link"
WORK_UNLINK = "unlink"
WORK_DELETE = "delete"
WORK_REGISTER = "register"
WORK_MOVE = "move"
WORK_KINDS = (WORK_LINK, WORK_UNLINK, WORK_DELETE, WORK_REGISTER, WORK_MOVE)

DDL = [
    """CREATE TABLE dfm_file (
        filename TEXT, dbid TEXT, grp_id INT, recovery_id TEXT,
        link_txn INT, unlink_txn INT, unlink_recovery_id TEXT,
        unlink_time FLOAT, state TEXT, check_flag TEXT,
        access_ctl TEXT, recovery TEXT,
        orig_owner TEXT, orig_group TEXT, orig_mode INT,
        archived INT)""",
    "CREATE UNIQUE INDEX dfm_file_name_flag ON dfm_file (filename, check_flag)",
    "CREATE INDEX dfm_file_link_txn ON dfm_file (dbid, link_txn)",
    "CREATE INDEX dfm_file_unlink_txn ON dfm_file (dbid, unlink_txn) "
    "EXCLUDE NULL KEYS",
    "CREATE INDEX dfm_file_grp ON dfm_file (grp_id, state)",
    """CREATE TABLE dfm_group (
        grp_id INT, dbid TEXT, table_name TEXT, column_name TEXT,
        state TEXT, delete_txn INT, delete_time FLOAT, expires_at FLOAT,
        epoch INT)""",
    "CREATE UNIQUE INDEX dfm_group_id ON dfm_group (dbid, grp_id)",
    "CREATE INDEX dfm_group_txn ON dfm_group (dbid, delete_txn)",
    """CREATE TABLE dfm_txn (
        dbid TEXT, txn_id INT, state TEXT, prepare_time FLOAT,
        groups_deleted INT, work TEXT)""",
    "CREATE UNIQUE INDEX dfm_txn_id ON dfm_txn (dbid, txn_id)",
    """CREATE TABLE dfm_archive (
        filename TEXT, recovery_id TEXT, state TEXT, enqueued_at FLOAT)""",
    "CREATE UNIQUE INDEX dfm_archive_key ON dfm_archive (filename, recovery_id)",
    """CREATE TABLE dfm_backup (
        backup_id INT, dbid TEXT, recovery_id TEXT, backup_time FLOAT)""",
    "CREATE UNIQUE INDEX dfm_backup_id ON dfm_backup (backup_id, dbid)",
]

#: The Reconcile utility's temp table of the host's references (§3.4).
RECONCILE_DDL = ("CREATE TABLE temp_reconcile (filename TEXT, "
                 "recovery_id TEXT, grp_id INT, access_ctl TEXT, recovery TEXT)")

#: Hand-crafted statistics (the paper's utility): large cardinalities and
#: near-unique key columns force index access paths for every probe,
#: regardless of what RUNSTATS would say about a small/empty table.
PINNED_STATS = {
    "dfm_file": dict(card=1_000_000, npages=40_000, colcard={
        "filename": 1_000_000, "check_flag": 2, "link_txn": 200_000,
        "unlink_txn": 200_000, "grp_id": 1_000, "state": 3, "dbid": 10,
        "recovery_id": 1_000_000}),
    "dfm_group": dict(card=10_000, npages=400, colcard={
        "grp_id": 10_000, "state": 2, "delete_txn": 5_000}),
    "dfm_txn": dict(card=100_000, npages=4_000, colcard={
        "dbid": 10, "txn_id": 100_000, "state": 3}),
    "dfm_archive": dict(card=100_000, npages=4_000, colcard={
        "filename": 100_000, "recovery_id": 100_000, "state": 2}),
    "dfm_backup": dict(card=1_000, npages=40, colcard={
        "backup_id": 1_000, "dbid": 10}),
}


def create_schema(db, sim) -> None:
    """Run the DDL against a fresh local database."""
    def go():
        session = db.session()
        for statement in DDL:
            yield from session.execute(statement)
        yield from session.commit()
    sim.run_process(go(), "dlfm-ddl")


def pin_statistics(db) -> int:
    """Apply the hand-crafted statistics; returns how many were (re)set.

    Also the guard re-invoked when DLFM detects that a user RUNSTATS
    overwrote them (lesson §4): statistics version bumps invalidate bound
    plans, so the next execution re-optimizes with the pinned numbers.
    """
    applied = 0
    for table, spec in PINNED_STATS.items():
        stats = db.catalog.stats_for(table)
        if not stats.manual:
            db.set_table_stats(table, **spec)
            applied += 1
    return applied


def statistics_are_pinned(db) -> bool:
    return all(db.catalog.stats_for(t).manual for t in PINNED_STATS)
