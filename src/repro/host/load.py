"""The LOAD utility: bulk-link many files with periodic local commits.

The paper (§4): "Load and reconcile utilities tend to run for a long
time and involve large number of link/unlink operations. Like any other
long running transactions, there is potential for running out of system
resources such as log file or lock table entry. Since very long running
transactions are always triggered by database utilities that can be
broken into pieces (undo of completed piece is not needed in case of the
utility failure), we put intelligence in DLFM to recognize such
transactions and to do local commit after finishing processing of each
piece."

:class:`LoadUtility` ingests (row, url) pairs in pieces under ONE long
utility transaction, coordinated by one
:class:`~repro.host.session.HostSession`. Each piece inserts its rows in
a host transaction of its own, ships its links as one
:class:`~repro.dlfm.api.Batch` per server and hardens them with
:class:`~repro.dlfm.api.CommitPiece` (the DLFM keeps an ``in-flight``
entry from the first piece on). A crash mid-load is *resumed*
(already-linked files are skipped), not undone. The load ends in the
session's ordinary COMMIT: Prepare only hardens the tail and votes —
the entry stays ``in-flight``, so no resolver can presume-abort
completed pieces — the decision rides the utility transaction's COMMIT
record, and phase 2 runs takeover/archiving for every piece's files.
Index maintenance on the target table is deferred to one sorted
bottom-up build at the end (DB2's LOAD build phase).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dlfm import api
from repro.errors import DataLinkError, LinkError
from repro.host.datalink import shadow_column


@dataclass
class LoadStats:
    linked: int = 0
    skipped: int = 0
    rows_inserted: int = 0
    pieces: int = 0
    batches: int = 0
    #: Index entries folded in by the end-of-load bulk build.
    bulk_merged: int = 0
    resumed: bool = False


class LoadUtility:
    """One bulk ingest into one datalink table."""

    def __init__(self, host, table: str, column: str,
                 entries: list[tuple[dict, str]], piece_size: int = 100):
        """``entries``: list of (column-values dict, url) pairs."""
        self.host = host
        self.table = table
        self.column = column
        self.entries = list(entries)
        self.piece_size = piece_size
        self.stats = LoadStats()
        if column not in host.datalink_columns.get(table, {}):
            raise DataLinkError(
                f"{table}.{column} is not a DATALINK column")
        #: The utility transaction's coordinator. The id is allocated up
        #: front and the transaction kept open so it stays monotone
        #: w.r.t. regular transactions.
        self.session = host.session()
        self.txn_id = self.session.begin()
        self._position = 0
        #: The current piece's prepared statements (the upsert trio
        #: executes once per file: prepare once, execute many).
        self._prepared: dict[str, object] = {}

    def run(self):
        """Generator: ingest everything, then commit the utility
        transaction. Returns LoadStats."""
        self.host.db.begin_bulk_load(self.table)
        try:
            while self._position < len(self.entries):
                yield from self._load_piece()
        finally:
            # Merge even on failure: earlier pieces are committed and
            # their rows must become index-visible (resume semantics —
            # only the failing piece's host transaction rolled back, and
            # undo already dropped its deferred entries).
            self.stats.bulk_merged = yield from (
                self.host.db.end_bulk_load(self.table))
        yield from self._finish()
        return self.stats

    def resume(self):
        """Generator: continue after a crash under the SAME transaction
        id. Every earlier participant still takes part in the final
        commit, but its fresh agent knows nothing of the transaction:
        BeginTxn re-opens it and CommitPiece (a no-op on the existing
        ``in-flight`` entry) marks the agent a writer, so its Prepare
        cannot vote read-only and drop out of phase 2."""
        self.stats.resumed = True
        self.session.close()
        for server in sorted(self.session.participants):
            for verb in (api.BeginTxn, api.CommitPiece):
                yield from self.session.send_control(
                    server, verb(self.host.dbid, self.txn_id))
        return (yield from self.run())

    def _load_piece(self):
        session = self.host.db.session()
        self._prepared = {}
        try:
            yield from self._load_piece_inner(session)
        except Exception:
            # Abandoning an open host transaction would leak its locks;
            # the DLFM side keeps its committed pieces (resume semantics).
            yield from session.rollback()
            raise

    def _load_piece_inner(self, session):
        piece = self.entries[self._position:
                             self._position + self.piece_size]
        per_server: dict[str, list] = {}
        for values, url in piece:
            [(server, req)] = self.session.build_ops(
                api.LinkFile, self.table, self.column, url)
            per_server.setdefault(server, []).append((req, values, url))
        landed = set()   # where the links went: a stale route re-sends
        for server in sorted(per_server):
            linked = entries = per_server[server]
            try:
                # A piece travels as one Batch under either wire shape.
                server, _, _ = yield from self.session.ship(
                    server, [req for req, _, _ in entries], batch=True)
                self.stats.batches += 1
            except LinkError:
                # Resume case: a file of the batch is already linked by
                # a pre-crash piece (under its ORIGINAL recovery id,
                # which the host row of that piece carries). The agent
                # compensated the batch whole; redo this server's links
                # one at a time so each such file is skipped and counted.
                linked = []
                for entry in entries:
                    try:
                        server, _, _ = yield from self.session.ship(
                            server, [entry[0]], batch=False)
                        linked.append(entry)
                    except LinkError:
                        self.stats.skipped += 1
            landed.add(server)
            self.stats.linked += len(linked)
            for req, values, url in linked:
                yield from self._upsert_row(session, values, url,
                                            req.recovery_id)
        # The host piece commit precedes CommitPiece: a crash in between
        # leaves rows whose links are redone under fresh recovery ids.
        yield from session.commit()
        for server in sorted(landed):
            yield from self.session.send_control(server, api.CommitPiece(
                self.host.dbid, self.txn_id))
        self.stats.pieces += 1
        self._position += len(piece)

    def _statement(self, session, sql: str):
        """Generator: ``sql`` prepared once per piece session."""
        stmt = self._prepared.get(sql)
        if stmt is None:
            stmt = self._prepared[sql] = yield from session.prepare(sql)
        return stmt

    def _upsert_row(self, session, values, url, recovery_id):
        # Idempotent host insert: a crash between the host piece commit
        # and the DLFM piece commit leaves the row behind while the link
        # was redone with a fresh recovery id — keep the shadow column in
        # sync either way.
        probe = yield from self._statement(
            session,
            f"SELECT COUNT(*) FROM {self.table} WHERE {self.column} = ?")
        existing = yield from probe.execute((url,))
        if existing.scalar() == 0:
            columns = list(values) + [self.column,
                                      shadow_column(self.column)]
            placeholders = ", ".join("?" for _ in columns)
            insert = yield from self._statement(
                session,
                f"INSERT INTO {self.table} ({', '.join(columns)}) "
                f"VALUES ({placeholders})")
            yield from insert.execute(
                tuple(values.values()) + (url, recovery_id))
            self.stats.rows_inserted += 1
        else:
            update = yield from self._statement(
                session,
                f"UPDATE {self.table} SET "
                f"{shadow_column(self.column)} = ? WHERE "
                f"{self.column} = ?")
            yield from update.execute((recovery_id, url))

    def _finish(self):
        """Generator: the utility transaction's 2PC, then hang up."""
        yield from self.session.commit()
        self.session.close()
