"""The Reconcile utility (paper §3.4).

After a point-in-time restore the host database's datalink values and a
DLFM's metadata can disagree. Reconcile walks every datalink column on
the host side, ships the authoritative (filename, recovery id) list to
each DLFM (which loads it into a temp table and EXCEPTs it against its
File table), and fixes both sides: missing links are re-established,
orphaned links released, and host rows whose files no longer exist have
their datalink value nulled.
"""

from __future__ import annotations

from collections import defaultdict

from repro.dlfm import api
from repro.host.datalink import shadow_column


def reconcile(host):
    """Generator: run the utility; returns a per-server summary."""
    coordinator = host.session()
    session = coordinator.session
    try:
        # 1. Collect the host's authoritative references per DLFM: a
        #    file belongs to whichever DLFM its group routes to (on a
        #    sharded fleet the URL names the shared file server only).
        per_server = defaultdict(list)
        locations = defaultdict(list)  # (server, path) → (table, col, url)
        for table, columns in sorted(host.datalink_columns.items()):
            for column, spec in sorted(columns.items()):
                rows = yield from session.execute(
                    f"SELECT {column}, {shadow_column(column)} "
                    f"FROM {table}")
                for url, recovery_id in rows:
                    if url is None:
                        continue
                    server, _, grp_id, path = coordinator.route(
                        table, column, url)
                    per_server[server].append(
                        (path, recovery_id, grp_id, spec.access_control,
                         spec.recovery_flag))
                    locations[(server, path)].append((table, column, url))
        yield from session.commit()

        # 2. Every DLFM reconciles against its authoritative slice.
        summary = {}
        fixers: dict = {}
        for server in sorted(host.dlfms):
            result = yield from coordinator.send_control(
                server, api.ReconcileFiles(
                    host.dbid, tuple(per_server.get(server, ()))))
            # 3. Dangling host references (file gone everywhere): null
            #    the datalink value so the database stops referencing a
            #    ghost. One prepared UPDATE per (table, column) shape —
            #    the per-row commits stay, the per-row re-prepare does
            #    not.
            nulled = 0
            for path in result["dangling"]:
                for table, column, url in locations.get((server, path), ()):
                    fixer = fixers.get((table, column))
                    if fixer is None:
                        fixer = yield from session.prepare(
                            f"UPDATE {table} SET {column} = NULL, "
                            f"{shadow_column(column)} = NULL "
                            f"WHERE {column} = ?")
                        fixers[(table, column)] = fixer
                    yield from fixer.execute((url,))
                    yield from session.commit()
                    nulled += 1
            result["nulled"] = nulled
            summary[server] = result
    finally:
        coordinator.close()
    return summary
