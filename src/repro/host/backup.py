"""Coordinated backup and restore utilities (paper §3.4).

Backup: take a recovery-id watermark, make every DLFM finish its pending
asynchronous archive copies (high priority) and record the backup cycle,
then snapshot the host database. The backup image remembers the watermark
and the involved file servers, as the paper describes.

Restore: put the host database back to the chosen image, then tell every
involved DLFM to reconcile its metadata against the watermark — files
linked before the backup and unlinked after come back to linked state
(retrieved from the archive server if missing on disk); files linked
after the backup are released.
"""

from __future__ import annotations

from repro.dlfm import api


def _broadcast(host, servers, req):
    """Generator: ``req`` to each of ``servers`` in turn over one
    coordinator session's channels; returns {server: reply}."""
    session = host.session()
    try:
        replies = {}
        for server in servers:
            replies[server] = yield from session.send_control(server, req)
    finally:
        session.close()
    return replies


def backup_database(host):
    """Generator: run a coordinated backup; returns the backup id."""
    backup_id = next(host._backup_counter)
    watermark = host.recovery_ids.watermark()
    replies = yield from _broadcast(
        host, sorted(host.dlfms),
        api.EnsureArchived(host.dbid, backup_id, watermark))
    image = host.db.backup_image()
    host.backups[backup_id] = {
        "image": image,
        "watermark": watermark,
        "servers": sorted(host.dlfms),
        "taken_at": host.sim.now,
        "archived": {server: reply["archived"]
                     for server, reply in replies.items()},
        "datalink_columns": {t: dict(c)
                             for t, c in host.datalink_columns.items()},
        "group_ids": dict(host.group_ids),
    }
    return backup_id


def restore_database(host, backup_id: int):
    """Generator: point-in-time restore to ``backup_id``; returns stats."""
    backup = host.backups[backup_id]
    host.db.restore_image(backup["image"])
    host.datalink_columns = {t: dict(c)
                             for t, c in backup["datalink_columns"].items()}
    host.group_ids = dict(backup["group_ids"])
    results = yield from _broadcast(
        host, backup["servers"],
        api.RestoreToBackup(host.dbid, backup["watermark"]))
    return results
