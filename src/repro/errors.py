"""Exception hierarchy shared across the reproduction.

Every layer raises subclasses of :class:`ReproError` so callers can catch
failures from the whole stack with one except clause while still being able
to discriminate (e.g. a :class:`DeadlockError` is retried by DLFM's phase-2
logic, a :class:`LogFullError` aborts a long utility transaction).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------

class SimError(ReproError):
    """Misuse of the simulation kernel (bad yield, dead process, ...)."""


class ChannelClosed(SimError):
    """Send or receive on a closed channel."""


class ChannelTimeout(SimError):
    """A channel send/receive timed out before a peer arrived."""


# --------------------------------------------------------------------------
# minidb — the embedded RDBMS used as DLFM's (and the host's) local store
# --------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for errors raised by the minidb engine."""


class TransactionAborted(DatabaseError):
    """The transaction was rolled back and must not issue further work.

    Carries ``reason`` so benchmarks can distinguish deadlock victims from
    timeout victims from user-initiated rollbacks.
    """

    def __init__(self, message: str, reason: str = "user"):
        super().__init__(message)
        self.reason = reason


class DeadlockError(TransactionAborted):
    """This transaction was chosen as a deadlock victim."""

    def __init__(self, message: str):
        super().__init__(message, reason="deadlock")


class LockTimeoutError(TransactionAborted):
    """A lock request waited longer than the configured lock timeout."""

    def __init__(self, message: str):
        super().__init__(message, reason="timeout")


class LogFullError(TransactionAborted):
    """The bounded write-ahead log ran out of space (DB2 'log full')."""

    def __init__(self, message: str):
        super().__init__(message, reason="logfull")


class DuplicateKeyError(DatabaseError):
    """Insert violated a unique index."""


class CatalogError(DatabaseError):
    """Unknown table/index/column, duplicate DDL, or invalid statistics."""


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be lexed or parsed."""


class SQLTypeError(DatabaseError):
    """Expression/parameter typing error during planning or execution."""


class CrashedError(DatabaseError):
    """Operation attempted against a crashed (not yet restarted) database."""


# --------------------------------------------------------------------------
# File system / DLFF / archive
# --------------------------------------------------------------------------

class FileSystemError(ReproError):
    """Base class for simulated file-system failures."""


class TransientIOError(FileSystemError):
    """Injected transient I/O fault (repro.chaos); retrying may succeed."""


#: Failures a retry loop (phase-2, delete-group draining) recovers from
#: by retrying: local aborts plus transient transport and I/O faults.
#: Crashes are deliberately absent — a crashed node cannot be retried
#: into health; its work resumes after restart.
RETRIABLE_FAULTS = (TransactionAborted, TransientIOError, ChannelTimeout)


class FileNotFound(FileSystemError):
    pass


class FileExists(FileSystemError):
    pass


class PermissionDenied(FileSystemError):
    """Operation rejected: unix permission check or DLFF constraint."""


class LinkedFileError(PermissionDenied):
    """DLFF rejected rename/delete/move of a file linked to a database."""


class ArchiveError(ReproError):
    """Archive server failure (missing version, double delete, ...)."""


# --------------------------------------------------------------------------
# DataLinks (host engine + DLFM)
# --------------------------------------------------------------------------

class DataLinkError(ReproError):
    """Base class for datalink engine / DLFM protocol errors."""


class LinkError(DataLinkError):
    """LinkFile failed (already linked, file missing, group mismatch...)."""


class UnlinkError(DataLinkError):
    """UnlinkFile failed (not linked, wrong transaction, ...)."""


class StaleRouteError(DataLinkError):
    """A routed request reached a shard whose group epoch disagrees.

    Raised by a DLFM shard when a forwarded op carries a ``route_epoch``
    that does not match its ``dfm_group`` row (or the group is not here
    at all): the host's shard-map cache is stale — typically a
    ``move_group`` committed since the route was cached. The router
    reloads the map from the catalog and retries; the error never
    aborts the host transaction."""


class TwoPCProtocolError(DataLinkError):
    """Out-of-order or unknown-transaction 2PC verb."""


class AccessTokenError(DataLinkError):
    """A file open under full access control carried a bad or missing token."""
