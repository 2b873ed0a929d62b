"""Exception hierarchy for the Inversion reproduction.

Every error raised by the library derives from :class:`ReproError`, split
into three families mirroring the system layers: the database substrate
(``Db*``), the Inversion file system (``Inv*``), and the simulated
hardware / baseline stacks (``Sim*``, ``Nfs*``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Database substrate errors
# ---------------------------------------------------------------------------


class DbError(ReproError):
    """Base class for storage-manager and query errors."""


class PageError(DbError):
    """A slotted page was asked to do something impossible (overflow,
    bad slot number, corrupt header)."""


class PageOverflowError(PageError):
    """Record does not fit on an 8 KB page."""


class TupleError(DbError):
    """Schema/serialization mismatch when packing or unpacking a record."""


class TableError(DbError):
    """Bad table operation (unknown table, duplicate creation, dropped)."""


class TransactionError(DbError):
    """Transaction misuse: commit/abort without begin, nested begin
    (neither POSTGRES 4.0.1 nor Inversion supports nested transactions),
    or writing outside a transaction."""


class TransactionAborted(TransactionError):
    """The current transaction was aborted (e.g. chosen as a deadlock
    victim) and must be rolled back by the client."""


class DeadlockError(TransactionAborted):
    """The lock manager's waits-for graph found a cycle and chose this
    transaction as the victim."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired within the configured timeout."""


class BTreeError(DbError):
    """Internal B-tree invariant violation."""


class CatalogError(DbError):
    """System-catalog inconsistency or unknown catalog object."""


class FunctionError(DbError):
    """User-defined function registration or invocation failure."""


class QueryError(DbError):
    """POSTQUEL parse or execution error."""


class QuerySyntaxError(QueryError):
    """The query text could not be parsed."""


class RecoveryError(DbError):
    """The database could not be brought to a consistent state on open."""


# ---------------------------------------------------------------------------
# Device manager errors
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """Base class for device-manager errors."""


class UnknownDeviceError(DeviceError):
    """The device manager switch has no entry for the requested device."""


class WormViolationError(DeviceError):
    """An overwrite was attempted on write-once (WORM) media."""


class DeviceFullError(DeviceError):
    """The device has no free space/extents left."""


class InjectedFaultError(DeviceError):
    """A transient or permanent I/O error injected by the fault-injection
    testkit (:mod:`repro.testkit.faults`).  Subclassing DeviceError means
    production code handles it exactly like a real device failure."""


class SimulatedCrashError(ReproError):
    """Raised by the testkit's :class:`~repro.testkit.faults.FaultyDevice`
    at a scheduled crash point, *instead of* performing a durable write.
    Deliberately NOT a DeviceError: nothing in the stack may catch and
    absorb it, so it unwinds to the crash-schedule explorer, which then
    discards volatile state and re-opens the database."""


# ---------------------------------------------------------------------------
# Inversion file system errors
# ---------------------------------------------------------------------------


class InversionError(ReproError):
    """Base class for file-system-level errors."""


class FileNotFoundError_(InversionError):
    """No such file or directory.  Trailing underscore avoids shadowing
    the builtin ``FileNotFoundError`` (which it also subclasses so that
    idiomatic ``except FileNotFoundError`` works)."""


class FileExistsError_(InversionError):
    """Path already exists."""


class NotADirectoryError_(InversionError):
    """A path component is not a directory."""


class IsADirectoryError_(InversionError):
    """Directory used where a plain file is required."""


class DirectoryNotEmptyError(InversionError):
    """rmdir on a non-empty directory."""


class BadFileDescriptorError(InversionError):
    """Operation on a closed or invalid file descriptor."""


class ReadOnlyFileError(InversionError):
    """Write attempted on a historical (time-travel) file handle, which
    the paper forbids: 'Historical files may not be opened for
    writing.'"""


class FileTooLargeError(InversionError):
    """Write would exceed the 17.6 TB Inversion file-size limit."""


class FileTypeError(InversionError):
    """Unknown file type, or a function was applied to a file whose type
    does not define it."""


class MigrationError(InversionError):
    """A migration rule is malformed or a migration failed."""


class StructuralOpError(InversionError):
    """A by-reference structural operation (reflink/concat/slice/
    truncate) was asked for boundaries it cannot honour: a non-chunk-
    aligned concat source or slice start, a slice range outside the
    file, or a negative truncate size."""


# ---------------------------------------------------------------------------
# Replication errors
# ---------------------------------------------------------------------------


class ReplicaError(ReproError):
    """Base class for log-shipping replication errors
    (:mod:`repro.replica`)."""


class ReplicaReadOnlyError(ReplicaError):
    """A mutating RPC (write, create, explicit transaction, query)
    reached a read-only replica.  Writers must go to the primary;
    :meth:`~repro.replica.server.ReplicaServer.promote` lifts the
    restriction after a failover."""


class FeedGapError(ReplicaError):
    """The replica's cursor points below the feed's retained window
    (the primary trimmed entries the replica never pulled, or the
    replica is *ahead* of a freshly promoted primary).  Incremental
    sync cannot proceed; the replica must be re-seeded with a new base
    backup."""


# ---------------------------------------------------------------------------
# Multi-session scheduler errors
# ---------------------------------------------------------------------------


class SchedError(ReproError):
    """Base class for deterministic multi-session scheduler errors."""


class SchedAdmissionError(SchedError):
    """Backpressure: the scheduler's in-flight limit is reached and its
    bounded admission queue is full, so a new session is refused rather
    than queued without bound."""


class SchedStalledError(SchedError):
    """The event loop found unfinished sessions but nothing runnable —
    a session program bug (e.g. a transaction left open with an empty
    request queue), surfaced instead of spinning forever."""


class SessionFailedError(SchedError):
    """A session exhausted its deadlock-victim retry budget (or raised
    a non-retryable error) and the scheduler ran in strict mode."""


# ---------------------------------------------------------------------------
# Simulation / baseline errors
# ---------------------------------------------------------------------------


class NfsError(ReproError):
    """Base class for the NFS/FFS baseline errors."""


class FfsError(NfsError):
    """Fast File System simulator error."""


class FfsFileTooLargeError(FfsError):
    """Write would exceed the FFS 4 GB practical file-size limit that the
    paper contrasts with Inversion's 17.6 TB."""
