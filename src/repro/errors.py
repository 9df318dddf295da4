"""Exception hierarchy shared across the repro stack.

The DAOS layers raise :class:`DaosError` subclasses carrying errno-style
codes mirroring the real libdaos/DFS return values; the POSIX-like layers
(DFuse, Lustre) translate them into :class:`OSError`-alikes so that code
written against the VFS abstraction behaves like code written against a
kernel filesystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """run() ran out of events while tasks were still waiting."""


class NetworkError(ReproError):
    """Fabric/flow-model failures (unknown node, link down, ...)."""


class ConsensusError(ReproError):
    """Raft-level failures (no leader, not leader, stale term, ...)."""


class NotLeaderError(ConsensusError):
    """A client sent a write to a replica that is not the current leader."""

    def __init__(self, hint: int | None):
        super().__init__(f"not the raft leader (hint={hint})")
        #: best-effort id of the actual leader, or None if unknown
        self.hint = hint


class MpiError(ReproError):
    """Simulated-MPI misuse (rank out of range, mismatched collective...)."""


class DaosError(ReproError):
    """Base for object-store errors; carries a DER_* style code."""

    code = "DER_MISC"

    def __init__(self, msg: str = ""):
        super().__init__(f"{self.code}: {msg}" if msg else self.code)


class DerNonexist(DaosError):
    """Entity (pool, container, object, key, path) does not exist."""

    code = "DER_NONEXIST"


class DerExist(DaosError):
    """Entity already exists."""

    code = "DER_EXIST"


class DerInval(DaosError):
    """Invalid argument."""

    code = "DER_INVAL"


class DerNoPerm(DaosError):
    """Permission denied."""

    code = "DER_NO_PERM"


class DerBusy(DaosError):
    """Resource busy (e.g. destroying an open container)."""

    code = "DER_BUSY"


class DerNotDir(DaosError):
    """Path component is not a directory."""

    code = "DER_NOTDIR"


class DerIsDir(DaosError):
    """File operation attempted on a directory."""

    code = "DER_ISDIR"


class DerNoSpace(DaosError):
    """Target out of space."""

    code = "DER_NOSPACE"


class DerTimedOut(DaosError):
    """RPC or operation timed out."""

    code = "DER_TIMEDOUT"


class DerCanceled(DaosError):
    """Operation aborted before completion (``daos_event_abort``)."""

    code = "DER_CANCELED"


class DerStale(DaosError):
    """Client pool-map version is older than the server's.

    Raised by engines fencing mutating I/O: a writer holding a stale map
    could route around a target that has since come back (or into one
    that has since left), so the server rejects the op and the client
    refreshes its map and retries — exactly the DER_STALE dance libdaos
    performs.
    """

    code = "DER_STALE"


class DerDataLoss(DaosError):
    """Data unreachable: every replica/shard holding a range is excluded
    or failed (degraded mode past the object class's redundancy)."""

    code = "DER_DATA_LOSS"


class CacheWritebackError(ReproError):
    """Unflushed write-behind data could not be committed to the store.

    Raised by ``fsync``/``close`` on a cached file when a flush fails
    (e.g. the serving engine crashed mid-outage): the caller learns
    exactly which byte ranges are still pending instead of silently
    losing them. The buffer keeps the data, so a later ``fsync`` after
    recovery retries the flush.
    """

    def __init__(self, path: str, pending: list, cause: Exception):
        lost = sum(n for _off, n in pending)
        super().__init__(
            f"{path}: {lost} dirty bytes in {len(pending)} extent(s) "
            f"not flushed ({cause})"
        )
        #: file the data belongs to
        self.path = path
        #: [(offset, nbytes), ...] of the still-dirty extents
        self.pending = list(pending)
        #: total unflushed bytes
        self.lost_bytes = lost
        #: the underlying storage error that failed the flush
        self.cause = cause


class FsError(ReproError):
    """POSIX-layer error with an errno-style symbolic code."""

    def __init__(self, errno_name: str, msg: str):
        super().__init__(f"[{errno_name}] {msg}")
        self.errno_name = errno_name


def fs_error_from_daos(err: DaosError, msg: str) -> FsError:
    """Translate a DAOS error into the equivalent POSIX errno for VFS users."""
    mapping = {
        "DER_NONEXIST": "ENOENT",
        "DER_EXIST": "EEXIST",
        "DER_INVAL": "EINVAL",
        "DER_NO_PERM": "EACCES",
        "DER_BUSY": "EBUSY",
        "DER_NOTDIR": "ENOTDIR",
        "DER_ISDIR": "EISDIR",
        "DER_NOSPACE": "ENOSPC",
        "DER_TIMEDOUT": "ETIMEDOUT",
        "DER_DATA_LOSS": "EIO",
    }
    return FsError(mapping.get(err.code, "EIO"), msg)
