"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming from this package with a single ``except`` clause
while still being able to discriminate configuration problems from data
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidIntervalError(ReproError, ValueError):
    """An interval was constructed with ``start > end`` or non-finite bounds."""


class InvalidQueryError(ReproError, ValueError):
    """A time-travel IR query was malformed (bad interval or description)."""


class InvalidObjectError(ReproError, ValueError):
    """A temporal object was malformed (bad id, interval or description)."""


class DuplicateObjectError(ReproError, ValueError):
    """An object with an already-registered id was added to a collection."""


class UnknownObjectError(ReproError, KeyError):
    """An object id was looked up (e.g. for deletion) but is not indexed."""


class DomainError(ReproError, ValueError):
    """A timestamp falls outside the domain an index was configured for."""


class ConfigurationError(ReproError, ValueError):
    """An index or generator received inconsistent construction parameters."""


class EmptyCollectionError(ReproError, ValueError):
    """An operation that requires data was invoked on an empty collection."""


class CorruptSnapshotError(ReproError):
    """An index snapshot failed an integrity check (magic, header, length,
    payload checksum, or unpickling) and must not be trusted."""


class UnsupportedFormatError(ReproError):
    """An index snapshot names a format version this build does not read.

    Only the current version is read; older bytes are refused before
    anything is unpickled.  This is not damage (recovery does not fall back
    past it): rebuild the index from its source collection."""


class CorruptPostingsError(ReproError):
    """A compressed postings block failed to decode (a header without the
    block tag, a length that does not fit its widths and entry count, ids
    that do not ascend or miss the summary's range).  Mirrors the WAL's
    torn-tail discipline: damaged bytes surface as one typed error, never
    as ``IndexError`` or silently wrong entries."""


class StoreClosedError(ReproError):
    """A mutation or query was issued against a closed DurableIndexStore."""


class CorruptSegmentError(ReproError):
    """A cold-tier segment file failed an integrity check (magic, footer,
    header, a region's bounds or checksum, the columns' structure, or a
    term key that does not decode) and must not be served.  Every check
    but the last runs when the segment is opened."""


class ReadOnlySegmentError(ReproError):
    """A mutation reached an immutable cold-tier segment directly.  Cold
    shards promote back to the hot tier before accepting writes; only code
    that bypasses the tiering controller can hit this."""


class ClusterError(ReproError):
    """A shard-cluster operation failed (bad layout, routing mismatch)."""


class ShardUnavailableError(ClusterError):
    """Every replica of a shard refused to serve a read.

    Carries structured failure detail so routers and the network daemon
    can report *why* a shard is down instead of parsing a joined string:

    ``shard_id``
        The shard that refused, or ``None`` for pre-routing failures.
    ``replica_count``
        How many replicas the shard was configured with.
    ``failures``
        ``{replica_index: last exception message}`` for every replica
        that raised (dead-on-arrival replicas are absent).
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: "str | None" = None,
        replica_count: int = 0,
        failures: "dict[int, str] | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.replica_count = replica_count
        self.failures = dict(failures or {})

    def detail(self) -> "dict[str, object]":
        """A JSON-ready description of the failure (daemon error payloads)."""
        return {
            "shard_id": self.shard_id,
            "replica_count": self.replica_count,
            "failures": {str(k): v for k, v in sorted(self.failures.items())},
        }


class MetricError(ReproError, ValueError):
    """A metric was registered or used inconsistently (name clash with a
    different type/labels, wrong label set, malformed exposition input)."""


class LabelCardinalityError(MetricError):
    """A labelled metric family exceeded its configured label-set limit.

    Unbounded label values (object ids, raw timestamps, …) silently turn a
    fixed-cost registry into a memory leak; the guard makes that loud."""
