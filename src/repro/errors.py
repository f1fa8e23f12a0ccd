"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the broad failure classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Malformed data dependence graph (unknown node, duplicate edge, ...)."""


class ConfigError(ReproError):
    """Invalid machine configuration (zero clusters, negative latency, ...)."""


class PartitionError(ReproError):
    """Partitioning failed or produced an inconsistent assignment."""


class SchedulingError(ReproError):
    """Modulo scheduling failed for every initiation interval tried."""


class ValidationError(ReproError):
    """An allegedly complete schedule violates a dependence or resource bound."""


class CodecError(ReproError):
    """An encoded request/response payload could not be decoded.

    Raised by :mod:`repro.service.codec` on malformed, truncated or
    wrong-schema payloads.  The result store deliberately converts this
    into a cache *miss* (and drops the entry) rather than letting it
    propagate — a corrupted store must never break a computation it was
    only meant to accelerate.
    """


class StoreError(ReproError):
    """A result store was misconfigured (bad path, non-positive budget)."""
