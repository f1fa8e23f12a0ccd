"""Typed response envelopes for the service façade.

A response wraps today's result objects — the driver's
:class:`~repro.schedule.drivers.ScheduleOutcome` for a single loop, the
runner's :class:`~repro.eval.runner.SuiteResult` (with its per-program
:class:`~repro.eval.runner.BenchmarkResult` drill-down) for a suite —
with the request that produced it and a :class:`ResponseMeta` block:
the request fingerprint, whether the response was served from the
session's memo cache, the wall-clock cost of *this* call, and which
validation posture was applied.

The payload object is shared between a cache hit and the call that
populated the cache (results are immutable facts; re-running would
reproduce them bit-identically), so only the metadata differs between
repeated calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..eval.retry import ExecutionTelemetry, FailureReport
from ..eval.runner import SuiteResult
from ..schedule.drivers import ScheduleOutcome
from .requests import EvaluationRequest, ScheduleRequest
from .store import StoreTelemetry


@dataclass(frozen=True)
class ResponseMeta:
    """Provenance and cost metadata attached to every response."""

    #: The request's deterministic fingerprint (the memoization key).
    fingerprint: str
    #: Served from the session cache (no scheduling work was done).
    cache_hit: bool
    #: Wall-clock seconds this call took (near zero on a cache hit; for
    #: batched evaluations, the whole batch's wall clock — the pool runs
    #: the batch as one unit, so per-request attribution is meaningless).
    wall_seconds: float
    #: Worker processes the session ran the work on (1 = in-process).
    jobs: int
    #: Whether any validation pass ran on the produced schedules —
    #: ``verify``, ``full_recheck``, ``validate_each``, or explicit
    #: ``options`` with the engine cross-checks / driver revalidation
    #: turned on (``verify_pressure`` / ``validate_schedules``).
    validated: bool
    #: Frozen fault-tolerance telemetry for the batch that produced this
    #: response (attempts, retries, pool rebuilds, degraded chunks).  ``None`` on cache hits and on paths that did
    #: not go through the batch dispatcher; ``telemetry.clean`` is True
    #: when no fault-tolerance machinery had to engage.
    telemetry: Optional[ExecutionTelemetry] = None
    #: Content-addressed store counters at response time (``None`` when
    #: the session has no store attached).  ``store.hit`` says whether
    #: *this* response was served from the persistent store — distinct
    #: from :attr:`cache_hit`, which also covers the in-process memo.
    store: Optional[StoreTelemetry] = None


@dataclass(frozen=True)
class ScheduleResponse:
    """One scheduled loop: the outcome plus response metadata."""

    request: ScheduleRequest
    outcome: ScheduleOutcome
    meta: ResponseMeta

    def ipc(self) -> float:
        return self.outcome.ipc()


@dataclass(frozen=True)
class EvaluationResponse:
    """One (scheduler, suite, machine) evaluation plus metadata.

    Under the session's ``keep_going`` mode a response may be *partial*:
    loops that could not be scheduled are absent from the result and
    accounted for in :attr:`failures` instead.  Complete responses have
    an empty report and ``ok`` is True.
    """

    request: EvaluationRequest
    result: SuiteResult
    meta: ResponseMeta

    @property
    def average_ipc(self) -> float:
        return self.result.average_ipc

    @property
    def failures(self) -> FailureReport:
        """Every loop this evaluation lost (empty on complete runs)."""
        return FailureReport(failures=tuple(self.result.failures))

    @property
    def ok(self) -> bool:
        """True when every loop of the suite was scheduled."""
        return not self.result.failures
