"""Retry policy, failure classification and execution telemetry.

The parallel runner (:mod:`repro.eval.parallel`) classifies every
dispatch failure into one of two buckets and lets a
:class:`RetryPolicy` decide what happens next:

* **transient** — the worker process died (``BrokenProcessPool``,
  whether surfaced from a future or from ``executor.submit`` itself)
  or a chunk missed its deadline (a hung worker).  The work itself is
  presumed fine: the pool is rebuilt, outstanding chunks are
  resubmitted, and the failed chunk is retried with exponential backoff
  until its attempt budget runs out.
* **deterministic** — the task raised an exception *inside* the worker
  (the scheduler crashed on that loop's content).  Re-running would
  reproduce the same exception, so these fail fast: no retry, ever.

After :attr:`RetryPolicy.max_rebuilds` pool rebuilds the runner stops
trusting worker processes altogether and degrades to in-process
sequential execution for the remaining chunks — slow, but the batch
completes (results are bit-identical either way; the deterministic
merge does not care where an outcome was computed).

``keep_going`` mode (the CLI's ``--keep-going``) converts per-loop
failures — deterministic ones, and transient ones that exhausted their
budget — into :class:`LoopFailure` records collected on a
:class:`FailureReport` instead of aborting the batch; every loop that
could be scheduled still is.

:class:`RunTelemetry` counts what actually happened (attempts per
chunk, retries, rebuilds, deadline hits, degraded chunks); the service
session attaches a frozen :class:`ExecutionTelemetry` snapshot to each
response's :class:`~repro.service.responses.ResponseMeta` and the
``repro bench --json`` artifact records the session totals.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """How the parallel runner responds to transient execution faults.

    ``max_attempts`` bounds executions of one chunk (so deadline-driven
    retries of a genuinely hung task terminate); ``max_rebuilds`` bounds
    pool rebuilds per batch (so a crash loop terminates), after which
    ``fallback_sequential`` degrades the remaining chunks to in-process
    execution instead of aborting.  Backoff between retries is
    exponential with *deterministic* seeded jitter — two runs of the
    same plan back off identically, which the fault-injection property
    suites rely on.  ``deadline`` is the per-chunk wall-clock budget;
    ``None`` disables deadline enforcement (a hung worker then blocks,
    exactly like the pre-retry runner).

    The defaults are the production posture (retry transients, degrade
    rather than abort).  :meth:`none` is the legacy fail-fast posture
    the library entry points default to.
    """

    #: Executions allowed per chunk (1 = never retry).
    max_attempts: int = 3
    #: Base backoff delay in seconds before a retry.
    backoff_base: float = 0.05
    #: Exponential backoff multiplier per additional attempt.
    backoff_multiplier: float = 2.0
    #: Jitter fraction: the delay is scaled by ``1 + jitter * u`` with
    #: ``u`` drawn deterministically from ``seed`` and the retry token.
    jitter: float = 0.1
    #: Seed for the deterministic jitter stream.
    seed: int = 0
    #: Per-chunk wall-clock deadline in seconds (``None`` = no deadline).
    deadline: Optional[float] = None
    #: Pool rebuilds allowed per batch before degradation kicks in.
    max_rebuilds: int = 2
    #: After the rebuild budget: run remaining chunks in-process
    #: sequentially (True) or abort with a LoopTaskError (False).
    fallback_sequential: bool = True
    #: Sleep hook (tests inject a recorder; never part of identity).
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_rebuilds < 0:
            raise ReproError(
                f"max_rebuilds must be >= 0, got {self.max_rebuilds}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ReproError(
                f"deadline must be positive seconds, got {self.deadline}"
            )
        if self.backoff_base < 0 or self.backoff_multiplier < 1 or self.jitter < 0:
            raise ReproError("backoff parameters must be non-negative (multiplier >= 1)")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The legacy fail-fast posture: no retries, no rebuilds, no
        deadline — the first transient fault aborts the batch exactly as
        the pre-retry runner did."""
        return cls(
            max_attempts=1,
            backoff_base=0.0,
            deadline=None,
            max_rebuilds=0,
            fallback_sequential=False,
        )

    def backoff_seconds(self, token: object, attempt: int) -> float:
        """Delay before retry number ``attempt`` of ``token``.

        Deterministic: the jitter stream is seeded from
        ``(seed, token, attempt)``, so identical runs sleep identically.
        """
        return backoff_seconds(
            self.backoff_base,
            self.backoff_multiplier,
            self.jitter,
            self.seed,
            token,
            attempt,
        )


def backoff_seconds(
    base: float,
    multiplier: float,
    jitter: float,
    seed: int,
    token: object,
    attempt: int,
) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter stream is seeded from ``(seed, token, attempt)``, so two
    runs of the same plan back off identically — the property the
    fault-injection suites rely on.
    """
    if base <= 0:
        return 0.0
    delay = base * multiplier ** max(0, attempt - 1)
    if jitter > 0:
        u = random.Random(f"{seed}:{token}:{attempt}").random()
        delay *= 1.0 + jitter * u
    return delay


#: Failure-classification buckets (see the module docstring).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class LoopFailure:
    """One loop that could not be scheduled, with why and how hard we tried."""

    benchmark: str
    loop_name: str
    scheduler: str
    #: ``"deterministic"`` (the task raised) or ``"transient"`` (worker
    #: death / deadline, retry budget exhausted).
    kind: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.loop_name} [{self.scheduler}]: "
            f"{self.error_type}: {self.message} "
            f"({self.kind}, attempts={self.attempts})"
        )


@dataclass(frozen=True)
class FailureReport:
    """Structured account of every loop a ``keep_going`` run lost.

    Attached to :class:`~repro.service.responses.EvaluationResponse`
    envelopes; an *empty* report means keep-going was active and nothing
    failed (``ok`` is True).
    """

    failures: Tuple[LoopFailure, ...] = ()

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def loops(self) -> List[Tuple[str, str]]:
        """The failed (benchmark, loop) names, in merge order."""
        return [(f.benchmark, f.loop_name) for f in self.failures]

    def to_dict(self) -> dict:
        return {
            "failed_loops": len(self.failures),
            "failures": [
                {
                    "benchmark": f.benchmark,
                    "loop": f.loop_name,
                    "scheduler": f.scheduler,
                    "kind": f.kind,
                    "error_type": f.error_type,
                    "message": f.message,
                    "attempts": f.attempts,
                }
                for f in self.failures
            ],
        }

    def render(self) -> str:
        if not self.failures:
            return "no loop failures"
        lines = [f"FAILURES ({len(self.failures)} loops):"]
        lines.extend(f"  {f.describe()}" for f in self.failures)
        return "\n".join(lines)


@dataclass
class RunTelemetry:
    """Mutable counters one batch (or session) of dispatches fills in.

    ``chunk_attempts`` records each chunk's final execution count in
    submission order, so "attempts per chunk" is reconstructible; the
    scalar counters aggregate across chunks.  Sessions accumulate by
    :meth:`merge`; responses carry the frozen :meth:`freeze` snapshot.
    """

    chunks: int = 0
    attempts: int = 0
    retries: int = 0
    rebuilds: int = 0
    deadline_hits: int = 0
    degraded_chunks: int = 0
    failed_loops: int = 0
    chunk_attempts: List[int] = field(default_factory=list)

    def record_attempt(self, first: bool) -> None:
        self.attempts += 1
        if not first:
            self.retries += 1

    def merge(self, other: "RunTelemetry") -> None:
        self.chunks += other.chunks
        self.attempts += other.attempts
        self.retries += other.retries
        self.rebuilds += other.rebuilds
        self.deadline_hits += other.deadline_hits
        self.degraded_chunks += other.degraded_chunks
        self.failed_loops += other.failed_loops
        self.chunk_attempts.extend(other.chunk_attempts)

    def freeze(self) -> "ExecutionTelemetry":
        return ExecutionTelemetry(
            chunks=self.chunks,
            attempts=self.attempts,
            retries=self.retries,
            rebuilds=self.rebuilds,
            deadline_hits=self.deadline_hits,
            degraded_chunks=self.degraded_chunks,
            failed_loops=self.failed_loops,
            chunk_attempts=tuple(self.chunk_attempts),
        )

    def to_dict(self) -> dict:
        return {
            "chunks": self.chunks,
            "attempts": self.attempts,
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "deadline_hits": self.deadline_hits,
            "degraded_chunks": self.degraded_chunks,
            "failed_loops": self.failed_loops,
        }


@dataclass(frozen=True)
class ExecutionTelemetry:
    """Immutable per-batch telemetry snapshot carried on ``ResponseMeta``."""

    chunks: int
    attempts: int
    retries: int
    rebuilds: int
    deadline_hits: int
    degraded_chunks: int
    failed_loops: int
    chunk_attempts: Tuple[int, ...]

    @property
    def clean(self) -> bool:
        """True when no fault-tolerance machinery had to engage."""
        return (
            self.retries == 0
            and self.rebuilds == 0
            and self.deadline_hits == 0
            and self.degraded_chunks == 0
            and self.failed_loops == 0
        )
