"""Failure records and execution telemetry for batch evaluation.

The batch runner (:mod:`repro.eval.parallel`) has one failure posture:

* a **worker death** (``BrokenProcessPool``, from a future or from
  ``executor.submit`` itself) rebuilds the pool at once and resubmits
  the outstanding chunks; after
  :data:`~repro.eval.parallel.MAX_REBUILDS` rebuilds the remaining
  chunks run in-process instead;
* a **task that raises** (the scheduler failed on that loop's content)
  is never retried: it surfaces as a
  :class:`~repro.eval.parallel.LoopTaskError`, or, under ``keep_going``
  (the CLI's ``--keep-going``), becomes a :class:`LoopFailure` on a
  :class:`FailureReport` while every other loop is still scheduled.

:class:`RunTelemetry` counts what actually happened (attempts per
chunk, retries, rebuilds, degraded chunks, lost loops); the service
session attaches a frozen :class:`ExecutionTelemetry` snapshot to each
response's :class:`~repro.service.responses.ResponseMeta` and the
``repro bench --json`` artifact records the session totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class LoopFailure:
    """One loop that could not be scheduled, and why."""

    benchmark: str
    loop_name: str
    scheduler: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.loop_name} [{self.scheduler}]: "
            f"{self.error_type}: {self.message} (attempts={self.attempts})"
        )

    def to_dict(self) -> dict:
        """The record as exported and stored (``loop`` names the loop)."""
        return {
            "benchmark": self.benchmark,
            "loop": self.loop_name,
            "scheduler": self.scheduler,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


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
            "failures": [f.to_dict() for f in self.failures],
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
    completion order, so "attempts per chunk" is reconstructible; the
    scalar counters aggregate across chunks.  Sessions accumulate by
    :meth:`merge`; responses carry the frozen :meth:`freeze` snapshot.
    """

    chunks: int = 0
    attempts: int = 0
    retries: int = 0
    rebuilds: int = 0
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
        self.degraded_chunks += other.degraded_chunks
        self.failed_loops += other.failed_loops
        self.chunk_attempts.extend(other.chunk_attempts)

    def freeze(self) -> "ExecutionTelemetry":
        return ExecutionTelemetry(
            chunks=self.chunks,
            attempts=self.attempts,
            retries=self.retries,
            rebuilds=self.rebuilds,
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
    degraded_chunks: int
    failed_loops: int
    chunk_attempts: Tuple[int, ...]

    @property
    def clean(self) -> bool:
        """True when no fault-tolerance machinery had to engage."""
        return (
            self.retries == 0
            and self.rebuilds == 0
            and self.degraded_chunks == 0
            and self.failed_loops == 0
        )
