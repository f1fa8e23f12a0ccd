"""Running schedulers over benchmark suites and collecting results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .metrics import aggregate_ipc


@dataclass
class BenchmarkResult:
    """One (benchmark, scheduler, machine) evaluation."""

    benchmark: str
    scheduler: str
    machine: str
    outcomes: List[ScheduleOutcome] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return aggregate_ipc(
            [o.loop.total_dynamic_operations() for o in self.outcomes],
            [o.execution_cycles() for o in self.outcomes],
        )

    @property
    def cpu_seconds(self) -> float:
        """Total scheduling CPU time over the benchmark's loops."""
        return sum(o.cpu_seconds for o in self.outcomes)

    @property
    def modulo_fraction(self) -> float:
        """Loops that got a modulo schedule (vs. the list fallback)."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.is_modulo) / len(self.outcomes)

    @property
    def peak_registers(self) -> int:
        """Worst single-cluster MaxLives over the benchmark's loops.

        Read off each schedule's cached lifetime analysis (see
        :mod:`repro.eval.metrics`), not a fresh ledger sweep.
        """
        from .metrics import peak_register_pressure

        return peak_register_pressure(self.outcomes)


def run_benchmark(
    benchmark: Benchmark,
    scheduler: BaseScheduler,
    validate_each: bool = False,
) -> BenchmarkResult:
    """Schedule every loop of ``benchmark`` with ``scheduler`` (in-process).

    ``validate_each`` is :func:`run_suite`'s; a loop that fails surfaces
    as a :class:`~repro.eval.parallel.LoopTaskError` naming it.
    """
    result = run_suite([benchmark], scheduler, validate_each=validate_each)
    return result.per_benchmark[benchmark.name]


@dataclass
class SuiteResult:
    """All benchmarks under one (scheduler, machine) pair.

    ``failures`` is empty except under the batch runner's
    ``keep_going`` mode, where each loop that could not be scheduled is
    recorded as a :class:`~repro.eval.retry.LoopFailure` (its outcome is
    simply absent from ``per_benchmark``) instead of aborting the run.
    """

    scheduler: str
    machine: str
    per_benchmark: Dict[str, BenchmarkResult] = field(default_factory=dict)
    failures: tuple = ()

    @property
    def average_ipc(self) -> float:
        values = [r.ipc for r in self.per_benchmark.values()]
        return sum(values) / len(values) if values else 0.0

    @property
    def total_cpu_seconds(self) -> float:
        return sum(r.cpu_seconds for r in self.per_benchmark.values())


def run_suite(
    suite: Sequence[Benchmark],
    scheduler: BaseScheduler,
    jobs: Optional[int] = 1,
    pool=None,
    validate_each: bool = False,
) -> SuiteResult:
    """Schedule the whole suite with one scheduler instance.

    ``jobs`` follows the CLI convention: ``1`` (the default) runs
    in-process and sequentially; any other value dispatches the per-loop
    work to a worker pool, and ``pool`` reuses a caller's
    :class:`~repro.eval.parallel.EvaluationPool` (see
    :func:`~repro.eval.parallel.run_requests`, which this delegates to).
    The merge is deterministic, so the result is bit-identical either
    way.  ``validate_each`` re-validates every modulo schedule as it is
    produced (in the worker that scheduled it, on the pooled path, so
    the cost is measured where it is paid).  A loop that fails surfaces
    as a :class:`~repro.eval.parallel.LoopTaskError` naming it, at any
    ``jobs``.
    """
    from .parallel import run_requests

    return run_requests(
        [(scheduler, suite)], jobs=jobs, pool=pool, validate_each=validate_each
    )[0]
