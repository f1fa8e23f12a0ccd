"""Batch evaluation of suites, in-process or over a worker pool.

:func:`run_requests` evaluates many ``(scheduler, suite)`` pairs in one
call.  Figure panels, Table 2 and the sweeps batch all their
scheduler/machine combinations through it (via the service session), so
a pool's start-up cost is amortized over the whole experiment.  At
``jobs=1`` every loop runs in the calling process; otherwise the loops
are dispatched in chunks (:func:`resolve_chunksize`) to a
:class:`ProcessPoolExecutor` whose workers start under ``forkserver``
where the platform offers it (they fork from a server that has
pre-imported this module) and ``spawn`` elsewhere.  Outcomes are merged
back by their (request, benchmark, loop) key **in suite order**, so the
results are bit-identical at any worker count and under any number of
resubmissions: scheduling is deterministic, and only the measured
``cpu_seconds`` differ, exactly as between two sequential runs.

Every path — sequential, worker and degraded — schedules a loop through
one per-item step (:func:`_run_items`): fire the planned fault, schedule,
validate under ``validate_each``, and wrap a failure.

Failure posture
---------------

* **Worker death** (``BrokenProcessPool``, from a future or from
  ``executor.submit`` itself): the pool is rebuilt at once and every
  outstanding chunk is resubmitted.  After :data:`MAX_REBUILDS` rebuilds
  the remaining chunks run in-process instead (where process faults
  cannot occur), so the batch still completes.
* **Task raised** (the scheduler or the validation failed on that
  loop's content): never retried.  It surfaces as a
  :class:`LoopTaskError` naming the benchmark and loop, or, under
  ``keep_going``, becomes a :class:`~repro.eval.retry.LoopFailure` on
  the result while the rest of the batch keeps running.

``faults`` accepts a :class:`~repro.eval.faults.FaultPlan` (test/CI
only): a deterministic plan of injected worker crashes and raises, used
to prove that results through injected worker deaths are bit-identical
to the fault-free run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..ir.loop import Loop
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from ..workloads.spec import Benchmark
from .faults import FaultPlan
from .retry import FailureReport, LoopFailure, RunTelemetry
from .runner import BenchmarkResult, SuiteResult

__all__ = [
    "EvaluationPool",
    "FailureReport",
    "LoopFailure",
    "LoopTaskError",
    "MAX_REBUILDS",
    "RunTelemetry",
    "resolve_chunksize",
    "resolve_jobs",
    "run_requests",
]

#: Pool rebuilds one batch may spend on worker deaths before the rest of
#: its chunks run in-process.
MAX_REBUILDS = 2


class LoopTaskError(ReproError):
    """A per-loop scheduling task failed."""

    def __init__(
        self, benchmark: str, loop_name: str, scheduler: str, cause: BaseException
    ) -> None:
        self.benchmark = benchmark
        self.loop_name = loop_name
        self.scheduler = scheduler
        self.cause = cause
        super().__init__(
            f"scheduling loop {loop_name!r} of benchmark {benchmark!r} "
            f"with {scheduler!r} failed: {type(cause).__name__}: {cause}"
        )

    def __reduce__(self):
        # Raised inside workers: rebuild from the fields, not the message.
        fields = (self.benchmark, self.loop_name, self.scheduler, self.cause)
        return type(self), fields


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` -> CPU count, else as given."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {jobs}")
    return jobs


#: Upper bound on the chunk size: chunks stay small enough for the pool
#: to load-balance even when one loop is much slower than its neighbours
#: (the extended tier mixes ~32-op and ~280-op bodies).
_MAX_CHUNK = 32


def resolve_chunksize(total_items: int, jobs: int) -> int:
    """The loops-per-task batch size: ``ceil(total / (4 * jobs))``, at
    most 32 — about four waves of chunks per worker, so pickling is
    amortized without sacrificing load balance."""
    return max(1, min(_MAX_CHUNK, -(-total_items // (4 * max(1, jobs)))))


def _warm_probe() -> int:
    """Worker-side warm-up task: hold the worker just long enough that
    concurrent probes cannot all be served by one eager process."""
    time.sleep(0.02)
    return os.getpid()


class EvaluationPool:
    """A lazily spawned, reusable, **rebuildable** worker pool.

    The executor is created on first use and kept alive until
    :meth:`shutdown`, so several batch calls share the same worker
    processes.  ``jobs == 1`` never spawns anything (callers take the
    in-process path).  The start method is ``forkserver`` where the
    platform offers it, else ``spawn``; ``fork`` is never used, since
    forking a large parent mid-flight copies arbitrary state into the
    workers.

    :meth:`rebuild` replaces a broken executor with a fresh one;
    :meth:`shutdown` is idempotent and safe on a broken executor.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        available = multiprocessing.get_all_start_methods()
        self.start_method = "forkserver" if "forkserver" in available else "spawn"
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Lifetime count of :meth:`rebuild` calls (telemetry).
        self.rebuilds = 0

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context(self.start_method)
            if self.start_method == "forkserver":
                # Workers fork from the server, so preloading this module
                # there imports the library (and the interpreter) once per
                # pool instead of once per worker.
                context.set_forkserver_preload([__name__])
            self._executor = ProcessPoolExecutor(self.jobs, context)
        return self._executor

    def warm(self) -> int:
        """Pre-spawn the worker processes; returns the live worker count.

        Normally workers spawn lazily on first submit, which puts the
        interpreter/import cost inside the first request's latency.  A
        session calls this before timed or latency-sensitive work so the
        first request lands on an already-warm pool.  Each probe task
        sleeps briefly so concurrent probes force distinct workers up.
        """
        executor = self.executor()
        probes = [executor.submit(_warm_probe) for _ in range(self.jobs)]
        return len({probe.result() for probe in probes})

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(cancel_futures=True)
        except Exception:
            # A broken executor (dead workers, closed queues) may raise
            # mid-teardown; there is nothing left to release cleanly.
            pass

    def rebuild(self) -> ProcessPoolExecutor:
        """Tear down the current executor — terminating any surviving
        workers, since a broken executor never drains — and spawn a
        fresh one."""
        executor, self._executor = self._executor, None
        if executor is not None:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.rebuilds += 1
        return self.executor()


#: A work unit key: (request index, benchmark index, loop index).
_TaskKey = Tuple[int, int, int]

#: A dispatchable item: key, benchmark name (for fault plans and failure
#: records) and the loop itself.
_Item = Tuple[_TaskKey, str, Loop]


def _run_items(
    scheduler: BaseScheduler,
    items: Sequence[_Item],
    validate_each: bool = False,
    attempt: int = 0,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
    in_worker: bool = False,
) -> List[Tuple[_TaskKey, Union[ScheduleOutcome, LoopFailure]]]:
    """Schedule ``items`` one by one: the per-item step of every path.

    Module-level, so workers can run it under ``spawn``.  ``attempt`` is
    the chunk's 0-based execution count, keying the ``faults`` plan;
    ``in_worker`` lets process faults fire.  ``validate_each`` validates
    each modulo schedule *here*, while the engine-attached sessions are
    still alive (they are dropped when the outcome is pickled back to
    the parent).  A failing item raises a :class:`LoopTaskError` naming
    it, or, under ``keep_going``, becomes a :class:`LoopFailure` in the
    returned list while the rest of the items still run.
    """
    out: List[Tuple[_TaskKey, Union[ScheduleOutcome, LoopFailure]]] = []
    for key, benchmark, loop in items:
        try:
            if faults is not None:
                faults.maybe_fire(benchmark, loop.name, attempt, in_worker)
            outcome = scheduler.schedule(loop)
            if validate_each and outcome.is_modulo:
                outcome.schedule.validate()
        except Exception as error:
            if not keep_going:
                raise LoopTaskError(
                    benchmark, loop.name, scheduler.name, error
                ) from error
            outcome = LoopFailure(
                benchmark=benchmark,
                loop_name=loop.name,
                scheduler=scheduler.name,
                error_type=type(error).__name__,
                message=str(error),
                attempts=attempt + 1,
            )
        out.append((key, outcome))
    return out


@dataclass
class _Chunk:
    """One dispatchable batch of loops of one request."""

    index: int
    scheduler: BaseScheduler
    items: List[_Item]
    #: Executions so far — the 0-based attempt number the *next*
    #: execution runs as (fault plans key on it).
    attempts: int = 0


class _Batch:
    """The keyed outcomes and failures of one :func:`run_requests` call,
    and the pooled dispatch that fills them."""

    def __init__(
        self,
        validate_each: bool,
        faults: Optional[FaultPlan],
        keep_going: bool,
        telemetry: RunTelemetry,
    ) -> None:
        self.validate_each = validate_each
        self.faults = faults
        self.keep_going = keep_going
        self.telemetry = telemetry
        self.outcomes: Dict[_TaskKey, ScheduleOutcome] = {}
        self.failures: Dict[_TaskKey, LoopFailure] = {}

    def run_here(
        self, scheduler: BaseScheduler, items: Sequence[_Item], attempt: int = 0
    ) -> None:
        """Run ``items`` in this process (process faults cannot fire)."""
        self._collect(
            _run_items(
                scheduler,
                items,
                self.validate_each,
                attempt,
                self.faults,
                self.keep_going,
            )
        )

    def _collect(self, payloads) -> None:
        for key, payload in payloads:
            if isinstance(payload, LoopFailure):
                self.failures[key] = payload
                self.telemetry.failed_loops += 1
            else:
                self.outcomes[key] = payload

    def dispatch(self, pool: EvaluationPool, chunks: List[_Chunk]) -> None:
        """Run ``chunks`` on ``pool``, healing worker deaths (see the
        module docstring)."""
        self.telemetry.chunks += len(chunks)
        queue = list(chunks)
        pending: Dict[object, _Chunk] = {}
        deaths = 0

        def worker_died() -> None:
            nonlocal deaths
            deaths += 1
            # A broken executor fails every in-flight future: requeue them
            # all (the merge is keyed, so re-execution is harmless).
            queue.extend(pending.values())
            pending.clear()
            queue.sort(key=lambda c: c.index)
            if deaths <= MAX_REBUILDS:
                self.telemetry.rebuilds += 1
                pool.rebuild()

        def start(chunk: _Chunk) -> int:
            attempt = chunk.attempts
            self.telemetry.record_attempt(first=attempt == 0)
            chunk.attempts += 1
            return attempt

        while queue or pending:
            while queue:
                chunk = queue.pop(0)
                if deaths > MAX_REBUILDS:
                    self.telemetry.degraded_chunks += 1
                    self.run_here(chunk.scheduler, chunk.items, start(chunk))
                    self.telemetry.chunk_attempts.append(chunk.attempts)
                    continue
                try:
                    future = pool.executor().submit(
                        _run_items,
                        chunk.scheduler,
                        chunk.items,
                        self.validate_each,
                        chunk.attempts,
                        self.faults,
                        self.keep_going,
                        in_worker=True,
                    )
                except BrokenProcessPool:
                    queue.insert(0, chunk)
                    worker_died()
                    continue
                start(chunk)
                pending[future] = chunk
            if not pending:
                break
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            died = False
            for future in done:
                chunk = pending.pop(future)
                try:
                    payloads = future.result()
                except BrokenProcessPool:
                    died = True
                    queue.append(chunk)
                    continue
                except LoopTaskError:
                    raise
                except Exception as error:
                    # Not the task's own failure (say, an outcome that
                    # would not pickle): name the chunk's first loop.
                    _key, benchmark, loop = chunk.items[0]
                    raise LoopTaskError(
                        benchmark, loop.name, chunk.scheduler.name, error
                    ) from error
                self._collect(payloads)
                self.telemetry.chunk_attempts.append(chunk.attempts)
            if died:
                worker_died()


def _request_items(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
) -> List[List[_Item]]:
    """Each request's loops, keyed for the merge."""
    return [
        [
            ((r, b, i), benchmark.name, loop)
            for b, benchmark in enumerate(suite)
            for i, loop in enumerate(benchmark.loops)
        ]
        for r, (_scheduler, suite) in enumerate(requests)
    ]


def _make_chunks(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    per_request: List[List[_Item]],
    jobs: int,
) -> List[_Chunk]:
    size = resolve_chunksize(sum(len(items) for items in per_request), jobs)
    chunks: List[_Chunk] = []
    for (scheduler, _suite), items in zip(requests, per_request):
        for start in range(0, len(items), size):
            chunks.append(
                _Chunk(len(chunks), scheduler, items[start : start + size])
            )
    return chunks


def _assemble_suite_result(
    scheduler: BaseScheduler,
    suite: Sequence[Benchmark],
    batch: _Batch,
    request_index: int,
) -> SuiteResult:
    """Deterministic merge: outcomes by key back into suite order.

    Keys recorded as failures (keep-going mode) are skipped — their
    :class:`LoopFailure` records ride on the result instead; a key in
    neither map is a merge bug and raises.
    """
    result = SuiteResult(scheduler=scheduler.name, machine=scheduler.machine.name)
    lost: List[LoopFailure] = []
    for b, benchmark in enumerate(suite):
        bench_result = BenchmarkResult(
            benchmark=benchmark.name,
            scheduler=scheduler.name,
            machine=scheduler.machine.name,
        )
        for i in range(len(benchmark.loops)):
            key = (request_index, b, i)
            if key in batch.failures:
                lost.append(batch.failures[key])
            else:
                bench_result.outcomes.append(batch.outcomes[key])
        result.per_benchmark[benchmark.name] = bench_result
    result.failures = tuple(lost)
    return result


def run_requests(
    requests: Sequence[Tuple[BaseScheduler, Sequence[Benchmark]]],
    jobs: Optional[int] = 1,
    pool: Optional[EvaluationPool] = None,
    validate_each: bool = False,
    faults: Optional[FaultPlan] = None,
    keep_going: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> List[SuiteResult]:
    """Evaluate every ``(scheduler, suite)`` request, sharing one pool.

    Returns one :class:`SuiteResult` per request, in request order, with
    benchmarks and loop outcomes in their original suite order.  With
    ``pool`` the caller's shared :class:`EvaluationPool` is reused (its
    worker count wins over ``jobs``) and left running on return.
    ``validate_each`` validates each modulo schedule where it was
    produced; ``keep_going`` collects per-loop failures on the results
    instead of raising; ``faults`` injects a deterministic
    :class:`~repro.eval.faults.FaultPlan` (test/CI only); ``telemetry``
    is a caller-owned :class:`~repro.eval.retry.RunTelemetry` the
    dispatch fills in.
    """
    requests = [(scheduler, list(suite)) for scheduler, suite in requests]
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    batch = _Batch(
        validate_each,
        faults,
        keep_going,
        telemetry if telemetry is not None else RunTelemetry(),
    )
    per_request = _request_items(requests)
    if jobs == 1:
        for (scheduler, _suite), items in zip(requests, per_request):
            batch.run_here(scheduler, items)
    else:
        owns_pool = pool is None
        if owns_pool:
            pool = EvaluationPool(jobs)
        try:
            batch.dispatch(pool, _make_chunks(requests, per_request, jobs))
        finally:
            if owns_pool:
                pool.shutdown()
    return [
        _assemble_suite_result(scheduler, suite, batch, r)
        for r, (scheduler, suite) in enumerate(requests)
    ]
