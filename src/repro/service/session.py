"""The long-lived service session: :class:`ReproService`.

One session object owns everything the research scripts used to thread
by hand — the worker pool, the scheduler/machine registries, the
chunking knob — and memoizes responses by request fingerprint, so the
CLI, the figure harness, the benchmarks and interactive callers all go
through one entry point::

    from repro.service import EvaluationRequest, ReproService, ScheduleRequest

    with ReproService(jobs=4) as service:
        one = service.schedule(ScheduleRequest(kernel="daxpy", machine="2x32"))
        tier = service.evaluate(
            EvaluationRequest(scheduler="gp", machine="4x64", suite="paper")
        )
        again = service.evaluate(tier.request)   # served from the cache
        assert again.meta.cache_hit

Batches stream: :meth:`submit` returns immediately (work starts in the
pool), and :meth:`as_completed` yields
:class:`~repro.service.responses.EvaluationResponse` envelopes as whole
suites finish — the interactive counterpart of the blocking
:meth:`evaluate_many`.

Execution knobs (``jobs``, ``chunksize``, ``mp_context``) are session
state, never request state: results are bit-identical at any setting
(the parallel runner's deterministic-merge contract), so the same
request fingerprints — and caches — identically on a laptop and a
64-core box.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..eval.faults import FaultPlan
from ..eval.parallel import (
    EvaluationPool,
    SuiteTask,
    as_completed_suites,
    resolve_jobs,
    run_requests,
    submit_suite,
)
from ..eval.retry import (
    ExecutionTelemetry,
    FailureReport,
    RetryPolicy,
    RunTelemetry,
)
from ..eval.runner import SuiteResult
from ..machine.config import MachineConfig
from ..schedule.drivers import BaseScheduler, ScheduleOutcome
from .registry import MACHINES, SCHEDULERS, MachineRegistry, SchedulerRegistry
from .requests import EvaluationRequest, MachineLike, ScheduleRequest
from .responses import EvaluationResponse, ResponseMeta, ScheduleResponse
from .store import ResultStore, open_store

#: Anything the service can run: a single-loop or a suite request.
AnyRequest = Union[ScheduleRequest, EvaluationRequest]


class BatchHandle:
    """One streamed evaluation: the request plus its in-flight task.

    Returned by :meth:`ReproService.submit`; redeemed by
    :meth:`ReproService.as_completed` (or :meth:`response`, which
    blocks).  A handle whose request hit the session cache carries the
    finished response immediately.
    """

    def __init__(
        self,
        service: "ReproService",
        request: EvaluationRequest,
        fingerprint: str,
        task: Optional[SuiteTask] = None,
        response: Optional[EvaluationResponse] = None,
        shared: bool = False,
    ) -> None:
        self._service = service
        self.request = request
        self.fingerprint = fingerprint
        self._task = task
        self._response = response
        #: This handle rides on another handle's in-flight task (a
        #: duplicate submit); its response reports a cache hit.
        self._shared = shared
        self._submitted = time.perf_counter()

    def done(self) -> bool:
        return self._response is not None or self._task.done()

    def response(self) -> EvaluationResponse:
        """The finished envelope (blocks until the suite completes)."""
        if self._response is None:
            self._response = self._service._redeem(self)
        return self._response


class ReproService:
    """A service session: registries, a pool, and a response cache.

    Parameters mirror the CLI's execution knobs: ``jobs`` (``1`` =
    in-process sequential, ``0``/``None`` = one worker per CPU),
    ``chunksize`` (loops per worker task; ``None`` = the automatic
    heuristic) and ``mp_context`` (worker start method).  ``pool``
    adopts an externally owned
    :class:`~repro.eval.parallel.EvaluationPool` instead — the session
    will use, but never shut down, an adopted pool.  ``schedulers`` /
    ``machines`` swap in private registries (defaults: the module-level
    registries with the paper's schedulers and the DSP presets).

    The session memoizes every completed response by request
    fingerprint: a repeated identical request is served from the cache
    without scheduling anything, and the replayed envelope says so
    (``meta.cache_hit``).  Sessions are context managers; closing one
    shuts down the pool it owns and drops the cache.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        chunksize: Optional[int] = None,
        mp_context: Optional[str] = None,
        pool: Optional[EvaluationPool] = None,
        schedulers: Optional[SchedulerRegistry] = None,
        machines: Optional[MachineRegistry] = None,
        policy: Optional[RetryPolicy] = None,
        keep_going: bool = False,
        faults: Optional[FaultPlan] = None,
        store: Optional[object] = None,
    ) -> None:
        self.schedulers = schedulers if schedulers is not None else SCHEDULERS
        self.machines = machines if machines is not None else MACHINES
        self.chunksize = chunksize
        #: Failure semantics for batch dispatch.  ``None`` keeps the
        #: library's legacy fail-fast default
        #: (:meth:`~repro.eval.retry.RetryPolicy.none`); the CLI passes
        #: the production retry posture.
        self.policy = policy
        #: Collect per-loop failures on responses instead of aborting.
        self.keep_going = keep_going
        #: Deterministic fault-injection plan (test/CI only).
        self.faults = faults
        #: Content-addressed persistent store (``None`` = memo cache only).
        #: Accepts a :class:`~repro.service.store.ResultStore` instance or
        #: a spec string (``"memory"``, ``"disk"``, ``"disk:PATH"``, a
        #: path); composes *under* the in-process memo: memo hit → store
        #: hit → compute, and complete fresh responses are written back.
        self._owns_store = not isinstance(store, ResultStore)
        self.store: Optional[ResultStore] = open_store(store)
        #: Session-lifetime fault-tolerance counters; each response also
        #: carries its own batch's frozen snapshot on ``meta.telemetry``.
        self.telemetry = RunTelemetry()
        #: Every loop lost across the session (keep-going mode only);
        #: :meth:`failure_report` renders it.
        self.failures: List = []
        self._owns_pool = pool is None
        if pool is not None:
            self._pool: Optional[EvaluationPool] = pool
            self.jobs = pool.jobs
        else:
            self.jobs = resolve_jobs(jobs)
            self._pool = (
                EvaluationPool(self.jobs, mp_context=mp_context)
                if self.jobs != 1
                else None
            )
        self._cache: Dict[str, Union[ScheduleOutcome, SuiteResult]] = {}
        #: In-flight streamed evaluations by fingerprint: a duplicate
        #: submit() shares the existing task instead of re-scheduling.
        self._inflight: Dict[str, SuiteTask] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned pool (adopted pools are left running)."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()
        if self._owns_store and self.store is not None:
            self.store.close()
        self._cache.clear()

    def warm(self) -> int:
        """Pre-spawn the session's worker processes, so start-up cost is
        paid before the first request instead of inside its latency;
        returns how many workers are live (0 at ``jobs=1``)."""
        if self._pool is None:
            return 0
        return self._pool.warm()

    def failure_report(self) -> FailureReport:
        """Every loop the session lost so far, as one structured report
        (empty unless ``keep_going`` runs actually failed loops)."""
        return FailureReport(failures=tuple(self.failures))

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_machine(self, machine: MachineLike) -> MachineConfig:
        """A request's machine field as a concrete configuration."""
        if isinstance(machine, MachineConfig):
            return machine
        return self.machines.resolve(machine)

    def _scheduler_for(
        self, request: AnyRequest, machine: MachineConfig
    ) -> BaseScheduler:
        return self.schedulers.create(
            request.scheduler, machine, options=request.engine_options()
        )

    def _meta(
        self,
        fingerprint: str,
        cache_hit: bool,
        started: float,
        validated: bool,
        telemetry: Optional[ExecutionTelemetry] = None,
        store_hit: bool = False,
    ) -> ResponseMeta:
        return ResponseMeta(
            fingerprint=fingerprint,
            cache_hit=cache_hit,
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs,
            validated=validated,
            telemetry=telemetry,
            store=(
                None
                if self.store is None
                else self.store.telemetry(store_hit)
            ),
        )

    # ------------------------------------------------------------------
    # Persistent store plumbing
    # ------------------------------------------------------------------
    def _store_load(self, fingerprint: str):
        """The stored response filed under ``fingerprint``, or ``None``.

        The entry holds no request (callers answer with their own) and
        must carry ``fingerprint``, the key it was filed under.
        Corruption, truncation, schema drift and a key mismatch are all
        misses (the store's
        :meth:`~repro.service.store.ResultStore.load` contract: the
        entry is quarantined and recomputed).
        """
        if self.store is None:
            return None
        from .codec import loads_response

        return self.store.load(
            fingerprint, lambda text: loads_response(text, fingerprint)
        )

    def _store_put(self, response) -> None:
        """Persist one complete response (partial results never land).

        Store failures (full disk, permissions) must not break the
        computation the store only accelerates, so they are swallowed.
        """
        if self.store is None:
            return
        from ..errors import CodecError, StoreError
        from .codec import dumps_response

        try:
            self.store.put(response.meta.fingerprint, dumps_response(response))
        except (CodecError, StoreError, OSError):
            pass

    # ------------------------------------------------------------------
    # Single-loop scheduling
    # ------------------------------------------------------------------
    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Run one :class:`ScheduleRequest` (memoized by fingerprint)."""
        started = time.perf_counter()
        fingerprint = request.fingerprint()
        validated = request.validation_requested()
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self.cache_hits += 1
            return ScheduleResponse(
                request=request,
                outcome=cached,
                meta=self._meta(fingerprint, True, started, validated),
            )
        stored = self._store_load(fingerprint)
        if stored is not None:
            # A store hit is a cache hit whose payload is the decoded
            # metric surface (a StoredOutcome), not a live schedule.
            self.cache_hits += 1
            self._cache[fingerprint] = stored.outcome
            return ScheduleResponse(
                request=request,
                outcome=stored.outcome,
                meta=self._meta(
                    fingerprint, True, started, validated, store_hit=True
                ),
            )
        self.cache_misses += 1
        machine = self.resolve_machine(request.machine)
        scheduler = self._scheduler_for(request, machine)
        outcome = scheduler.schedule(request.resolve_loop())
        if request.full_recheck and outcome.is_modulo:
            outcome.schedule.validate(full_recheck=True)
        self._cache[fingerprint] = outcome
        response = ScheduleResponse(
            request=request,
            outcome=outcome,
            meta=self._meta(fingerprint, False, started, validated),
        )
        self._store_put(response)
        return response

    # ------------------------------------------------------------------
    # Suite evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: EvaluationRequest) -> EvaluationResponse:
        """Run one :class:`EvaluationRequest` (memoized by fingerprint)."""
        return self.evaluate_many([request])[0]

    def evaluate_many(
        self, requests: Sequence[EvaluationRequest]
    ) -> List[EvaluationResponse]:
        """Run a batch of evaluation requests through one shared pool.

        Uncached requests are dispatched together (the batch runner
        interleaves all their loops over the session's workers) and the
        responses come back in request order.  Duplicate fingerprints
        within one batch run once; repeats — within the batch or across
        calls — are cache hits.
        """
        started = time.perf_counter()
        fingerprints = [request.fingerprint() for request in requests]
        todo: Dict[str, Tuple[EvaluationRequest, BaseScheduler]] = {}
        store_hits = set()  # fingerprints served from the persistent store
        for request, fingerprint in zip(requests, fingerprints):
            if fingerprint in self._cache or fingerprint in todo:
                continue
            stored = self._store_load(fingerprint)
            if stored is not None:
                # Promote the decoded result into the in-process memo so
                # repeats within the session skip the store entirely.
                self._cache[fingerprint] = stored.result
                store_hits.add(fingerprint)
                continue
            machine = self.resolve_machine(request.machine)
            todo[fingerprint] = (request, self._scheduler_for(request, machine))
        # The batch runner takes one validate_each flag per call, so
        # dispatch each posture's requests as one sub-batch (they still
        # share the session pool).
        batch = RunTelemetry()
        produced: Dict[str, SuiteResult] = {}
        for flag in (False, True):
            group = [
                (fingerprint, request, scheduler)
                for fingerprint, (request, scheduler) in todo.items()
                if request.validate_each is flag
            ]
            if not group:
                continue
            results = run_requests(
                [
                    (scheduler, request.resolve_suite())
                    for _fingerprint, request, scheduler in group
                ],
                jobs=self.jobs,
                chunksize=self.chunksize,
                pool=self._pool,
                validate_each=flag,
                policy=self.policy,
                faults=self.faults,
                keep_going=self.keep_going,
                telemetry=batch,
            )
            for (fingerprint, _request, _scheduler), result in zip(
                group, results
            ):
                produced[fingerprint] = result
                self.failures.extend(result.failures)
                # Partial (keep-going) results are never memoized: a
                # repeat of the request must re-attempt the lost loops,
                # not replay the gap.
                if not result.failures:
                    self._cache[fingerprint] = result
        self.telemetry.merge(batch)
        snapshot = batch.freeze() if produced else None
        responses = []
        fresh = set(todo)  # fingerprints computed by this call, once each
        for request, fingerprint in zip(requests, fingerprints):
            hit = fingerprint not in fresh
            fresh.discard(fingerprint)
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            # A duplicate of a partial (uncached) result still resolves
            # through ``produced``.
            result = produced.get(fingerprint, self._cache.get(fingerprint))
            responses.append(
                EvaluationResponse(
                    request=request,
                    result=result,
                    meta=self._meta(
                        fingerprint,
                        hit,
                        started,
                        request.validation_requested(),
                        telemetry=None if hit else snapshot,
                        store_hit=fingerprint in store_hits,
                    ),
                )
            )
        # Write freshly computed, *complete* responses back to the store
        # (the first occurrence carries the populating meta; partial
        # keep-going results are never persisted).
        if self.store is not None:
            for response in responses:
                if (
                    not response.meta.cache_hit
                    and response.meta.fingerprint in produced
                    and not response.result.failures
                ):
                    self._store_put(response)
        return responses

    # ------------------------------------------------------------------
    # Streaming batches
    # ------------------------------------------------------------------
    def submit(self, request: EvaluationRequest) -> BatchHandle:
        """Start one evaluation without blocking on it.

        Work begins in the session's pool immediately (or lazily
        in-process at ``jobs=1``); redeem the handle via
        :meth:`as_completed` or :meth:`BatchHandle.response`.  A request
        already in the cache returns an already-completed handle, and a
        duplicate of a request still in flight shares the existing
        task — the suite is never scheduled twice within one session.
        """
        started = time.perf_counter()
        fingerprint = request.fingerprint()
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self.cache_hits += 1
            return BatchHandle(
                self,
                request,
                fingerprint,
                response=EvaluationResponse(
                    request=request,
                    result=cached,
                    meta=self._meta(
                        fingerprint,
                        True,
                        started,
                        request.validation_requested(),
                    ),
                ),
            )
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            self.cache_hits += 1
            return BatchHandle(
                self, request, fingerprint, task=inflight, shared=True
            )
        stored = self._store_load(fingerprint)
        if stored is not None:
            self.cache_hits += 1
            self._cache[fingerprint] = stored.result
            return BatchHandle(
                self,
                request,
                fingerprint,
                response=EvaluationResponse(
                    request=request,
                    result=stored.result,
                    meta=self._meta(
                        fingerprint,
                        True,
                        started,
                        request.validation_requested(),
                        store_hit=True,
                    ),
                ),
            )
        self.cache_misses += 1
        machine = self.resolve_machine(request.machine)
        task = submit_suite(
            self._scheduler_for(request, machine),
            request.resolve_suite(),
            pool=self._pool,
            chunksize=self.chunksize,
            validate_each=request.validate_each,
            policy=self.policy,
            faults=self.faults,
            keep_going=self.keep_going,
        )
        self._inflight[fingerprint] = task
        return BatchHandle(self, request, fingerprint, task=task)

    def as_completed(
        self, handles: Sequence[BatchHandle]
    ) -> Iterator[EvaluationResponse]:
        """Yield responses as their suites finish (cache hits first).

        Completion order, not submission order — the streaming analogue
        of :meth:`evaluate_many` for progress bars and
        first-result-wins consumers.
        """
        handles = list(handles)
        by_task: Dict[int, List[BatchHandle]] = {}
        tasks: List[SuiteTask] = []
        for handle in handles:
            if handle._response is not None:
                yield handle.response()
                continue
            key = id(handle._task)
            if key not in by_task:
                tasks.append(handle._task)
            # Duplicate submits share one task; every handle still gets
            # its own response when that task completes.
            by_task.setdefault(key, []).append(handle)
        for task in as_completed_suites(tasks):
            for handle in by_task[id(task)]:
                yield handle.response()

    def _redeem(self, handle: BatchHandle) -> EvaluationResponse:
        result = handle._task.result()
        if not result.failures:
            # Partial keep-going results are never memoized (a repeat
            # must re-attempt the lost loops).
            self._cache.setdefault(handle.fingerprint, result)
        if self._inflight.get(handle.fingerprint) is handle._task:
            del self._inflight[handle.fingerprint]
            # First redemption of this task: fold its fault-tolerance
            # counters into the session totals exactly once (shared
            # handles redeem the same task again).
            self.telemetry.merge(handle._task.telemetry)
            self.failures.extend(result.failures)
        request = handle.request
        response = EvaluationResponse(
            request=request,
            result=result,
            meta=ResponseMeta(
                fingerprint=handle.fingerprint,
                cache_hit=handle._shared,
                wall_seconds=time.perf_counter() - handle._submitted,
                jobs=self.jobs,
                validated=request.validation_requested(),
                telemetry=handle._task.telemetry.freeze(),
                store=(
                    None
                    if self.store is None
                    else self.store.telemetry(False)
                ),
            ),
        )
        if not handle._shared and not result.failures:
            self._store_put(response)
        return response
