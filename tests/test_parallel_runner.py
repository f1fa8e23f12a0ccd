"""Determinism and failure-surfacing tests for the parallel batch runner.

The contract under test: for any ``--jobs`` value the batch runner's
results — per-loop IPC, II, stages, bus/mem-comm/spill stats, rendered
tables, machine-readable exports — are byte-identical to the sequential
path, a task that raises produces the same per-loop error at every
``jobs``, and workers that keep dying never hang the batch.
"""

import multiprocessing
import os

import pytest

from repro.eval.export import figure_to_csv, suite_result_to_json
from repro.eval.faults import Fault, FaultPlan
from repro.eval.figures import figure2_panel
from repro.eval.parallel import (
    MAX_REBUILDS,
    EvaluationPool,
    LoopTaskError,
    RunTelemetry,
    resolve_chunksize,
    resolve_jobs,
    run_requests,
)
from repro.eval.runner import run_suite
from repro.service import SCHEDULERS
from repro.errors import ReproError
from repro.machine.presets import two_cluster
from repro.schedule.drivers import BaseScheduler, GPScheduler, UracamScheduler
from repro.workloads.spec import spec_suite


class _CrashingScheduler(BaseScheduler):
    """Raises on one specific loop (module-level: picklable under spawn)."""

    name = "crashing"

    def __init__(self, machine, victim: str) -> None:
        super().__init__(machine)
        self.victim = victim

    def schedule(self, loop):
        if loop.name == self.victim:
            raise RuntimeError("injected scheduler crash")
        return super().schedule(loop)

    def _policy(self, loop, ii):
        from repro.schedule.engine import AllClustersPolicy

        return AllClustersPolicy(self.machine.num_clusters)


class _SessionCorruptingScheduler(BaseScheduler):
    """Schedules normally, then poisons one loop's structural session —
    the corruption ``validate_each`` exists to catch in-sweep."""

    name = "session-corrupting"

    def __init__(self, machine, victim: str) -> None:
        super().__init__(machine)
        self.victim = victim

    def schedule(self, loop):
        outcome = super().schedule(loop)
        if loop.name == self.victim and outcome.is_modulo:
            outcome.schedule.structural.dep_error = "injected session corruption"
        return outcome

    def _policy(self, loop, ii):
        from repro.schedule.engine import AllClustersPolicy

        return AllClustersPolicy(self.machine.num_clusters)


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestResolveMpContext:
    """How the pool resolves its multiprocessing start method."""

    def test_default_prefers_forkserver_on_posix(self):
        expected = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert EvaluationPool(jobs=2).start_method == expected


class TestResolveChunksize:
    def test_heuristic_amortizes_but_load_balances(self):
        # ~4 waves of chunks per worker.
        assert resolve_chunksize(total_items=220, jobs=4) == 14
        # Tiny suites stay at one loop per task.
        assert resolve_chunksize(total_items=3, jobs=8) == 1
        # Huge tiers are capped so one slow loop can't starve the pool.
        assert resolve_chunksize(total_items=100_000, jobs=2) == 32


class TestDeterministicMerge:
    """Parallel output is byte-identical to sequential, any worker count."""

    @pytest.fixture(scope="class")
    def paper_suite(self):
        return spec_suite()

    @pytest.fixture(scope="class")
    def sequential_export(self, paper_suite):
        result = run_suite(paper_suite, SCHEDULERS.create("gp", two_cluster(32)))
        return suite_result_to_json(result, timing=False)

    @pytest.mark.parametrize(
        "jobs,chunk",
        [
            (1, None),
            (2, None),   # the chunking heuristic
            (2, 1),      # one loop per chunk
            (2, 3),
            (2, 1000),   # one chunk swallows the whole suite
            (8, None),
            (8, 2),
        ],
    )
    def test_byte_identical_export(
        self, paper_suite, sequential_export, pin_chunk_size, jobs, chunk
    ):
        pin_chunk_size(chunk)
        result = run_suite(
            paper_suite, SCHEDULERS.create("gp", two_cluster(32)), jobs=jobs
        )
        assert suite_result_to_json(result, timing=False) == sequential_export

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_byte_identical_under_both_start_methods(
        self, paper_suite, sequential_export, start_method
    ):
        """The pool picks forkserver where the platform has it and spawn
        elsewhere; both kinds of worker compute the same results."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        pool = EvaluationPool(jobs=2)
        pool.start_method = start_method
        try:
            result = run_requests(
                [(SCHEDULERS.create("gp", two_cluster(32)), paper_suite)],
                pool=pool,
            )[0]
        finally:
            pool.shutdown()
        assert suite_result_to_json(result, timing=False) == sequential_export

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_changes_nothing(
        self, paper_suite, sequential_export, jobs
    ):
        """The sweep-integrated validation accepts every schedule and the
        merged results stay byte-identical."""
        result = run_suite(
            paper_suite,
            SCHEDULERS.create("gp", two_cluster(32)),
            jobs=jobs,
            validate_each=True,
        )
        assert suite_result_to_json(result, timing=False) == sequential_export

    def test_shared_pool_reused_across_calls(self, paper_suite):
        """One EvaluationPool serves several run_requests calls."""
        mini = paper_suite[:1]
        machine = two_cluster(32)
        sequential = [
            suite_result_to_json(run_suite(mini, scheduler), timing=False)
            for scheduler in (GPScheduler(machine), UracamScheduler(machine))
        ]
        pool = EvaluationPool(jobs=2)
        try:
            first = run_requests([(GPScheduler(machine), mini)], pool=pool)
            executor = pool._executor
            assert executor is not None  # spawned once...
            second = run_requests([(UracamScheduler(machine), mini)], pool=pool)
            assert pool._executor is executor  # ...and reused, not respawned
        finally:
            pool.shutdown()
        pooled = [
            suite_result_to_json(result[0], timing=False)
            for result in (first, second)
        ]
        assert pooled == sequential

    def test_rendered_panel_identical(self, paper_suite):
        mini = paper_suite[:1]
        sequential = figure2_panel(2, 32, suite=mini, jobs=1)
        pooled = figure2_panel(2, 32, suite=mini, jobs=2)
        assert pooled.render() == sequential.render()
        assert figure_to_csv(pooled) == figure_to_csv(sequential)

    def test_run_requests_shares_one_pool(self, paper_suite):
        mini = paper_suite[:1]
        machine = two_cluster(32)
        schedulers = [GPScheduler(machine), UracamScheduler(machine)]
        pooled = run_requests([(s, mini) for s in schedulers], jobs=2)
        for scheduler, result in zip(schedulers, pooled):
            expected = run_suite(mini, scheduler)
            assert suite_result_to_json(
                result, timing=False
            ) == suite_result_to_json(expected, timing=False)
            assert result.scheduler == scheduler.name


class TestFailureSurfacing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_names_the_loop(self, jobs):
        """One error surface: the same LoopTaskError in-process and pooled."""
        suite = spec_suite()[:1]
        victim = suite[0].loops[1].name
        scheduler = _CrashingScheduler(two_cluster(32), victim=victim)
        with pytest.raises(LoopTaskError) as excinfo:
            run_suite(suite, scheduler, jobs=jobs)
        assert victim in str(excinfo.value)
        assert suite[0].name in str(excinfo.value)
        assert excinfo.value.loop_name == victim
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_dead_worker_does_not_hang(self):
        """Every pooled execution of every loop kills its worker: the pool
        is rebuilt MAX_REBUILDS times, then the whole batch runs
        in-process, byte-identical to the sequential run."""
        suite = spec_suite()[:1]
        plan = FaultPlan(
            faults=tuple(
                Fault(suite[0].name, loop.name, "crash", attempt=None)
                for loop in suite[0].loops
            )
        )
        telemetry = RunTelemetry()
        scheduler = GPScheduler(two_cluster(32))
        result = run_requests(
            [(scheduler, suite)], jobs=2, faults=plan, telemetry=telemetry
        )[0]
        expected = run_suite(suite, GPScheduler(two_cluster(32)))
        assert suite_result_to_json(
            result, timing=False
        ) == suite_result_to_json(expected, timing=False)
        assert telemetry.rebuilds == MAX_REBUILDS
        assert telemetry.degraded_chunks == telemetry.chunks

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_validate_each_surfaces_bad_schedule_as_loop_error(self, jobs):
        """Sequential and pooled paths both name the failing loop."""
        suite = spec_suite()[:1]
        victim = suite[0].loops[0].name
        scheduler = _SessionCorruptingScheduler(two_cluster(32), victim=victim)
        with pytest.raises(LoopTaskError) as excinfo:
            run_suite(suite, scheduler, jobs=jobs, validate_each=True)
        assert excinfo.value.loop_name == victim
        assert "injected session corruption" in str(excinfo.value)


def _break_pool(pool: EvaluationPool) -> None:
    """Kill a worker so the executor is broken for everything after."""
    from concurrent.futures import wait

    future = pool.executor().submit(_exit_worker)
    wait([future])
    assert future.exception() is not None


def _exit_worker():
    os._exit(13)


class TestPoolLifecycle:
    """Satellite: shutdown is idempotent and safe on a broken pool."""

    def test_shutdown_is_idempotent(self):
        pool = EvaluationPool(jobs=2)
        pool.executor()
        pool.shutdown()
        assert pool._executor is None
        pool.shutdown()  # second call is a no-op, not an error
        assert pool._executor is None

    def test_shutdown_safe_after_broken_process_pool(self):
        pool = EvaluationPool(jobs=2)
        _break_pool(pool)
        pool.shutdown()  # must not raise despite the broken executor
        assert pool._executor is None
        pool.shutdown()

    def test_shutdown_without_ever_spawning(self):
        pool = EvaluationPool(jobs=2)
        pool.shutdown()  # nothing was spawned; still fine
        assert pool._executor is None

    def test_rebuild_replaces_a_broken_executor(self):
        pool = EvaluationPool(jobs=2)
        _break_pool(pool)
        executor = pool.rebuild()
        assert pool.rebuilds == 1
        # The fresh executor actually works.
        assert executor.submit(max, 2, 3).result() == 3
        pool.shutdown()
