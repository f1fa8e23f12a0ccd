"""Fault-injection property tests for the batch runner's failure posture.

The contracts under test, against deterministic :class:`FaultPlan`\\ s:

* results through injected **worker crashes** are *bit-identical* to the
  fault-free run at every ``jobs`` and chunk size — rebuilding the pool and
  resubmitting may change how work executes, never what it computes;
* a **task that raises** is never retried: it aborts at once (or, under
  ``keep_going``, is collected into a :class:`FailureReport` naming
  every lost loop while the rest of the batch completes);
* after ``MAX_REBUILDS`` rebuilds the runner degrades to in-process
  execution and still produces bit-identical results;
* the mid-submit ``BrokenProcessPool`` race (``executor.submit`` itself
  raising) is healed the same way.
"""

import pytest

from repro.errors import ReproError
from repro.eval.export import suite_result_to_json
from repro.eval.faults import CRASH_EXIT_CODE, Fault, FaultInjected, FaultPlan
from repro.eval.parallel import (
    MAX_REBUILDS,
    EvaluationPool,
    LoopTaskError,
    run_requests,
)
from repro.eval.retry import FailureReport, LoopFailure, RunTelemetry
from repro.eval.runner import run_suite
from repro.machine.presets import two_cluster
from repro.service import SCHEDULERS
from repro.workloads.spec import spec_suite


def _mini_suite():
    return spec_suite()[:2]


def _gp():
    return SCHEDULERS.create("gp", two_cluster(32))


def _canonical(result):
    return suite_result_to_json(result, timing=False)


@pytest.fixture(scope="module")
def mini_suite():
    return _mini_suite()


@pytest.fixture(scope="module")
def fault_free_export(mini_suite):
    return _canonical(run_suite(mini_suite, _gp()))


class TestFaultPlan:
    def test_bad_kind_rejected(self):
        with pytest.raises(ReproError):
            Fault(benchmark="b", loop_name="l", kind="meltdown")

    def test_negative_attempt_rejected(self):
        with pytest.raises(ReproError):
            Fault(benchmark="b", loop_name="l", kind="crash", attempt=-1)

    def test_from_seed_is_deterministic(self, mini_suite):
        a = FaultPlan.from_seed(42, mini_suite, kinds=("crash", "raise"), count=3)
        b = FaultPlan.from_seed(42, mini_suite, kinds=("crash", "raise"), count=3)
        assert a == b
        assert len(a.faults) == 3
        c = FaultPlan.from_seed(43, mini_suite, kinds=("crash", "raise"), count=3)
        assert a != c

    def test_json_round_trip(self, mini_suite):
        plan = FaultPlan.from_seed(7, mini_suite, kinds=("crash", "raise"), count=2)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("not json")
        with pytest.raises(ReproError):
            FaultPlan.load(str(path))
        path.write_text('{"faults": [{"kind": "crash"}]}')
        with pytest.raises(ReproError):
            FaultPlan.load(str(path))
        with pytest.raises(ReproError):
            FaultPlan.load(str(tmp_path / "missing.json"))

    def test_wildcard_attempt_matches_every_execution(self):
        fault = Fault(benchmark="b", loop_name="l", kind="raise", attempt=None)
        assert fault.matches("b", "l", 0)
        assert fault.matches("b", "l", 5)
        pinned = Fault(benchmark="b", loop_name="l", kind="raise", attempt=1)
        assert not pinned.matches("b", "l", 0)
        assert pinned.matches("b", "l", 1)

    def test_process_faults_do_not_fire_in_process(self):
        plan = FaultPlan(
            faults=(
                Fault(benchmark="b", loop_name="l", kind="crash", attempt=None),
            )
        )
        # Would kill this very test process if in_worker were ignored.
        plan.maybe_fire("b", "l", 0, in_worker=False)
        raising = FaultPlan(
            faults=(
                Fault(benchmark="b", loop_name="l", kind="raise", attempt=None),
            )
        )
        with pytest.raises(FaultInjected):
            raising.maybe_fire("b", "l", 0, in_worker=False)


class TestBitIdenticalUnderTransientFaults:
    """The tentpole property: injected worker crashes change nothing."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_crash_plan_is_invisible_in_results(
        self, mini_suite, fault_free_export, pin_chunk_size, jobs, chunk
    ):
        pin_chunk_size(chunk)
        plan = FaultPlan.from_seed(11, mini_suite, kinds=("crash",), count=3)
        telemetry = RunTelemetry()
        result = run_requests(
            [(_gp(), mini_suite)],
            jobs=jobs,
            faults=plan,
            telemetry=telemetry,
        )[0]
        assert _canonical(result) == fault_free_export
        assert not result.failures
        if jobs > 1:
            # Crashes actually fired and were healed.
            assert telemetry.retries >= 1
            assert telemetry.rebuilds >= 1

    def test_degrades_to_inprocess_after_rebuild_budget(
        self, mini_suite, fault_free_export
    ):
        victim = mini_suite[0]
        # A hard crash: every pooled execution of this loop kills its
        # worker, so only degradation can finish the batch.
        plan = FaultPlan(
            faults=(
                Fault(
                    benchmark=victim.name,
                    loop_name=victim.loops[0].name,
                    kind="crash",
                    attempt=None,
                ),
            )
        )
        telemetry = RunTelemetry()
        result = run_requests(
            [(_gp(), mini_suite)],
            jobs=2,
            faults=plan,
            telemetry=telemetry,
        )[0]
        assert _canonical(result) == fault_free_export
        assert telemetry.rebuilds == MAX_REBUILDS
        assert telemetry.degraded_chunks >= 1


class TestDeterministicFailuresFailFast:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_fault_is_never_retried(self, mini_suite, jobs):
        victim = mini_suite[0]
        plan = FaultPlan(
            faults=(
                Fault(
                    benchmark=victim.name,
                    loop_name=victim.loops[1].name,
                    kind="raise",
                    attempt=None,
                ),
            )
        )
        telemetry = RunTelemetry()
        with pytest.raises(LoopTaskError) as excinfo:
            run_requests(
                [(_gp(), mini_suite)],
                jobs=jobs,
                faults=plan,
                telemetry=telemetry,
            )
        assert excinfo.value.loop_name == victim.loops[1].name
        assert isinstance(excinfo.value.cause, FaultInjected)
        assert telemetry.retries == 0
        assert telemetry.rebuilds == 0


class TestKeepGoing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_report_names_every_lost_loop(self, mini_suite, jobs):
        victims = [
            (mini_suite[0].name, mini_suite[0].loops[0].name),
            (mini_suite[1].name, mini_suite[1].loops[1].name),
        ]
        plan = FaultPlan(
            faults=tuple(
                Fault(benchmark=b, loop_name=l, kind="raise", attempt=None)
                for b, l in victims
            )
        )
        telemetry = RunTelemetry()
        result = run_requests(
            [(_gp(), mini_suite)],
            jobs=jobs,
            faults=plan,
            keep_going=True,
            telemetry=telemetry,
        )[0]
        report = FailureReport(failures=tuple(result.failures))
        assert sorted(report.loops()) == sorted(victims)
        assert all(f.error_type == "FaultInjected" for f in report.failures)
        assert not report.ok and len(report) == 2
        assert telemetry.failed_loops == 2
        # Everything else was still scheduled.
        total_loops = sum(len(b.loops) for b in mini_suite)
        scheduled = sum(
            len(r.outcomes) for r in result.per_benchmark.values()
        )
        assert scheduled == total_loops - 2

    def test_report_rendering_and_dict(self):
        failure = LoopFailure(
            benchmark="swim",
            loop_name="swim_loop0",
            scheduler="gp",
            error_type="FaultInjected",
            message="injected deterministic failure",
            attempts=1,
        )
        report = FailureReport(failures=(failure,))
        text = report.render()
        assert "swim/swim_loop0" in text and "FaultInjected" in text
        payload = report.to_dict()
        assert payload["failed_loops"] == 1
        assert payload["failures"][0]["loop"] == "swim_loop0"
        assert FailureReport().render() == "no loop failures"
        assert FailureReport().ok

    def test_exhausted_transients_are_reported_not_raised(self, mini_suite):
        victim = mini_suite[0]
        plan = FaultPlan(
            faults=(
                Fault(
                    benchmark=victim.name,
                    loop_name=victim.loops[0].name,
                    kind="raise",
                    attempt=None,
                ),
            )
        )
        # keep_going at jobs=1: still reported, never raised.
        result = run_requests(
            [(_gp(), mini_suite[:1])],
            jobs=1,
            faults=plan,
            keep_going=True,
        )[0]
        assert [f.loop_name for f in result.failures] == [victim.loops[0].name]


class TestMidSubmitBrokenPool:
    """Satellite: ``executor.submit`` itself raising BrokenProcessPool."""

    def _break_pool(self, pool):
        from concurrent.futures import wait

        executor = pool.executor()
        future = executor.submit(_kill_worker)
        wait([future])
        assert future.exception() is not None

    def test_policy_heals_a_pool_broken_before_submit(
        self, mini_suite, fault_free_export
    ):
        pool = EvaluationPool(jobs=2)
        telemetry = RunTelemetry()
        try:
            self._break_pool(pool)
            result = run_requests(
                [(_gp(), mini_suite)], pool=pool, telemetry=telemetry
            )[0]
            assert _canonical(result) == fault_free_export
            assert telemetry.rebuilds == 1
            assert telemetry.degraded_chunks == 0
        finally:
            pool.shutdown()


def _kill_worker():
    import os

    os._exit(CRASH_EXIT_CODE)
