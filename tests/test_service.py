"""The typed service façade: registries, contracts, session semantics.

Covers the error paths (unknown scheduler/machine names, conflicting
request knobs), the deterministic fingerprint (stable across field
order, sensitive to content), the session's fingerprint cache (hit/miss
metadata, payload sharing), the streaming batch interface, and — the
load-bearing guarantee — that façade-built responses are bit-identical
to the legacy ``run_suite`` path at several ``jobs``/``chunksize``
combinations.
"""

import pytest

from repro.eval.export import suite_result_to_json
from repro.eval.runner import run_suite
from repro.machine.presets import two_cluster, unified
from repro.schedule.drivers import GPScheduler
from repro.schedule.engine import EngineOptions
from repro.service import (
    EvaluationRequest,
    Fault,
    FaultPlan,
    MachineRegistry,
    RegistryError,
    ReproService,
    RequestError,
    RetryPolicy,
    ScheduleRequest,
    SchedulerRegistry,
)
from repro.service.registry import MACHINES, SCHEDULERS
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark, spec_suite


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class TestSchedulerRegistry:
    def test_defaults_match_the_paper(self):
        assert SCHEDULERS.names() == [
            "fixed-partition", "gp", "unified", "uracam"
        ]

    def test_create_forwards_options(self):
        options = EngineOptions(verify_pressure=True)
        scheduler = SCHEDULERS.create("gp", two_cluster(64), options=options)
        assert scheduler.name == "gp"
        assert scheduler.options.verify_pressure

    def test_unknown_scheduler_structured_error(self):
        with pytest.raises(RegistryError) as excinfo:
            SCHEDULERS.create("gpp", two_cluster(64))
        error = excinfo.value
        assert error.kind == "scheduler"
        assert error.name == "gpp"
        assert "gp" in error.alternatives
        assert "gp" in str(error)
        # Legacy dict-lookup callers catch KeyError; keep that working.
        assert isinstance(error, KeyError)

    def test_register_decorator_plugs_in(self):
        registry = SchedulerRegistry.with_defaults()

        @registry.register("gp-custom")
        class CustomScheduler(GPScheduler):
            pass

        scheduler = registry.create("gp-custom", two_cluster(64))
        assert isinstance(scheduler, CustomScheduler)
        assert "gp-custom" in registry.names()
        # The module-level default registry is untouched.
        assert "gp-custom" not in SCHEDULERS.names()


class TestMachineRegistry:
    def test_resolves_presets_and_specs(self):
        assert MACHINES.resolve("c6x").num_clusters == 2
        machine = MACHINES.resolve("4x64x2x2")
        assert machine.num_clusters == 4
        assert machine.num_buses == 2
        assert machine.bus_latency == 2

    def test_unknown_machine_lists_alternatives_and_grammar(self):
        with pytest.raises(RegistryError) as excinfo:
            MACHINES.resolve("banana")
        error = excinfo.value
        assert error.kind == "machine"
        assert "c6x" in error.alternatives
        assert any("NxR" in alt for alt in error.alternatives)

    def test_register_decorator_plugs_in(self):
        registry = MachineRegistry.with_defaults()
        registry.register("tiny")(lambda: unified(8))
        assert registry.resolve("tiny").total_registers == 8

    def test_well_formed_but_invalid_spec_keeps_parser_diagnostic(self):
        # "2x33" is valid grammar describing an invalid machine: the
        # parser's message (registers don't divide) must survive, not be
        # masked as an unknown name.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="divide"):
            MACHINES.resolve("2x33")


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_schedule_request_needs_exactly_one_loop_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(machine="2x32")
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(machine="2x32", kernel="daxpy", loop=daxpy())

    def test_schedule_request_unknown_kernel(self):
        with pytest.raises(RequestError, match="unknown kernel"):
            ScheduleRequest(machine="2x32", kernel="nope")

    def test_verify_conflicts_with_explicit_options(self):
        with pytest.raises(RequestError, match="conflicting"):
            ScheduleRequest(
                machine="2x32", kernel="daxpy",
                verify=True, options=EngineOptions(),
            )
        with pytest.raises(RequestError, match="conflicting"):
            EvaluationRequest(
                scheduler="gp", machine="2x32",
                verify=True, options=EngineOptions(),
            )

    def test_evaluation_request_unknown_tier(self):
        with pytest.raises(RequestError, match="unknown suite tier"):
            EvaluationRequest(scheduler="gp", machine="2x32", suite="huge")

    def test_programs_conflicts_with_explicit_suite(self):
        with pytest.raises(RequestError, match="conflicting"):
            EvaluationRequest(
                scheduler="gp", machine="2x32",
                suite=mini_suite(), programs=1,
            )
        with pytest.raises(RequestError, match="programs"):
            EvaluationRequest(scheduler="gp", machine="2x32", programs=-1)

    def test_explicit_suite_normalized_to_tuple(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=list(mini_suite())
        )
        assert isinstance(request.suite, tuple)
        with pytest.raises(RequestError, match="suite"):
            EvaluationRequest(scheduler="gp", machine="2x32", suite=())

    def test_unknown_names_surface_at_service_time(self):
        with ReproService() as service:
            with pytest.raises(RegistryError, match="unknown machine"):
                service.schedule(
                    ScheduleRequest(machine="9z", kernel="daxpy")
                )
            with pytest.raises(RegistryError, match="unknown scheduler"):
                service.evaluate(
                    EvaluationRequest(
                        scheduler="gpp", machine="2x32", suite=mini_suite()
                    )
                )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_stable_across_field_order(self):
        a = EvaluationRequest(
            scheduler="gp", machine="2x32", suite="paper",
            programs=2, validate_each=True,
        )
        b = EvaluationRequest(
            validate_each=True, programs=2, suite="paper",
            machine="2x32", scheduler="gp",
        )
        assert a.fingerprint() == b.fingerprint()

    def test_equal_content_fingerprints_equally(self):
        # Two independently built (but equal) machine/suite objects.
        a = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        b = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        assert a.fingerprint() == b.fingerprint()

    def test_content_changes_the_fingerprint(self):
        base = EvaluationRequest(scheduler="gp", machine="2x32")
        assert base.fingerprint() != EvaluationRequest(
            scheduler="uracam", machine="2x32"
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x64"
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x32", validate_each=True
        ).fingerprint()
        assert base.fingerprint() != EvaluationRequest(
            scheduler="gp", machine="2x32", suite="extended"
        ).fingerprint()

    def test_schedule_and_evaluation_requests_never_collide(self):
        # Same field values, different request kinds.
        a = ScheduleRequest(machine="2x32", kernel="daxpy")
        b = EvaluationRequest(scheduler="gp", machine="2x32")
        assert a.fingerprint() != b.fingerprint()

    def test_spec_string_vs_config_object_are_distinct_identities(self):
        # A symbolic name resolves at execution time; an explicit config
        # pins content.  They are deliberately different fingerprints.
        symbolic = EvaluationRequest(scheduler="gp", machine="2x32")
        pinned = EvaluationRequest(scheduler="gp", machine=two_cluster(32))
        assert symbolic.fingerprint() != pinned.fingerprint()


# ----------------------------------------------------------------------
# Session cache semantics
# ----------------------------------------------------------------------
class TestSessionCache:
    def test_schedule_hit_and_miss(self):
        with ReproService() as service:
            first = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            assert not first.meta.cache_hit
            again = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            assert again.meta.cache_hit
            assert again.outcome is first.outcome
            assert (service.cache_hits, service.cache_misses) == (1, 1)
            other = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy",
                                scheduler="uracam")
            )
            assert not other.meta.cache_hit

    def test_evaluate_hit_and_miss(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            first = service.evaluate(request)
            assert not first.meta.cache_hit
            again = service.evaluate(request)
            assert again.meta.cache_hit
            assert again.result is first.result
            assert again.meta.fingerprint == first.meta.fingerprint

    def test_evaluate_many_dedupes_within_a_batch(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            responses = service.evaluate_many([request, request])
            assert not responses[0].meta.cache_hit
            assert responses[1].meta.cache_hit
            assert responses[0].result is responses[1].result

    def test_validated_metadata_reflects_every_posture(self):
        with ReproService() as service:
            plain = service.schedule(
                ScheduleRequest(machine="2x32", kernel="daxpy")
            )
            assert not plain.meta.validated
            rechecked = service.schedule(
                ScheduleRequest(
                    machine="2x32", kernel="daxpy", full_recheck=True
                )
            )
            assert rechecked.meta.validated
            # The CLI's --verify rides in as explicit options (verify=True
            # with options set is a conflict), and must still read as
            # validated.
            via_options = service.evaluate(
                EvaluationRequest(
                    scheduler="gp", machine="2x32", suite=mini_suite(),
                    options=EngineOptions(
                        verify_pressure=True, validate_schedules=True
                    ),
                )
            )
            assert via_options.meta.validated
            each = service.evaluate(
                EvaluationRequest(
                    scheduler="gp", machine="2x32", suite=mini_suite(),
                    validate_each=True,
                )
            )
            assert each.meta.validated

    def test_cache_does_not_leak_across_sessions(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            assert not service.evaluate(request).meta.cache_hit
        with ReproService() as service:
            assert not service.evaluate(request).meta.cache_hit


# ----------------------------------------------------------------------
# Streaming batches
# ----------------------------------------------------------------------
class TestStreaming:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_submit_and_as_completed(self, jobs):
        requests = [
            EvaluationRequest(
                scheduler=name, machine="2x32", suite=mini_suite()
            )
            for name in ("gp", "uracam", "fixed-partition")
        ]
        with ReproService(jobs=jobs) as service:
            handles = [service.submit(request) for request in requests]
            responses = {
                response.request.scheduler: response
                for response in service.as_completed(handles)
            }
            assert set(responses) == {"gp", "uracam", "fixed-partition"}
            # Streamed results land in the cache and match evaluate().
            replay = service.evaluate(requests[0])
            assert replay.meta.cache_hit
            assert replay.result is responses["gp"].result

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_inflight_submit_shares_the_task(self, jobs):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=jobs) as service:
            first = service.submit(request)
            duplicate = service.submit(request)
            assert duplicate._task is first._task
            assert (service.cache_hits, service.cache_misses) == (1, 1)
            responses = list(service.as_completed([first, duplicate]))
            assert len(responses) == 2
            assert responses[0].result is responses[1].result
            hits = [r.meta.cache_hit for r in responses]
            assert sorted(hits) == [False, True]

    def test_submit_of_cached_request_completes_immediately(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService() as service:
            service.evaluate(request)
            handle = service.submit(request)
            assert handle.done()
            assert handle.response().meta.cache_hit


# ----------------------------------------------------------------------
# Fault tolerance through the session
# ----------------------------------------------------------------------
class TestSessionFaultTolerance:
    def _crash_plan(self):
        suite = mini_suite()
        return FaultPlan(
            faults=(
                Fault(
                    benchmark=suite[0].name,
                    loop_name=suite[0].loops[0].name,
                    kind="crash",
                    attempt=0,
                ),
            )
        )

    def _raise_plan(self):
        suite = mini_suite()
        return FaultPlan(
            faults=(
                Fault(
                    benchmark=suite[0].name,
                    loop_name=suite[0].loops[0].name,
                    kind="raise",
                    attempt=None,
                ),
            )
        )

    def test_telemetry_rides_on_response_meta(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        clean = suite_result_to_json(
            run_suite(list(mini_suite()), GPScheduler(two_cluster(32))),
            timing=False,
        )
        with ReproService(
            jobs=2,
            policy=RetryPolicy(sleep=lambda _s: None),
            faults=self._crash_plan(),
        ) as service:
            response = service.evaluate(request)
            assert response.ok
            assert suite_result_to_json(response.result, timing=False) == clean
            assert response.meta.telemetry is not None
            assert response.meta.telemetry.retries >= 1
            assert not response.meta.telemetry.clean
            assert service.telemetry.retries >= 1
            replay = service.evaluate(request)
            assert replay.meta.cache_hit
            assert replay.meta.telemetry is None  # no work was dispatched

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_reports_and_never_caches_partials(self, jobs):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        victim = mini_suite()[0].loops[0].name
        with ReproService(
            jobs=jobs,
            policy=RetryPolicy(sleep=lambda _s: None),
            faults=self._raise_plan(),
            keep_going=True,
        ) as service:
            response = service.evaluate(request)
            assert not response.ok
            assert [f.loop_name for f in response.failures.failures] == [victim]
            assert "FAILURES" in response.failures.render()
            assert service.failure_report().loops() == [
                (mini_suite()[0].name, victim)
            ]
            # A partial result must be recomputed, never replayed.
            again = service.evaluate(request)
            assert not again.meta.cache_hit

    def test_streamed_submit_heals_transients_too(self):
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        clean = suite_result_to_json(
            run_suite(list(mini_suite()), GPScheduler(two_cluster(32))),
            timing=False,
        )
        with ReproService(
            jobs=2,
            policy=RetryPolicy(sleep=lambda _s: None),
            faults=self._crash_plan(),
        ) as service:
            handle = service.submit(request)
            response = handle.response()
            assert suite_result_to_json(response.result, timing=False) == clean
            assert response.meta.telemetry is not None
            assert response.meta.telemetry.retries >= 1
            assert service.telemetry.retries >= 1


# ----------------------------------------------------------------------
# Façade == legacy, bit for bit
# ----------------------------------------------------------------------
class TestFacadeLegacyEquivalence:
    @pytest.mark.parametrize(
        "jobs,chunksize", [(1, None), (2, None), (2, 1), (3, 7)]
    )
    def test_bit_identical_to_run_suite(self, jobs, chunksize):
        suite = spec_suite()[:2]
        legacy = suite_result_to_json(
            run_suite(suite, GPScheduler(two_cluster(32))), timing=False
        )
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=tuple(suite)
        )
        with ReproService(jobs=jobs, chunksize=chunksize) as service:
            via_evaluate = suite_result_to_json(
                service.evaluate(request).result, timing=False
            )
            via_stream = suite_result_to_json(
                next(
                    iter(service.as_completed([service.submit(
                        EvaluationRequest(
                            scheduler="gp", machine=two_cluster(32),
                            suite=tuple(suite),
                        )
                    )]))
                ).result,
                timing=False,
            )
        assert via_evaluate == legacy
        assert via_stream == legacy

    def test_symbolic_and_pinned_machines_agree(self):
        request_symbolic = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        request_pinned = EvaluationRequest(
            scheduler="gp", machine=two_cluster(32), suite=mini_suite()
        )
        with ReproService() as service:
            a = suite_result_to_json(
                service.evaluate(request_symbolic).result, timing=False
            )
            b = suite_result_to_json(
                service.evaluate(request_pinned).result, timing=False
            )
        assert a == b


# ----------------------------------------------------------------------
# The persistent store seam
# ----------------------------------------------------------------------
class TestSessionStoreSeam:
    def test_store_composes_under_the_memo(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as service:
            computed = service.evaluate(request)
            assert computed.meta.cache_hit is False
            assert computed.meta.store.hit is False
            memo = service.evaluate(request)
            # The repeat hits the in-process memo, not the store.
            assert memo.meta.cache_hit is True
            assert memo.meta.store.hit is False
        # A fresh session over the same store replays persistently.
        with ReproService(jobs=1, store=store) as fresh:
            replayed = fresh.evaluate(request)
            assert replayed.meta.cache_hit is True
            assert replayed.meta.store.hit is True
            assert (
                replayed.result.per_benchmark["mini"].ipc
                == computed.result.per_benchmark["mini"].ipc
            )

    def test_store_spec_string_owned_by_session(self, tmp_path):
        with ReproService(jobs=1, store=f"disk:{tmp_path}/s") as service:
            assert service.store is not None
            assert service.store.name == "disk"
            assert service._owns_store

    def test_schedule_requests_replay_from_store(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = ScheduleRequest(
            kernel="daxpy", machine="2x32", scheduler="gp"
        )
        with ReproService(store=store) as first:
            computed = first.schedule(request)
        with ReproService(store=store) as second:
            replayed = second.schedule(request)
        assert replayed.meta.cache_hit is True
        assert replayed.meta.store.hit is True
        assert replayed.outcome.ipc() == computed.outcome.ipc()

    def test_submit_served_from_store(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as first:
            first.evaluate(request)
        with ReproService(jobs=1, store=store) as second:
            handle = second.submit(request)
            assert handle.done()
            response = handle.response()
            assert response.meta.cache_hit is True
            assert response.meta.store.hit is True

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_results_are_never_persisted(self, jobs):
        from repro.service import MemoryStore

        store = MemoryStore()
        suite = mini_suite()
        plan = FaultPlan(
            faults=(
                Fault(
                    benchmark=suite[0].name,
                    loop_name=suite[0].loops[0].name,
                    kind="raise",
                    attempt=None,
                ),
            )
        )
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=suite
        )
        with ReproService(
            jobs=jobs,
            store=store,
            keep_going=True,
            faults=plan,
            policy=RetryPolicy(sleep=lambda _s: None),
        ) as service:
            response = service.evaluate(request)
            assert not response.ok
        assert store.keys() == []  # the gap must never replay

    def test_corrupted_store_entry_recomputes(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        request = EvaluationRequest(
            scheduler="gp", machine="2x32", suite=mini_suite()
        )
        with ReproService(jobs=1, store=store) as first:
            good = first.evaluate(request)
        store._entries[request.fingerprint()] = '{"schema": "repro-codec/2", tr'
        with ReproService(jobs=1, store=store) as second:
            recomputed = second.evaluate(request)
        assert recomputed.meta.cache_hit is False
        assert recomputed.meta.store.hit is False
        assert (
            recomputed.result.per_benchmark["mini"].ipc
            == good.result.per_benchmark["mini"].ipc
        )
        # The recompute overwrote the corrupt entry with a good one.
        with ReproService(jobs=1, store=store) as third:
            assert third.evaluate(request).meta.store.hit is True


class TestStoreEntries:
    """Store entries hold no request and answer only their own key."""

    def _filled(self, request):
        from repro.service import MemoryStore

        store = MemoryStore()
        with ReproService(store=store) as service:
            computed = service.schedule(request)
        return store, computed

    def test_hit_never_rebuilds_a_loop(self, monkeypatch):
        from repro.ir.ddg import DataDependenceGraph

        request = ScheduleRequest(loop=stencil5(), machine="2x32")
        store, computed = self._filled(request)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a store hit built a dependence graph")

        monkeypatch.setattr(DataDependenceGraph, "__init__", forbidden)
        monkeypatch.setattr(ReproService, "_scheduler_for", forbidden)
        with ReproService(store=store) as service:
            replayed = service.schedule(request)
        assert replayed.meta.store.hit is True
        assert replayed.request is request
        assert replayed.outcome.ipc() == computed.outcome.ipc()

    def test_explicit_loop_entry_holds_no_request(self):
        import json

        request = ScheduleRequest(loop=stencil5(), machine="2x32")
        store, _ = self._filled(request)
        keys = set()

        def walk(node):
            if isinstance(node, dict):
                keys.update(node)
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(json.loads(store.get(request.fingerprint())))
        assert not keys & {"request", "operations", "dependences"}

    def test_entry_under_the_wrong_key_is_a_miss(self):
        right = ScheduleRequest(kernel="daxpy", machine="2x32")
        wrong = ScheduleRequest(kernel="stencil5", machine="2x32")
        store, _ = self._filled(right)
        with ReproService(store=store) as service:
            expected = service.schedule(wrong)
        # File daxpy's (valid) entry under stencil5's key.
        store.put(wrong.fingerprint(), store.get(right.fingerprint()))
        with ReproService(store=store) as service:
            served = service.schedule(wrong)
        assert served.meta.store.hit is False
        assert store.quarantined == 1
        assert served.outcome.loop.name == expected.outcome.loop.name
        assert served.ipc() == expected.ipc()
        with ReproService(store=store) as service:
            assert service.schedule(wrong).meta.store.hit is True

    def test_v1_entry_is_recomputed_and_rewritten_as_v2(self, tmp_path):
        import json
        import os

        from repro.service import CODEC_SCHEMA, DiskStore

        request = ScheduleRequest(loop=stencil5(), machine="2x32")
        store = DiskStore(str(tmp_path / "store"))
        with ReproService(store=store) as service:
            computed = service.schedule(request)
        fingerprint = request.fingerprint()
        old = json.loads(store.get(fingerprint))
        old["schema"] = "repro-codec/1"
        old["request"] = {
            "schema": "repro-codec/1",
            "kind": "schedule",
            "loop": {"name": "stencil5", "operations": [], "dependences": []},
        }
        store.put(fingerprint, json.dumps(old))
        with ReproService(store=store) as service:
            recomputed = service.schedule(request)
        assert recomputed.meta.store.hit is False
        assert store.quarantined == 1
        assert os.listdir(tmp_path / "store" / "quarantine")
        assert recomputed.ipc() == computed.ipc()
        rewritten = json.loads(store.get(fingerprint))
        assert rewritten["schema"] == CODEC_SCHEMA == "repro-codec/2"
        assert "request" not in rewritten


class TestEvaluateManyPerRequestMeta:
    """Regression: per-request ``cache_hit`` in mixed batches."""

    def _requests(self):
        return (
            EvaluationRequest(
                scheduler="gp", machine="2x32", suite=mini_suite()
            ),
            EvaluationRequest(
                scheduler="uracam", machine="2x32", suite=mini_suite()
            ),
        )

    def test_mixed_batch_flags_each_request(self):
        first, second = self._requests()
        with ReproService(jobs=1) as service:
            service.evaluate(first)
            responses = service.evaluate_many([first, second])
        assert responses[0].meta.cache_hit is True
        assert responses[1].meta.cache_hit is False

    def test_duplicates_within_one_batch(self):
        first, _ = self._requests()
        with ReproService(jobs=1) as service:
            responses = service.evaluate_many([first, first])
        # The batch schedules once; the populating occurrence reports
        # the miss, the duplicate reports the hit.
        assert responses[0].meta.cache_hit is False
        assert responses[1].meta.cache_hit is True
        assert responses[0].result is responses[1].result

    def test_mixed_store_hits_flag_per_request(self):
        from repro.service import MemoryStore

        store = MemoryStore()
        first, second = self._requests()
        with ReproService(jobs=1, store=store) as warm:
            warm.evaluate(first)
        with ReproService(jobs=1, store=store) as service:
            responses = service.evaluate_many([first, second])
        assert responses[0].meta.cache_hit is True
        assert responses[0].meta.store.hit is True
        assert responses[1].meta.cache_hit is False
        assert responses[1].meta.store.hit is False


class TestFingerprintCrossProcess:
    def test_fingerprints_stable_across_processes(self):
        """The store key contract: a fingerprint computed in another
        interpreter (different PYTHONHASHSEED) matches this one's."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.service import EvaluationRequest, ScheduleRequest\n"
            "from repro.workloads.kernels import daxpy, stencil5\n"
            "from repro.workloads.spec import Benchmark\n"
            "suite = (Benchmark(name='mini', loops=(daxpy(), stencil5())),)\n"
            "print(EvaluationRequest(scheduler='gp', machine='2x32',"
            " suite=suite).fingerprint())\n"
            "print(EvaluationRequest(scheduler='uracam', machine='c6x',"
            " suite='paper', programs=2).fingerprint())\n"
            "print(ScheduleRequest(kernel='daxpy', machine='2x32',"
            " scheduler='gp').fingerprint())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONHASHSEED"] = "12345"  # different hash randomization
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        child = run.stdout.split()
        local = [
            EvaluationRequest(
                scheduler="gp", machine="2x32", suite=mini_suite()
            ).fingerprint(),
            EvaluationRequest(
                scheduler="uracam", machine="c6x", suite="paper", programs=2
            ).fingerprint(),
            ScheduleRequest(
                kernel="daxpy", machine="2x32", scheduler="gp"
            ).fingerprint(),
        ]
        assert child == local
