"""The canonical response codec: round-trip fidelity and schema checks.

The codec backs the disk store, so the load-bearing properties are:
(1) encode → decode → encode is byte-identical (canonical form is a
fixed point); (2) a decoded response renders every artifact surface —
export JSON, per-benchmark IPC, Table 2 fields — identically to the
original; (3) entries hold no request, and an entry is bound to the key
it answers; (4) malformed/truncated/wrong-schema/wrong-key payloads raise
:class:`CodecError`, never decode garbage; (5) ``repro-codec/1`` entries,
which carried a full request body, are rejected.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.eval.export import suite_result_to_json
from repro.eval.retry import ExecutionTelemetry, FailureReport, LoopFailure
from repro.service import (
    CODEC_SCHEMA,
    EvaluationRequest,
    ReproService,
    ScheduleRequest,
    dumps_response,
    loads_response,
)
from repro.service.codec import decode_response, encode_response
from repro.service.responses import EvaluationResponse, ScheduleResponse
from repro.workloads.kernels import daxpy, stencil5
from repro.workloads.spec import Benchmark


def mini_suite():
    return (Benchmark(name="mini", loops=(daxpy(), stencil5())),)


@pytest.fixture(scope="module")
def service():
    with ReproService(jobs=1) as svc:
        yield svc


@pytest.fixture(scope="module")
def evaluation_response(service):
    return service.evaluate(
        EvaluationRequest(scheduler="gp", machine="2x32", suite=mini_suite())
    )


@pytest.fixture(scope="module")
def schedule_response(service):
    return service.schedule(
        ScheduleRequest(kernel="daxpy", machine="2x32", scheduler="gp")
    )


class TestResponseRoundTrip:
    def test_reencode_is_byte_identical(self, evaluation_response):
        text = dumps_response(evaluation_response)
        again = dumps_response(loads_response(text))
        assert text == again

    def test_schedule_reencode_is_byte_identical(self, schedule_response):
        text = dumps_response(schedule_response)
        assert dumps_response(loads_response(text)) == text

    def test_export_json_identical(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        assert suite_result_to_json(decoded.result) == suite_result_to_json(
            evaluation_response.result
        )

    def test_metric_surface_identical(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        original = evaluation_response.result
        result = decoded.result
        assert result.average_ipc == original.average_ipc
        assert result.scheduler == original.scheduler
        assert result.machine == original.machine
        assert result.total_cpu_seconds == original.total_cpu_seconds
        for name, bench in original.per_benchmark.items():
            assert result.per_benchmark[name].ipc == bench.ipc
            assert (
                result.per_benchmark[name].modulo_fraction
                == bench.modulo_fraction
            )

    def test_schedule_outcome_surface(self, schedule_response):
        decoded = loads_response(dumps_response(schedule_response))
        outcome = decoded.outcome
        original = schedule_response.outcome
        assert outcome.ipc() == original.ipc()
        assert outcome.execution_cycles() == original.execution_cycles()
        assert outcome.is_modulo == original.is_modulo
        assert outcome.loop.name == original.loop.name
        if original.is_modulo:
            assert outcome.schedule.ii == original.schedule.ii
            assert (
                outcome.schedule.register_peaks()
                == original.schedule.register_peaks()
            )
            assert (
                outcome.schedule.stats.bus_transfers
                == original.schedule.stats.bus_transfers
            )

    def test_meta_round_trips(self, evaluation_response):
        decoded = loads_response(dumps_response(evaluation_response))
        assert decoded.meta.fingerprint == evaluation_response.meta.fingerprint
        assert decoded.meta.cache_hit == evaluation_response.meta.cache_hit
        assert decoded.meta.validated == evaluation_response.meta.validated
        assert decoded.meta.jobs == evaluation_response.meta.jobs

    def test_paper_tier_response_round_trips(self):
        # One real paper-tier benchmark (the acceptance-level payload).
        from repro.workloads.spec import make_benchmark

        with ReproService(jobs=1) as svc:
            response = svc.evaluate(
                EvaluationRequest(
                    scheduler="uracam",
                    machine="2x32",
                    suite=(make_benchmark("tomcatv"),),
                )
            )
        text = dumps_response(response)
        decoded = loads_response(text)
        assert dumps_response(decoded) == text
        assert (
            decoded.result.per_benchmark["tomcatv"].ipc
            == response.result.per_benchmark["tomcatv"].ipc
        )


class TestKeyBinding:
    def test_entry_holds_no_request(self, schedule_response):
        text = dumps_response(schedule_response)
        assert set(json.loads(text)) == {"schema", "kind", "meta", "outcome"}
        assert loads_response(text).request is None

    def test_entry_decodes_under_its_own_key(self, evaluation_response):
        fingerprint = evaluation_response.meta.fingerprint
        decoded = loads_response(
            dumps_response(evaluation_response), fingerprint
        )
        assert decoded.meta.fingerprint == fingerprint

    def test_wrong_key_rejected(self, schedule_response, evaluation_response):
        text = dumps_response(schedule_response)
        other = evaluation_response.meta.fingerprint
        with pytest.raises(CodecError, match="fingerprinted"):
            loads_response(text, other)


class TestFailuresAndTelemetry:
    def _failure(self, index):
        return LoopFailure(
            benchmark=f"bench{index}",
            loop_name=f"loop{index}",
            scheduler="gp",
            kind="deterministic" if index % 2 else "transient",
            error_type="LoopTaskError",
            message=f"boom {index}",
            attempts=index + 1,
        )

    def test_failure_report_round_trips(self):
        from repro.service.codec import (
            decode_failure_report,
            encode_failure_report,
        )

        report = FailureReport(
            failures=tuple(self._failure(i) for i in range(3))
        )
        decoded = decode_failure_report(encode_failure_report(report))
        assert decoded == report

    @given(
        chunks=st.integers(0, 50),
        retries=st.integers(0, 9),
        chunk_attempts=st.lists(st.integers(1, 4), max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_telemetry_round_trips(self, chunks, retries, chunk_attempts):
        from repro.service.codec import _decode_telemetry, _encode_telemetry

        telemetry = ExecutionTelemetry(
            chunks=chunks,
            attempts=chunks + retries,
            retries=retries,
            rebuilds=retries // 2,
            deadline_hits=retries // 3,
            degraded_chunks=0,
            failed_loops=0,
            chunk_attempts=tuple(chunk_attempts),
        )
        assert _decode_telemetry(_encode_telemetry(telemetry)) == telemetry


class TestSchemaChecks:
    def test_wrong_schema_rejected(self, evaluation_response):
        payload = encode_response(evaluation_response)
        payload["schema"] = "repro-codec/0"
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_truncated_text_rejected(self, evaluation_response):
        text = dumps_response(evaluation_response)
        with pytest.raises(CodecError):
            loads_response(text[: len(text) // 2])

    def test_non_json_rejected(self):
        with pytest.raises(CodecError):
            loads_response("not json at all {")

    def test_non_object_rejected(self):
        with pytest.raises(CodecError):
            loads_response(json.dumps([1, 2, 3]))

    def test_unknown_kind_rejected(self, evaluation_response):
        payload = encode_response(evaluation_response)
        payload["kind"] = "mystery"
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_missing_field_rejected(self, evaluation_response):
        payload = json.loads(dumps_response(evaluation_response))
        del payload["result"]
        with pytest.raises(CodecError):
            decode_response(payload)

    def test_schema_constant_is_versioned(self):
        assert CODEC_SCHEMA == "repro-codec/2"


class TestV1Entries:
    """``repro-codec/1`` entries carried the full request (loops by
    content) next to the outcome.  This build rejects them, so the store
    treats them as misses and rewrites them in the current schema."""

    @pytest.mark.parametrize("kind", ["schedule", "evaluation"])
    def test_v1_entry_is_rejected(
        self, kind, schedule_response, evaluation_response
    ):
        response = (
            schedule_response if kind == "schedule" else evaluation_response
        )
        old = json.loads(dumps_response(response))
        old["schema"] = "repro-codec/1"
        old["request"] = {"schema": "repro-codec/1", "kind": kind}
        with pytest.raises(CodecError, match="repro-codec/1"):
            loads_response(json.dumps(old))
