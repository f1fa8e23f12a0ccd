"""Canonical JSON (de)serialization of service responses.

The **result store** persists encoded
:class:`~repro.service.responses.EvaluationResponse` /
:class:`~repro.service.responses.ScheduleResponse` envelopes keyed by
request fingerprint.  Every payload carries one schema tag
(:data:`CODEC_SCHEMA`) and has one canonical text form (:func:`dumps`:
sorted keys, compact separators) — so re-encoding a decoded payload is
byte-identical, which the round-trip property suite enforces and the
store's integrity checks rely on.

An entry is ``{schema, kind, meta, outcome | result}``: it holds **no
request**.  Whoever looks an entry up already holds the request (its
fingerprint is the store key) and answers with it, so no loop is ever
deserialized on a store hit.  Passing the key as ``fingerprint`` binds
the entry to it: an entry whose ``meta.fingerprint`` differs is
rejected like any other damage.

Responses are encoded as their **deterministic result surface**: per-loop
dynamic-operation and cycle counts (the exact integers
:func:`repro.eval.metrics.aggregate_ipc` sums, so recomputed IPC values
are bit-identical), scheduling statistics, register-pressure surfaces and
timing.  Decoding yields real :class:`~repro.eval.runner.SuiteResult` /
:class:`~repro.eval.runner.BenchmarkResult` containers holding
:class:`StoredOutcome` stand-ins — lightweight objects implementing
exactly the surface the figures, tables, exports and metrics consume
(``loop.total_dynamic_operations()``, ``schedule.register_peaks()``,
``schedule.stats`` …), *not* the full schedule object.  Everything the
evaluation artifacts print renders byte-identically from a decoded
response; re-deriving a kernel listing requires rescheduling.

Malformed, truncated, wrong-schema or wrong-key payloads raise
:class:`~repro.errors.CodecError`; the store converts that into a cache
miss, never an error.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import CodecError
from ..eval.retry import ExecutionTelemetry, FailureReport, LoopFailure
from ..eval.runner import BenchmarkResult, SuiteResult
from .responses import EvaluationResponse, ResponseMeta, ScheduleResponse
from .store import StoreTelemetry

#: Schema tag carried on every encoded payload.  Bump on any change to
#: the encoded shape; decoders reject every other version (the store
#: then treats old entries as misses and overwrites them).
CODEC_SCHEMA = "repro-codec/3"


def dumps(payload: Dict[str, Any]) -> str:
    """The canonical text form: sorted keys, compact separators.

    Canonical means *re-encodable*: ``dumps(encode(decode(text)))``
    equals ``text`` byte for byte (floats round-trip exactly through
    ``repr``), so stored entries can be integrity-checked by comparison.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expect(payload: Any, kind: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise CodecError(f"encoded {kind} must be an object, got {type(payload).__name__}")
    if payload.get("schema") != CODEC_SCHEMA:
        raise CodecError(
            f"unsupported {kind} schema {payload.get('schema')!r}; "
            f"this build speaks {CODEC_SCHEMA}"
        )
    return payload


# ----------------------------------------------------------------------
# Stored stand-ins: the consumed result surface, without the schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoredRef:
    """A name-only stand-in for a machine (or any named object)."""

    name: str


@dataclass(frozen=True)
class StoredLoop:
    """A loop's metric surface: its name and total dynamic work."""

    name: str
    dynamic_operations: int

    def total_dynamic_operations(self) -> int:
        return self.dynamic_operations


@dataclass(frozen=True)
class StoredStats:
    """The :class:`~repro.schedule.result.ScheduleStats` counters that
    survive encoding (the exported set plus the feasibility telemetry)."""

    bus_transfers: int = 0
    mem_comms: int = 0
    spills: int = 0
    ii_attempts: int = 0
    feas_cache_hits: int = 0
    feas_cache_scans: int = 0
    ii_trace: Tuple[int, ...] = ()


@dataclass(frozen=True)
class StoredSchedule:
    """A schedule's metric surface (modulo or list, per ``kind``).

    Implements exactly what the evaluation layer reads off a schedule:
    ``ipc()``, ``execution_cycles()``, ``register_peaks()`` (the uniform
    zero surface for list schedules), and — modulo only —
    ``register_cycles()``, ``ii``, ``stage_count`` and ``stats``.
    It cannot be validated or rendered; reschedule for that.
    """

    kind: str  # "modulo" | "list"
    ipc_value: float
    cycles: int
    peaks: Tuple[int, ...]
    ii: int = 0
    stage_count: int = 0
    length: int = 0
    reg_cycles: Tuple[int, ...] = ()
    stats: StoredStats = StoredStats()

    def ipc(self) -> float:
        return self.ipc_value

    def execution_cycles(self) -> int:
        return self.cycles

    def register_peaks(self) -> List[int]:
        return list(self.peaks)

    def register_cycles(self) -> List[int]:
        return list(self.reg_cycles)


@dataclass(frozen=True)
class StoredOutcome:
    """A decoded :class:`~repro.schedule.drivers.ScheduleOutcome` stand-in."""

    loop: StoredLoop
    machine: StoredRef
    schedule: StoredSchedule
    cpu_seconds: float
    scheduler_name: str

    @property
    def is_modulo(self) -> bool:
        return self.schedule.kind == "modulo"

    def ipc(self) -> float:
        return self.schedule.ipc()

    def execution_cycles(self) -> int:
        return self.schedule.execution_cycles()


# ----------------------------------------------------------------------
# Failure reports and telemetry
# ----------------------------------------------------------------------
def encode_failures(failures: Tuple[LoopFailure, ...]) -> List[Dict[str, Any]]:
    return [f.to_dict() for f in failures]


def decode_failures(payload: Any) -> Tuple[LoopFailure, ...]:
    try:
        return tuple(
            LoopFailure(
                benchmark=entry["benchmark"],
                loop_name=entry["loop"],
                scheduler=entry["scheduler"],
                error_type=entry["error_type"],
                message=entry["message"],
                attempts=entry["attempts"],
            )
            for entry in payload
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed failure payload: {error}") from error


def encode_failure_report(report: FailureReport) -> Dict[str, Any]:
    return {"schema": CODEC_SCHEMA, "failures": encode_failures(report.failures)}


def decode_failure_report(payload: Dict[str, Any]) -> FailureReport:
    payload = _expect(payload, "failure report")
    return FailureReport(failures=decode_failures(payload.get("failures", ())))


def _encode_telemetry(telemetry: Optional[ExecutionTelemetry]) -> Any:
    if telemetry is None:
        return None
    payload = asdict(telemetry)
    payload["chunk_attempts"] = list(telemetry.chunk_attempts)
    return payload


def _decode_telemetry(payload: Any) -> Optional[ExecutionTelemetry]:
    if payload is None:
        return None
    try:
        data = dict(payload)
        data["chunk_attempts"] = tuple(data.get("chunk_attempts", ()))
        return ExecutionTelemetry(**data)
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed telemetry payload: {error}") from error


def _encode_store_meta(store: Optional[StoreTelemetry]) -> Any:
    return None if store is None else asdict(store)


def _decode_store_meta(payload: Any) -> Optional[StoreTelemetry]:
    if payload is None:
        return None
    try:
        return StoreTelemetry(**payload)
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed store telemetry payload: {error}") from error


def encode_meta(meta: ResponseMeta) -> Dict[str, Any]:
    return {
        "fingerprint": meta.fingerprint,
        "cache_hit": meta.cache_hit,
        "wall_seconds": meta.wall_seconds,
        "jobs": meta.jobs,
        "validated": meta.validated,
        "telemetry": _encode_telemetry(meta.telemetry),
        "store": _encode_store_meta(meta.store),
    }


def decode_meta(payload: Dict[str, Any]) -> ResponseMeta:
    try:
        return ResponseMeta(
            fingerprint=payload["fingerprint"],
            cache_hit=payload["cache_hit"],
            wall_seconds=payload["wall_seconds"],
            jobs=payload["jobs"],
            validated=payload["validated"],
            telemetry=_decode_telemetry(payload.get("telemetry")),
            store=_decode_store_meta(payload.get("store")),
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed response meta: {error}") from error


# ----------------------------------------------------------------------
# Outcomes and results
# ----------------------------------------------------------------------
def _encode_outcome(outcome) -> Dict[str, Any]:
    schedule = outcome.schedule
    entry: Dict[str, Any] = {
        "loop": outcome.loop.name,
        "dynamic_operations": outcome.loop.total_dynamic_operations(),
        "cycles": outcome.execution_cycles(),
        "ipc": outcome.ipc(),
        "cpu_seconds": outcome.cpu_seconds,
        "scheduler": outcome.scheduler_name,
        "machine": outcome.machine.name,
        "modulo": outcome.is_modulo,
        "register_peaks": list(schedule.register_peaks()),
    }
    if outcome.is_modulo:
        stats = schedule.stats
        entry.update(
            ii=schedule.ii,
            stages=schedule.stage_count,
            register_cycles=list(schedule.register_cycles()),
            bus_transfers=stats.bus_transfers,
            mem_comms=stats.mem_comms,
            spills=stats.spills,
            ii_attempts=stats.ii_attempts,
            feas_cache_hits=stats.feas_cache_hits,
            feas_cache_scans=stats.feas_cache_scans,
            ii_trace=list(stats.ii_trace),
        )
    else:
        entry["length"] = schedule.length
    return entry


def _decode_outcome(entry: Dict[str, Any]) -> StoredOutcome:
    try:
        if entry["modulo"]:
            schedule = StoredSchedule(
                kind="modulo",
                ipc_value=entry["ipc"],
                cycles=entry["cycles"],
                peaks=tuple(entry["register_peaks"]),
                ii=entry["ii"],
                stage_count=entry["stages"],
                reg_cycles=tuple(entry["register_cycles"]),
                stats=StoredStats(
                    bus_transfers=entry["bus_transfers"],
                    mem_comms=entry["mem_comms"],
                    spills=entry["spills"],
                    ii_attempts=entry["ii_attempts"],
                    feas_cache_hits=entry["feas_cache_hits"],
                    feas_cache_scans=entry["feas_cache_scans"],
                    ii_trace=tuple(entry["ii_trace"]),
                ),
            )
        else:
            schedule = StoredSchedule(
                kind="list",
                ipc_value=entry["ipc"],
                cycles=entry["cycles"],
                peaks=tuple(entry["register_peaks"]),
                length=entry["length"],
            )
        return StoredOutcome(
            loop=StoredLoop(
                name=entry["loop"],
                dynamic_operations=entry["dynamic_operations"],
            ),
            machine=StoredRef(name=entry["machine"]),
            schedule=schedule,
            cpu_seconds=entry["cpu_seconds"],
            scheduler_name=entry["scheduler"],
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed outcome payload: {error}") from error


def encode_suite_result(result: SuiteResult) -> Dict[str, Any]:
    return {
        "scheduler": result.scheduler,
        "machine": result.machine,
        "benchmarks": [
            {
                "benchmark": bench.benchmark,
                "scheduler": bench.scheduler,
                "machine": bench.machine,
                "outcomes": [_encode_outcome(o) for o in bench.outcomes],
            }
            # Insertion order is the deterministic merge order; the list
            # form preserves it through sort_keys re-encoding.
            for bench in result.per_benchmark.values()
        ],
        "failures": encode_failures(result.failures),
    }


def decode_suite_result(payload: Dict[str, Any]) -> SuiteResult:
    try:
        result = SuiteResult(
            scheduler=payload["scheduler"],
            machine=payload["machine"],
            failures=decode_failures(payload.get("failures", ())),
        )
        for entry in payload["benchmarks"]:
            result.per_benchmark[entry["benchmark"]] = BenchmarkResult(
                benchmark=entry["benchmark"],
                scheduler=entry["scheduler"],
                machine=entry["machine"],
                outcomes=[_decode_outcome(o) for o in entry["outcomes"]],
            )
        return result
    except CodecError:
        raise
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed suite result payload: {error}") from error


# ----------------------------------------------------------------------
# Response envelopes
# ----------------------------------------------------------------------
def encode_response(
    response: Union[ScheduleResponse, EvaluationResponse]
) -> Dict[str, Any]:
    """A response envelope as a JSON-compatible dict (without its request)."""
    if isinstance(response, EvaluationResponse):
        return {
            "schema": CODEC_SCHEMA,
            "kind": "evaluation",
            "meta": encode_meta(response.meta),
            "result": encode_suite_result(response.result),
        }
    if isinstance(response, ScheduleResponse):
        return {
            "schema": CODEC_SCHEMA,
            "kind": "schedule",
            "meta": encode_meta(response.meta),
            "outcome": _encode_outcome(response.outcome),
        }
    raise CodecError(f"cannot encode response of type {type(response).__name__}")


def decode_response(
    payload: Dict[str, Any], fingerprint: Optional[str] = None
) -> Union[ScheduleResponse, EvaluationResponse]:
    """Rebuild a response envelope; its ``request`` is ``None``.

    Entries hold no request: the caller answers with the request it
    looked the entry up for.  With ``fingerprint`` (that request's
    fingerprint, the store key), an entry stamped with any other
    fingerprint is rejected — it does not answer the key it was filed
    under.
    """
    payload = _expect(payload, "response")
    kind = payload.get("kind")
    try:
        meta = decode_meta(payload["meta"])
        if fingerprint is not None and meta.fingerprint != fingerprint:
            raise CodecError(
                f"entry {fingerprint[:12]} holds a response "
                f"fingerprinted {meta.fingerprint[:12]}"
            )
        if kind == "evaluation":
            return EvaluationResponse(
                request=None,
                result=decode_suite_result(payload["result"]),
                meta=meta,
            )
        if kind == "schedule":
            return ScheduleResponse(
                request=None,
                outcome=_decode_outcome(payload["outcome"]),
                meta=meta,
            )
    except CodecError:
        raise
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed {kind} response: {error}") from error
    raise CodecError(f"unknown response kind {kind!r}")


def dumps_response(
    response: Union[ScheduleResponse, EvaluationResponse]
) -> str:
    """Canonical text of one response (one store entry)."""
    return dumps(encode_response(response))


def loads_response(
    text: str, fingerprint: Optional[str] = None
) -> Union[ScheduleResponse, EvaluationResponse]:
    """Parse canonical response text; :class:`CodecError` on any damage,
    including (with ``fingerprint``) an entry filed under another key."""
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise CodecError(f"response payload is not valid JSON: {error}") from error
    return decode_response(payload, fingerprint)
