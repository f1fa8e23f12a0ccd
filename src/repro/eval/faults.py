"""Deterministic fault injection for the parallel runner (test/CI only).

A :class:`FaultPlan` names exactly which ``(benchmark, loop, attempt)``
triples misbehave and how, so failure paths are exercised *on purpose*
and reproducibly instead of waiting for real worker deaths:

* ``"crash"`` — the worker process calls ``os._exit`` (the
  ``BrokenProcessPool`` / SIGKILL class of fault);
* ``"raise"`` — the task raises :class:`FaultInjected` (a
  *deterministic* task failure: same input, same exception — the class
  the runner must NOT retry).

``crash`` is a process fault and only fires inside worker processes
(``in_worker=True`` at the injection site); firing it in the caller's
process would kill the test run itself, and the in-process degradation
fallback is exactly the state in which process faults can no longer
occur.  ``raise`` is a property of the task and fires everywhere.

The ``attempt`` key is the chunk's execution count (0-based), so a
crash at attempt 0 models a worker death that clears on resubmission,
wildcard faults (``attempt=None``) model hard failures that only
degradation survives, and the property suites can prove results under
injected crashes are bit-identical to the fault-free run.

Plans serialize to JSON for the CLI's ``--fault-plan`` (the CI
fault-injection smoke job) and generate deterministically from a seed
via :meth:`FaultPlan.from_seed`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ReproError

#: Accepted fault kinds.
FAULT_KINDS = ("crash", "raise")

#: Exit code injected crashes die with (recognizable in worker logs).
CRASH_EXIT_CODE = 13


class FaultInjected(ReproError):
    """The deterministic task failure a ``"raise"`` fault produces."""


@dataclass(frozen=True)
class Fault:
    """One injected misbehaviour at a (benchmark, loop, attempt) site.

    ``attempt=None`` is a wildcard: the fault fires on every execution
    of that loop (a *hard* fault the runner can only survive by
    degrading to in-process execution, where process faults cannot
    fire).
    """

    benchmark: str
    loop_name: str
    kind: str
    attempt: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.attempt is not None and self.attempt < 0:
            raise ReproError(f"fault attempt must be >= 0, got {self.attempt}")

    def matches(self, benchmark: str, loop_name: str, attempt: int) -> bool:
        return (
            self.benchmark == benchmark
            and self.loop_name == loop_name
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, JSON-serializable set of injected faults."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def lookup(
        self, benchmark: str, loop_name: str, attempt: int
    ) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(benchmark, loop_name, attempt):
                return fault
        return None

    def maybe_fire(
        self, benchmark: str, loop_name: str, attempt: int, in_worker: bool
    ) -> None:
        """Fire the planned fault for this site, if any.

        ``raise`` faults fire anywhere (they model the task itself
        failing); ``crash`` is a process fault and fires only with
        ``in_worker=True``.
        """
        fault = self.lookup(benchmark, loop_name, attempt)
        if fault is None:
            return
        if fault.kind == "raise":
            raise FaultInjected(
                f"injected deterministic failure at "
                f"{benchmark}/{loop_name} attempt {attempt}"
            )
        if in_worker:
            os._exit(CRASH_EXIT_CODE)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        suite: Sequence[Any],
        kinds: Sequence[str] = ("crash",),
        count: int = 3,
        attempt: Optional[int] = 0,
    ) -> "FaultPlan":
        """A deterministic plan over ``count`` distinct loops of ``suite``.

        The victim (benchmark, loop) pairs and the kind assigned to each
        are drawn from ``random.Random(seed)``, so the same seed over
        the same suite always yields the same plan.
        """
        sites = [
            (benchmark.name, loop.name)
            for benchmark in suite
            for loop in benchmark.loops
        ]
        if not sites:
            raise ReproError("cannot build a fault plan over an empty suite")
        rng = random.Random(seed)
        chosen = rng.sample(sites, min(count, len(sites)))
        faults = tuple(
            Fault(
                benchmark=bench,
                loop_name=loop,
                kind=kinds[i % len(kinds)],
                attempt=attempt,
            )
            for i, (bench, loop) in enumerate(chosen)
        )
        return cls(faults=faults)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-fault-plan/v1",
            "faults": [
                {
                    "benchmark": fault.benchmark,
                    "loop": fault.loop_name,
                    "kind": fault.kind,
                    "attempt": fault.attempt,
                }
                for fault in self.faults
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        try:
            faults = tuple(
                Fault(
                    benchmark=entry["benchmark"],
                    loop_name=entry["loop"],
                    kind=entry["kind"],
                    attempt=entry.get("attempt", 0),
                )
                for entry in payload["faults"]
            )
        except (KeyError, TypeError) as error:
            raise ReproError(f"malformed fault plan: {error}") from error
        return cls(faults=faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise ReproError(f"cannot read fault plan {path!r}: {error}") from error
