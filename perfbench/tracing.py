"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions of each layer of ``repro`` and records
one span per call: name, start, end, parent span and request id.  A name
is wrapped where its caller looks it up: ``from x import f`` binds early,
so for example ``sms_order`` is patched in ``repro.schedule.engine``, not
in its home module.  Spans stay in memory until the run ends.

Only the benchmark process is traced.  Work that runs in pool workers is
outside the wrappers' reach.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, NamedTuple

#: (module, class or None for a module-level name, attribute, span name).
TARGETS = (
    ("repro.service.session", "ReproService", "schedule", "service.request"),
    ("repro.service.session", "ReproService", "evaluate", "service.request"),
    ("repro.service.session", "ReproService", "warm", "eval.pool_warm"),
    ("repro.service.session", None, "run_requests", "eval.run_requests"),
    ("repro.service.requests", "ScheduleRequest", "fingerprint", "service.fingerprint"),
    ("repro.service.requests", "EvaluationRequest", "fingerprint", "service.fingerprint"),
    ("repro.service.store", "ResultStore", "load", "store.load"),
    ("repro.service.store", "ResultStore", "put", "store.put"),
    ("repro.service.codec", None, "loads_response", "codec.decode"),
    ("repro.service.codec", None, "dumps_response", "codec.encode"),
    ("repro.schedule.drivers", None, "mii", "schedule.mii"),
    ("repro.schedule.drivers", None, "list_schedule", "schedule.listsched"),
    ("repro.schedule.engine", None, "sms_order", "schedule.order"),
    ("repro.schedule.engine", "SchedulingEngine", "attempt", "schedule.engine"),
    ("repro.partition.partitioner", "MultilevelPartitioner", "partition", "partition"),
    ("repro.partition.partitioner", None, "compute_edge_weights", "partition.weights"),
    ("repro.partition.partitioner", None, "build_hierarchy", "partition.coarsen"),
    ("repro.partition.refine", "Refiner", "refine", "partition.refine"),
    ("repro.partition.estimator", "PartitionEstimator", "estimate", "partition.estimate"),
    ("repro.partition.estimator", "CommState", "preview_moves", "partition.preview"),
)

#: Counter bumped when a wrapped call returns something other than None.
SUCCESS_COUNTERS = {"schedule.engine": "schedule.engine.success"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level
    request: int


class LayerTime(NamedTuple):
    calls: int
    total: float  # seconds, children included
    self: float  # seconds, minus the time direct child spans cover


class Tracer:
    """Records spans while installed; :meth:`take` hands them over."""

    def __init__(self) -> None:
        #: Open and finished spans as ``[name, start, end, parent, request]``.
        self._spans: List[list] = []
        self._stack: List[int] = []
        self._patched: list = []
        self.counts: Counter = Counter()
        #: Id stamped on every span; the benchmark sets it per request.
        self.request = 0

    def _wrap(self, name: str, fn):
        spans, stack, counts = self._spans, self._stack, self.counts
        success = SUCCESS_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if success is not None and result is not None:
                counts[success] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; the originals come back on :meth:`uninstall`."""
        for module_name, owner_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            had_own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, had_own, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, had_own, original = self._patched.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def take(self) -> List[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = [Span(*span) for span in self._spans]
        self._spans.clear()
        return spans


def layer_times(spans: List[Span]) -> Dict[str, LayerTime]:
    """Calls, total and self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    calls: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - covered[index]
    return {name: LayerTime(calls[name], total[name], own[name]) for name in calls}


def covered_time(spans: List[Span], names: Iterable[str]) -> float:
    """Seconds spent inside any span named in ``names``, nesting counted once."""
    names = set(names)
    seconds = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            seconds += span.end - span.start
    return seconds


def write_spans(path: str, phases: Dict[str, List[Span]]) -> None:
    """Write every span as one tab-separated line (times in microseconds)."""
    with open(path, "w") as out:
        out.write("phase\tindex\tparent\trequest\tname\tstart_us\tend_us\n")
        for phase, spans in phases.items():
            for index, span in enumerate(spans):
                out.write(
                    f"{phase}\t{index}\t{span.parent}\t{span.request}\t{span.name}"
                    f"\t{span.start * 1e6:.1f}\t{span.end * 1e6:.1f}\n"
                )
