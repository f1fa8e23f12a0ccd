"""Perf-trajectory baseline: emits ``BENCH_schedule.json`` at the repo root.

Opt-in (``pytest benchmarks/test_bench_json.py -m bench``) and non-gating:
nothing here asserts a perf threshold — the test only records wall-clock
timings of the Table 2 configurations and the micro components in a
before/after-comparable schema, so future PRs can diff their scheduling
CPU time against the committed baseline.

Schema (``repro-bench/v7``)::

    {
      "schema": "repro-bench/v7",
      "table2": {"<config>": {"<scheduler>": seconds_per_benchmark}},
      "micro":  {"<component>": best_seconds},
      "parallel": {"suite": "extended", "loops": N, "scheduler": "gp",
                   "machine": "<config>", "jobs": J, "cpu_count": C,
                   "oversubscribed": bool, "skipped": bool,
                   "wall_seconds": {"jobs1": s, ["jobsJ": s]}},
      "validate_wall_clock": {"suite": "extended", "machine": "<config>",
                              "scheduler": "gp", "schedules": N,
                              "full_recheck_seconds": s,
                              "cached_seconds": s},
      "structural_validate_wall_clock": {"suite": "extended",
                                         "schedules": N,
                                         "full_sweep_seconds": s,
                                         "cached_seconds": s},
      "feasibility_cache": {"<config>": {"<scheduler>":
                                         {"suite": "paper|extended",
                                          "hits": N, "scans": N,
                                          "hit_rate": r}}},
      "ii_search": {"<config>": {"<scheduler>":
                                 {"suite": "paper|extended",
                                  "attempts": N,
                                  "per_ii_attempts": {"<ii>": N}}}},
      "meta":   {"rounds": N, "ab_rounds": {"gp": N, "uracam": N},
                 "suite_benchmarks": M}
    }

The ``parallel`` section times the whole extended suite (220 loops,
bodies to ~280 ops) through the batch runner, sequentially and with a
worker pool.  ``cpu_count`` is recorded — and ``oversubscribed`` (v4)
flags ``jobs > cpu_count`` outright — because the jobsJ number only
drops below jobs1 when the host actually has spare cores; on a
single-CPU container it measures pool overhead instead.

``validate_wall_clock`` (v3) times ``validate()`` over every modulo
schedule of that extended-tier run, in both modes: ``full_recheck=True``
rebuilds both analysis sessions from the raw schedule per validation
(the pre-session behaviour, now the opt-in paranoid path), while the
cached default reads the ScheduleAnalysis + StructuralAnalysis sessions
each engine attached.

``structural_validate_wall_clock`` (v4) isolates the structural half of
that gap: the cached dependence/FU/bus check over the engine-attached
occupancy rows vs. the from-scratch reference sweep
(``StructuralAnalysis.from_schedule``) over every edge, placement and
transfer.

``feasibility_cache`` (v4, per-scheduler since v5) records the engine's
candidate-feasibility cache telemetry on the 4-cluster presets: the
fraction of ``_window`` slot visits retired because an earlier spill
round proved the slot structurally infeasible.  All three clustered
schedulers are recorded on the spill-heavy 4x32 paper tier.

v5 additions on top:

* ``micro`` gains an interleaved A/B of the flat-array hot-path
  kernels: ``gp_schedule_loop`` / ``uracam_schedule_loop`` run with the
  default engine options (array kernels on) while the ``*_reference``
  twins force the pure dict/list reference path
  (``EngineOptions(array_kernels=False)``).  Both
  time the *engine attempt stage* only — the scheduler's partition and
  policy are prepared once outside the timed region (they are identical
  code in both legs; on medium loops the partitioner is ~75% of an
  end-to-end ``schedule()`` call and would drown the kernel delta) —
  aggregated over a fixed basket of medium/large loops so no single
  workload's scheduling quirks dominate.  The legs alternate within
  every round so machine drift hits both equally; the recorded value is
  mean seconds per engine attempt.
* ``ii_search`` records the II-search telemetry (attempt counts and the
  per-II attempt histogram).
* ``parallel.skipped`` flags a single-CPU host where the pooled timing
  leg was skipped (it would measure contention, not speedup).

v7 drops v6's ``wire`` block (the daemon transport it timed is gone)
and the ``warm_start`` counters from ``ii_search`` (the II-search warm
start is gone).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.eval.figures import table2
from repro.eval.metrics import feasibility_cache_stats, ii_search_stats
from repro.eval.runner import run_suite
from repro.ir.analysis import analyze, rec_mii
from repro.machine.presets import four_cluster, two_cluster
from repro.partition.partitioner import MultilevelPartitioner
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.engine import EngineOptions, SchedulingEngine
from repro.schedule.mii import mii
from repro.schedule.ordering import sms_order
from repro.schedule.structural_core import StructuralAnalysis
from repro.workloads.generator import LoopShape, generate_loop

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_schedule.json"

#: Matches the ``medium_loop`` fixture of test_micro_components.py.
_MEDIUM_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)

#: Engine-dominated body for the A/B micros: the flat-array win grows
#: with the number of slot probes per attempt, so the basket leans on a
#: large loop alongside the medium ones.
_LARGE_SHAPE = LoopShape(
    90, mem_ratio=0.25, depth_bias=0.4, recurrences=2, trip_count=200
)

_MICRO_ROUNDS = 3

#: Forces the pure dict/list reference hot path for the A/B micros.
_REFERENCE_OPTIONS = EngineOptions(array_kernels=False)

#: (shape, seed, interleaved rounds) baskets for the engine-stage A/B.
#: Seeds are deliberately diverse — per-seed deltas range from slightly
#: negative to ~+15% depending on how much slot scanning the attempt
#: does; the aggregate is what the baseline records.
_GP_AB_BASKET = (
    (_MEDIUM_SHAPE, 0, 60),
    (_MEDIUM_SHAPE, 7, 60),
    (_MEDIUM_SHAPE, 11, 60),
    (_LARGE_SHAPE, 3, 60),
    (_LARGE_SHAPE, 7, 40),
)
_URACAM_AB_BASKET = (
    (_MEDIUM_SHAPE, 99, 60),
    (_MEDIUM_SHAPE, 7, 60),
)


def _best_of_cold(fn, rounds=_MICRO_ROUNDS, prep=None):
    """Best wall-clock of ``fn(loop)`` over fresh, identical loops.

    ``rec_mii``/``analyze``/``sms_order`` are memoized per graph object, so
    each round generates a structurally identical but distinct loop — the
    timing measures the cold computation, not a cache hit.  ``prep`` runs
    outside the timed region (e.g. to pre-warm a dependency cache).
    """
    best = float("inf")
    for round_index in range(rounds):
        loop = generate_loop(
            f"bench_medium_{round_index}", _MEDIUM_SHAPE, seed=99
        )
        if prep is not None:
            prep(loop)
        started = time.perf_counter()
        fn(loop)
        best = min(best, time.perf_counter() - started)
    return best


def _engine_ab(scheduler_cls, machine, basket):
    """Interleaved engine-stage A/B over a basket of loops.

    For each ``(shape, seed, rounds)`` entry the scheduler's partition
    and policy are built once, outside the timed region — that stage is
    byte-for-byte the same code in both legs — then ``rounds``
    alternating pairs of :class:`SchedulingEngine` attempts run at
    ``mii + 1``, one with the default options (flat-array kernels + warm
    start), one forcing the dict/list reference path.  Alternating which
    leg goes first inside every round makes clock drift and cache warmth
    hit both configurations symmetrically.  Returns mean seconds per
    attempt for (array, reference).
    """
    array_options = EngineOptions()
    total_a = total_b = 0.0
    total_rounds = 0
    for shape, seed, rounds in basket:
        loop = generate_loop("bench_engine", shape, seed=seed)
        sched = scheduler_cls(machine)
        ii = mii(loop, machine) + 1
        sched._prepare(loop, ii)
        policy = sched._policy(loop, ii)
        # Warm the per-graph memoized analyses so round 0 is not charged
        # for them (they are shared by both legs anyway).
        SchedulingEngine(loop, machine, ii, policy, _REFERENCE_OPTIONS).attempt()
        for round_index in range(rounds):
            legs = [("a", array_options), ("b", _REFERENCE_OPTIONS)]
            if round_index % 2:
                legs.reverse()
            for which, options in legs:
                started = time.perf_counter()
                SchedulingEngine(loop, machine, ii, policy, options).attempt()
                elapsed = time.perf_counter() - started
                if which == "a":
                    total_a += elapsed
                else:
                    total_b += elapsed
        total_rounds += rounds
    return total_a / total_rounds, total_b / total_rounds


@pytest.mark.bench
def test_emit_bench_schedule_json(suite, big_suite, extended_parallel_timings):
    machines = [
        two_cluster(32),
        two_cluster(64),
        four_cluster(32),
        four_cluster(64),
    ]
    result = table2(suite, machines)

    four64 = four_cluster(64)
    partitioner = MultilevelPartitioner(four64)

    micro = {
        "rec_mii": _best_of_cold(lambda loop: rec_mii(loop.ddg)),
        "analyze": _best_of_cold(
            lambda loop: analyze(loop.ddg, rec_mii(loop.ddg)),
            prep=lambda loop: rec_mii(loop.ddg),
        ),
        "sms_order": _best_of_cold(
            lambda loop: sms_order(loop.ddg),
            # Warm the analysis so the timing isolates the ordering itself.
            prep=lambda loop: analyze(loop.ddg, rec_mii(loop.ddg)),
        ),
        "partitioner_four_cluster": _best_of_cold(
            lambda loop: partitioner.partition(loop, mii(loop, four64))
        ),
    }
    # Interleaved A/B: the default engine (flat-array kernels + warm
    # start) against the dict/list reference path, engine stage only,
    # aggregated over the workload baskets.
    gp_array, gp_reference = _engine_ab(GPScheduler, four64, _GP_AB_BASKET)
    uracam_array, uracam_reference = _engine_ab(
        UracamScheduler, four64, _URACAM_AB_BASKET
    )
    micro["gp_schedule_loop"] = gp_array
    micro["gp_schedule_loop_reference"] = gp_reference
    micro["uracam_schedule_loop"] = uracam_array
    micro["uracam_schedule_loop_reference"] = uracam_reference

    timings = extended_parallel_timings
    schedules = [
        outcome.schedule
        for bench in timings["sequential_result"].per_benchmark.values()
        for outcome in bench.outcomes
        if outcome.is_modulo
    ]
    # Cached pass first: the sessions were attached by the engines during
    # the sequential run, exactly as a sweep would see them.
    started = time.perf_counter()
    for schedule in schedules:
        schedule.validate()
    cached_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for schedule in schedules:
        schedule.validate(full_recheck=True)
    full_recheck_seconds = time.perf_counter() - started

    # Structural half in isolation: cached occupancy-row check vs. the
    # reference sweep over every edge, placement and transfer.
    started = time.perf_counter()
    for schedule in schedules:
        schedule.structural.check(schedule.machine)
    structural_cached_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for schedule in schedules:
        StructuralAnalysis.from_schedule(schedule).check(schedule.machine)
    structural_full_seconds = time.perf_counter() - started

    # Candidate-feasibility cache + II-search telemetry on the 4-cluster
    # presets.  The 4x64 numbers ride on the extended-tier sequential run
    # already performed for the parallel timing (its in-process outcomes
    # still carry their ScheduleStats); the spill-heavy 4x32 preset —
    # where the cache concentrates — gets one paper-suite run per
    # clustered scheduler so all three are represented.
    extended_outcomes = [
        outcome
        for bench in timings["sequential_result"].per_benchmark.values()
        for outcome in bench.outcomes
    ]
    four32_machine = four_cluster(32)
    four32_outcomes = {}
    for name, scheduler_cls in (
        ("uracam", UracamScheduler),
        ("fixed-partition", FixedPartitionScheduler),
        ("gp", GPScheduler),
    ):
        run = run_suite(suite, scheduler_cls(four32_machine))
        four32_outcomes[name] = [
            outcome
            for bench in run.per_benchmark.values()
            for outcome in bench.outcomes
        ]
    feasibility = {
        timings["machine"]: {
            timings["scheduler"]: {
                "suite": "extended",
                **feasibility_cache_stats(extended_outcomes),
            }
        },
        four32_machine.name: {
            name: {"suite": "paper", **feasibility_cache_stats(outcomes)}
            for name, outcomes in four32_outcomes.items()
        },
    }
    ii_search = {
        timings["machine"]: {
            timings["scheduler"]: {
                "suite": "extended",
                **ii_search_stats(extended_outcomes),
            }
        },
        four32_machine.name: {
            name: {"suite": "paper", **ii_search_stats(outcomes)}
            for name, outcomes in four32_outcomes.items()
        },
    }

    payload = {
        "schema": "repro-bench/v7",
        "table2": {
            config: dict(result.seconds[config]) for config in result.configs
        },
        "micro": micro,
        "parallel": {
            "suite": "extended",
            "loops": sum(len(b.loops) for b in big_suite),
            "scheduler": timings["scheduler"],
            "machine": timings["machine"],
            "jobs": timings["jobs"],
            "cpu_count": os.cpu_count(),
            "oversubscribed": timings["jobs"] > (os.cpu_count() or 1),
            "skipped": timings["parallel_skipped"],
            "wall_seconds": {
                f"jobs{jobs}": seconds
                for jobs, seconds in timings["wall_seconds"].items()
            },
        },
        "validate_wall_clock": {
            "suite": "extended",
            "machine": timings["machine"],
            "scheduler": timings["scheduler"],
            "schedules": len(schedules),
            "full_recheck_seconds": full_recheck_seconds,
            "cached_seconds": cached_seconds,
        },
        "structural_validate_wall_clock": {
            "suite": "extended",
            "machine": timings["machine"],
            "scheduler": timings["scheduler"],
            "schedules": len(schedules),
            "full_sweep_seconds": structural_full_seconds,
            "cached_seconds": structural_cached_seconds,
        },
        "feasibility_cache": feasibility,
        "ii_search": ii_search,
        "meta": {
            "rounds": _MICRO_ROUNDS,
            "ab_rounds": {
                "gp": sum(rounds for _, _, rounds in _GP_AB_BASKET),
                "uracam": sum(rounds for _, _, rounds in _URACAM_AB_BASKET),
            },
            "suite_benchmarks": len(suite),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert BENCH_PATH.exists()
