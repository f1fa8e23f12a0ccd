"""Equivalence tests for the incremental accounting fast paths.

The scheduling engine and the partition refiner both keep state by delta
(the per-cluster pressure ring / register-cycle totals, and the cut-set /
transfer-pair communication state).  The pure functions they mirror stay
the reference implementation; these tests assert the two never diverge:

* whole schedules run with ``EngineOptions.verify_pressure``, which makes
  the engine cross-check its :class:`ScheduleAnalysis` session against
  ``value_segments`` + ``pressure_by_cycle`` + ``register_cycles`` after
  every commit, every spill and every candidate rollback;
* randomized move sequences drive a :class:`CommState` session and its
  previews against fresh full-sweep derivations;
* the session's candidate preview is checked against mutate-then-rollback;
* the flat ring arithmetic (:func:`add_segment_flat`) is checked against
  :func:`add_segment_to_ring`, and ``validate(full_recheck=True)`` catches
  a corrupted flat ring or corrupted handed-over occupancy rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.machine.presets import four_cluster, two_cluster
from repro.partition.estimator import CommState, PartitionEstimator
from repro.schedule.drivers import GPScheduler, UracamScheduler
from repro.schedule.analysis_core import ScheduleAnalysis, add_segment_flat
from repro.schedule.engine import EngineOptions
from repro.schedule.lifetimes import (
    add_segment_to_ring,
    max_live,
    pressure_by_cycle,
    register_cycles,
)
from repro.schedule.mii import mii
from repro.schedule.values import BusTransfer, Use, ValueState, value_segments
from repro.schedule.mrt import BusSlot
from repro.workloads.generator import LoopShape, generate_loop

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=24),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)

seeds = st.integers(min_value=0, max_value=10_000)

VERIFYING = EngineOptions(verify_pressure=True)

#: Spill-heavy shape: forces spill rounds and cross-cluster communication.
SPILL_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)


# ----------------------------------------------------------------------
# Engine-level equivalence: the tracker is checked at every state change
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_gp_schedules_with_pressure_verification(shape, seed):
    loop = generate_loop("pressure-eq", shape, seed)
    outcome = GPScheduler(two_cluster(32), options=VERIFYING).schedule(loop)
    if outcome.is_modulo:
        outcome.schedule.validate(full_recheck=True)


@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_uracam_schedules_with_pressure_verification(shape, seed):
    # The tiny register file forces spills and dead-transfer releases, the
    # trickiest tracker transitions.
    loop = generate_loop("pressure-eq", shape, seed)
    outcome = UracamScheduler(four_cluster(32), options=VERIFYING).schedule(loop)
    if outcome.is_modulo:
        outcome.schedule.validate(full_recheck=True)


# ----------------------------------------------------------------------
# Tracker unit equivalence on synthetic value states
# ----------------------------------------------------------------------
def _random_value(rng: random.Random, producer: int, clusters: int, ii: int) -> ValueState:
    home = rng.randrange(clusters)
    birth = rng.randrange(0, 3 * ii)
    value = ValueState(producer=producer, home=home, birth=birth)
    for _ in range(rng.randrange(0, 3)):
        start = birth + rng.randrange(0, 2 * ii)
        dst = rng.randrange(clusters)
        if dst == home:
            continue
        value.transfers.append(
            BusTransfer(BusSlot(bus=0, start=start, length=1), dst)
        )
    for consumer in range(rng.randrange(0, 4)):
        if rng.random() < 0.7:
            readable = [home] + [t.dst_cluster for t in value.transfers]
            cluster = rng.choice(readable)
            value.uses.append(
                Use(1000 + consumer, cluster, birth + rng.randrange(1, 3 * ii), "reg")
            )
        else:
            load_time = birth + rng.randrange(1, 2 * ii)
            value.uses.append(
                Use(
                    1000 + consumer,
                    rng.randrange(clusters),
                    load_time + 2 + rng.randrange(0, ii),
                    "mem",
                    load_time=load_time,
                )
            )
    if rng.random() < 0.4:
        value.store_time = birth + rng.randrange(0, ii)
        if rng.random() < 0.5:
            value.spilled = True
    return value


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    ii=st.integers(min_value=1, max_value=9),
    clusters=st.integers(min_value=1, max_value=4),
)
def test_tracker_matches_reference_under_random_mutations(seed, ii, clusters):
    rng = random.Random(seed)
    tracker = ScheduleAnalysis(ii, clusters)
    values = {}
    for producer in range(rng.randrange(1, 8)):
        value = _random_value(rng, producer, clusters, ii)
        values[producer] = value
        tracker.track(value)
    tracker.verify(values.values())

    for _ in range(rng.randrange(1, 6)):
        producer = rng.choice(list(values))
        value = values[producer]
        mutation = rng.random()
        if mutation < 0.4:
            value.uses.append(
                Use(2000, rng.randrange(clusters), value.birth + rng.randrange(1, 2 * ii), "reg")
            )
        elif mutation < 0.7 and value.store_time is None:
            value.store_time = value.birth + rng.randrange(0, ii)
        elif value.transfers:
            value.remove_transfer(rng.choice(value.transfers))
        tracker.update(value)
        tracker.verify(values.values())

    segments = value_segments(values.values())
    assert tracker.reg_cycles == register_cycles(segments, clusters)
    assert tracker.counts == pressure_by_cycle(segments, ii, clusters)
    assert tracker.peaks() == max_live(segments, ii, clusters)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    ii=st.integers(min_value=1, max_value=7),
    clusters=st.integers(min_value=1, max_value=3),
)
def test_preview_effect_equals_mutate_and_rollback(seed, ii, clusters):
    rng = random.Random(seed)
    tracker = ScheduleAnalysis(ii, clusters)
    values = [
        _random_value(rng, producer, clusters, ii) for producer in range(4)
    ]
    for value in values:
        tracker.track(value)
    registers = [rng.randrange(1, 8) for _ in range(clusters)]
    peaks = tracker.peaks()

    victim = rng.choice(values)
    before_counts = [row[:] for row in tracker.counts]
    old_segments = list(tracker.segments_of(victim.producer))
    victim.uses.append(
        Use(3000, rng.randrange(clusters), victim.birth + rng.randrange(1, 2 * ii), "reg")
    )
    new_value = _random_value(rng, 99, clusters, ii)
    changes = [
        (old_segments, -1),
        (value_segments([victim]), +1),
        (value_segments([new_value]), +1),
    ]
    delta, fits = tracker.preview_effect(changes, registers, peaks)
    # The preview must not have mutated anything.
    assert tracker.counts == before_counts

    # Reference: apply for real, compare, then roll back with the
    # snapshot primitives.
    before_cycles = list(tracker.reg_cycles)
    tracker.update(victim)
    tracker.track(new_value)
    assert [
        tracker.reg_cycles[c] - before_cycles[c] for c in range(clusters)
    ] == delta
    assert tracker.fits(registers) == fits
    tracker.forget(new_value.producer)
    tracker.set_segments(victim.producer, old_segments)
    assert tracker.counts == before_counts
    assert tracker.reg_cycles == before_cycles


# ----------------------------------------------------------------------
# Flat ring layout
# ----------------------------------------------------------------------
def test_add_segment_flat_matches_reference_ring():
    rng = random.Random(7)
    for _ in range(200):
        ii = rng.randint(1, 9)
        clusters = rng.randint(1, 3)
        flat = [0] * (clusters * ii)
        rings = [[0] * ii for _ in range(clusters)]
        for _ in range(rng.randint(1, 12)):
            cluster = rng.randrange(clusters)
            birth = rng.randint(0, 40)
            length = rng.randint(1, 3 * ii)
            sign = rng.choice((1, -1))
            add_segment_flat(flat, cluster * ii, birth, length, ii, sign)
            add_segment_to_ring(rings[cluster], birth, length, ii, sign)
        for cluster in range(clusters):
            assert flat[cluster * ii:(cluster + 1) * ii] == rings[cluster]


def test_counts_property_matches_reference_shape():
    tracker = ScheduleAnalysis(4, 2)
    assert tracker.counts == [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert tracker.peaks() == [0, 0]


def _engine_schedule():
    outcome = GPScheduler(two_cluster(32)).schedule(
        generate_loop("recheck", SPILL_SHAPE, seed=1)
    )
    assert outcome.is_modulo
    return outcome.schedule


def test_full_recheck_catches_corrupted_flat_ring():
    # Corrupt the engine-attached session *before* the recheck: a passing
    # full_recheck replaces the cached session with its rebuild.
    sched = _engine_schedule()
    sched._analysis._ring[0] += 1
    with pytest.raises(ValidationError, match="diverged"):
        sched.validate(full_recheck=True)


def test_full_recheck_catches_corrupted_handover_rows():
    sched = _engine_schedule()
    session = sched._structural
    assert session is not None
    key = next(iter(session.fu_rows))
    session.fu_rows[key][0] += 1
    with pytest.raises(ValidationError, match="diverged"):
        sched.validate(full_recheck=True)


# ----------------------------------------------------------------------
# Communication-state equivalence (partition refinement fast path)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(shape=loop_shapes, seed=seeds, clusters=st.sampled_from([2, 4]))
def test_comm_state_matches_full_sweep_under_random_moves(shape, seed, clusters):
    loop = generate_loop("comm-eq", shape, seed)
    machine = two_cluster(64) if clusters == 2 else four_cluster(64)
    estimator = PartitionEstimator(loop, machine, ii=mii(loop, machine))
    rng = random.Random(seed)
    uids = loop.ddg.uids()
    assignment = {uid: rng.randrange(clusters) for uid in uids}
    state = CommState(estimator, assignment)
    state.verify(assignment)

    for _ in range(8):
        moved = rng.sample(uids, k=min(len(uids), rng.randrange(1, 4)))
        target = rng.randrange(clusters)

        # Preview first: it must predict exactly what the move produces.
        records = state.records_for(moved)
        preview = estimator.estimate_preview(
            state.preview_moves([(moved, records, target)]),
            cluster_class_counts=_counts(loop, assignment, moved, target, machine),
        )

        for uid in moved:
            assignment[uid] = target
        state.move_uids(moved, target)
        state.verify(assignment)

        reference = estimator.estimate(assignment)
        assert preview == reference
        with_state = estimator.estimate(assignment, comm_state=state)
        assert with_state == reference


def _counts(loop, assignment, moved, target, machine):
    """Cluster/class counts as they stand *after* the move."""
    from repro.partition.estimator import _CLASS_INDEX

    after = dict(assignment)
    for uid in moved:
        after[uid] = target
    counts = [[0] * len(_CLASS_INDEX) for _ in range(machine.num_clusters)]
    for uid in loop.ddg.uids():
        counts[after[uid]][_CLASS_INDEX[loop.ddg.operation(uid).op_class]] += 1
    return counts
