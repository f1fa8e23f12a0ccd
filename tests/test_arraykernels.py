"""A/B property tests for the flat-array hot-path kernels.

The contract under test (see ``repro/schedule/arraykernels.py``): the
dict/list implementations in ``mrt.py`` / ``analysis_core.py`` stay the
reference truth, and the flat-array subclasses change only the storage
layout — so every scheduler must produce **bit-identical** schedules with
``EngineOptions.array_kernels`` on and off, on every machine shape, spills
and cross-cluster communication included.

Also covered here:

* ``validate(full_recheck=True)`` catches corruption of the flat pressure
  ring and of the handed-over occupancy rows (array-backed sessions are
  held to the same divergence check as the reference ones);
* unit-level equivalence of :func:`add_segment_flat` against
  :func:`add_segment_to_ring` and of :class:`ArrayReservationTable`
  against :class:`ReservationTable` under random reserve/release traffic;
* the II-search telemetry (``ii_trace``) and its aggregation.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ValidationError
from repro.ir.opcodes import OpClass
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.arraykernels import (
    ArrayReservationTable,
    ArrayScheduleAnalysis,
    add_segment_flat,
)
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.engine import EngineOptions
from repro.schedule.lifetimes import add_segment_to_ring
from repro.schedule.mrt import BusSlot, FUSlot, ReservationTable
from repro.schedule.result import ModuloSchedule
from repro.schedule.structural_core import StructuralAnalysis
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.spec import extended_suite, spec_suite

#: Forces the pure dict/list reference hot path.
REFERENCE = EngineOptions(array_kernels=False)

TABLE1_MACHINES = [
    two_cluster(32),
    two_cluster(64),
    four_cluster(32),
    four_cluster(64),
]

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=24),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=20, max_value=300),
)
seeds = st.integers(min_value=0, max_value=10_000)

#: Spill-heavy shape on the tight 2x32 preset: forces spill rounds and
#: cross-cluster communication through the array-backed structures.
SPILL_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)


def _fingerprint(sched: ModuloSchedule):
    """Everything that defines a schedule, minus cache telemetry."""
    return (
        sched.ii,
        sorted(sched.placements.items()),
        sorted(
            (
                uid,
                value.home,
                value.birth,
                value.store_time,
                value.spilled,
                [(u.consumer, u.cluster, u.read_time, u.route, u.load_time)
                 for u in value.uses],
                [(t.slot.bus, t.slot.start, t.slot.length, t.dst_cluster)
                 for t in value.transfers],
            )
            for uid, value in sched.values.items()
        ),
        [(a.kind, a.value_producer, a.cluster, a.time) for a in sched.aux_ops],
        (sched.stats.bus_transfers, sched.stats.mem_comms,
         sched.stats.spills, sched.stats.ii_attempts),
    )


def _assert_bit_identical(loop_name, shape, seed, machine, scheduler_cls):
    """Schedule twice from fresh, identical loops; demand equality."""
    a = scheduler_cls(machine).schedule(generate_loop(loop_name, shape, seed))
    b = scheduler_cls(machine, options=REFERENCE).schedule(
        generate_loop(loop_name, shape, seed)
    )
    assert a.is_modulo == b.is_modulo
    if not a.is_modulo:
        return None
    assert _fingerprint(a.schedule) == _fingerprint(b.schedule)
    a.schedule.validate(full_recheck=True)
    return a


# ----------------------------------------------------------------------
# A/B bit-identity: array kernels on/off
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    shape=loop_shapes,
    seed=seeds,
    scheduler_cls=st.sampled_from([GPScheduler, UracamScheduler]),
)
def test_array_kernels_bit_identical_property(shape, seed, scheduler_cls):
    _assert_bit_identical(
        "arraykernels", shape, seed, two_cluster(32), scheduler_cls
    )


@pytest.mark.parametrize(
    "machine", TABLE1_MACHINES, ids=lambda m: m.name
)
def test_table1_machines_paper_loops_bit_identical(machine):
    """Paper-suite loops on every Table 1 configuration, GP scheduler."""
    suite = spec_suite()
    loops = suite[0].loops + suite[5].loops
    for loop_index, loop in enumerate(loops):
        a = GPScheduler(machine).schedule(loop)
        b = GPScheduler(machine, options=REFERENCE).schedule(loop)
        assert a.is_modulo == b.is_modulo
        if a.is_modulo:
            assert _fingerprint(a.schedule) == _fingerprint(b.schedule)
            if loop_index == 0:
                a.schedule.validate(full_recheck=True)


def test_spill_heavy_two_cluster_bit_identical():
    """The spill-transformation path through the array-backed structures.

    The paper's 2x32 preset absorbs this shape without spilling, so the
    spill rounds are forced on a halved register file (2x16); the 2x32
    legs keep the paper preset covered on the same loops.
    """
    for seed in range(2):
        _assert_bit_identical(
            "spillheavy", SPILL_SHAPE, seed, two_cluster(32), GPScheduler
        )
    spills = 0
    for seed in (0, 1, 5, 7):
        outcome = _assert_bit_identical(
            "spillheavy", SPILL_SHAPE, seed, two_cluster(16), GPScheduler
        )
        if outcome is not None:
            spills += outcome.schedule.stats.spills
    # The halved register file actually spills on these seeds — otherwise
    # this test would silently stop covering the spill path.
    assert spills > 0


@pytest.mark.parametrize(
    "scheduler_cls", [GPScheduler, UracamScheduler, FixedPartitionScheduler]
)
def test_extended_sample_bit_identical(scheduler_cls):
    """A slice of the extended tier (bigger bodies) on 4x64."""
    machine = four_cluster(64)
    loops = extended_suite()[0].loops[:3]
    for loop in loops:
        a = scheduler_cls(machine).schedule(loop)
        b = scheduler_cls(machine, options=REFERENCE).schedule(loop)
        assert a.is_modulo == b.is_modulo
        if a.is_modulo:
            assert _fingerprint(a.schedule) == _fingerprint(b.schedule)


# ----------------------------------------------------------------------
# full_recheck divergence on array-backed sessions
# ----------------------------------------------------------------------
def _array_backed_schedule() -> ModuloSchedule:
    outcome = GPScheduler(two_cluster(32)).schedule(
        generate_loop("recheck", SPILL_SHAPE, seed=1)
    )
    assert outcome.is_modulo
    return outcome.schedule


def test_full_recheck_catches_corrupted_flat_ring():
    # Corrupt the engine-attached session *before* the recheck: a passing
    # full_recheck replaces the cached session with its rebuild, so the
    # clean-session case is covered by the bit-identity tests above.
    sched = _array_backed_schedule()
    session = sched._analysis
    assert isinstance(session, ArrayScheduleAnalysis)
    session._counts_flat[0] += 1
    with pytest.raises(ValidationError, match="diverged"):
        sched.validate(full_recheck=True)


def test_full_recheck_catches_corrupted_handover_rows():
    sched = _array_backed_schedule()
    session = sched._structural
    assert session is not None
    key = next(iter(session.fu_rows))
    session.fu_rows[key][0] += 1
    with pytest.raises(ValidationError, match="diverged"):
        sched.validate(full_recheck=True)


def test_structural_analysis_normalizes_array_rows():
    """Row handover accepts array-typed rows and stores plain-int lists."""
    fu = {(0, OpClass.INT): array("q", [1, 0, 2])}
    bus = {0: bytearray([1, 0, 1])}
    session = StructuralAnalysis(3, fu, bus, dep_edges=0)
    assert session.fu_rows[(0, OpClass.INT)] == [1, 0, 2]
    assert type(session.fu_rows[(0, OpClass.INT)]) is list
    assert session.bus_rows[0] == [1, 0, 1]
    assert all(type(x) is int for x in session.bus_rows[0])


# ----------------------------------------------------------------------
# Unit equivalence: flat ring arithmetic and the reservation table
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


def test_array_table_matches_reference_under_random_traffic():
    machine = four_cluster(32)
    rng = random.Random(11)
    for ii in (1, 3, 5):
        ref = ReservationTable(machine, ii)
        arr = ArrayReservationTable(machine, ii)
        reserved_fu, reserved_bus = [], []
        for _ in range(60):
            action = rng.random()
            if action < 0.5:
                slot = FUSlot(
                    cluster=rng.randrange(machine.num_clusters),
                    op_class=rng.choice(list(OpClass)),
                    cycle=rng.randint(0, 3 * ii),
                )
                if ref.fu_free(slot):
                    ref.reserve_fu(slot)
                    arr.reserve_fu(slot)
                    reserved_fu.append(slot)
            elif action < 0.7 and reserved_fu:
                slot = reserved_fu.pop(rng.randrange(len(reserved_fu)))
                ref.release_fu(slot)
                arr.release_fu(slot)
            elif action < 0.9:
                length = rng.randint(1, min(2, ii))
                slot = ref.find_bus_slot(0, 3 * ii, length)
                assert _slot_tuple(slot) == _slot_tuple(
                    arr.find_bus_slot(0, 3 * ii, length)
                )
                if slot is not None:
                    ref.reserve_bus(slot)
                    arr.reserve_bus(slot)
                    reserved_bus.append(slot)
            elif reserved_bus:
                slot = reserved_bus.pop(rng.randrange(len(reserved_bus)))
                ref.release_bus(slot)
                arr.release_bus(slot)
            for cluster in range(machine.num_clusters):
                for op_class in OpClass:
                    assert arr.fu_slots_used(cluster, op_class) == \
                        ref.fu_slots_used(cluster, op_class)
                    for cycle in range(ii):
                        assert arr.fu_free_at(cluster, op_class, cycle) == \
                            ref.fu_free_at(cluster, op_class, cycle)
        assert arr.fu_occupancy_rows() == ref.fu_occupancy_rows()
        assert arr.bus_occupancy_rows() == ref.bus_occupancy_rows()


def _slot_tuple(slot):
    return None if slot is None else (slot.bus, slot.start, slot.length)


def test_fu_probe_surfaces_config_error_out_of_range():
    table = ArrayReservationTable(two_cluster(32), 4)
    with pytest.raises(ConfigError):
        table.fu_free_at(99, OpClass.INT, 0)
    assert table.fu_slots_used(99, OpClass.INT) == 0


def test_bus_saturation_short_circuits_like_reference():
    machine = two_cluster(32)
    ii = 3
    ref = ReservationTable(machine, ii)
    arr = ArrayReservationTable(machine, ii)
    for table in (ref, arr):
        for cycle in range(ii):
            table.reserve_bus(BusSlot(bus=0, start=cycle, length=1))
    assert arr._bus_cycles_in_use == arr._bus_total_flat
    assert ref.find_bus_slot(0, 10, 1) is None
    assert arr.find_bus_slot(0, 10, 1) is None


def test_occupancy_rows_omit_all_zero_rows():
    machine = two_cluster(32)
    arr = ArrayReservationTable(machine, 4)
    assert arr.fu_occupancy_rows() == {}
    assert arr.bus_occupancy_rows() == {}
    slot = FUSlot(cluster=1, op_class=OpClass.INT, cycle=2)
    arr.reserve_fu(slot)
    rows = arr.fu_occupancy_rows()
    assert set(rows) == {(1, OpClass.INT)}
    assert rows[(1, OpClass.INT)] == [0, 0, 1, 0]


def test_pressure_tracker_counts_property_matches_reference_shape():
    tracker = ArrayScheduleAnalysis(4, 2)
    assert tracker.counts == [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert tracker.peaks() == [0, 0]


# ----------------------------------------------------------------------
# II-search telemetry
# ----------------------------------------------------------------------
def test_ii_trace_records_strictly_escalating_search():
    """The driver's II search only ever raises the II: the trace holds
    one entry per attempt, strictly increasing."""
    for seed in range(3):
        outcome = GPScheduler(four_cluster(16)).schedule(
            generate_loop("stock-search", SPILL_SHAPE, seed)
        )
        if not outcome.is_modulo:
            continue
        stats = outcome.schedule.stats
        assert len(stats.ii_trace) == stats.ii_attempts
        assert list(stats.ii_trace) == sorted(set(stats.ii_trace))


def test_ii_search_stats_aggregation():
    from repro.eval.metrics import ii_search_stats

    outcomes = [
        GPScheduler(four_cluster(16)).schedule(
            generate_loop("iis", SPILL_SHAPE, seed)
        )
        for seed in range(3)
    ]
    stats = ii_search_stats(outcomes)
    modulo = [o for o in outcomes if o.is_modulo]
    assert stats["attempts"] == sum(
        o.schedule.stats.ii_attempts for o in modulo
    )
    assert sum(stats["per_ii_attempts"].values()) == stats["attempts"]
    assert set(stats) == {"attempts", "per_ii_attempts"}
