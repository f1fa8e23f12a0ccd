"""Property tests for the shared structural-analysis core.

Mirror of ``tests/test_analysis_core.py`` for the structural side.  The
contracts enforced here:

* the engine's handed-over :class:`StructuralAnalysis` session (the
  reservation table's occupancy rows plus dependence evidence) is
  *bit-equal* to the reference sweep rebuilt from the raw schedule, for
  every scheduler on every machine shape tried;
* ``validate()`` — which reads the cached session — accepts and rejects
  exactly like ``validate(full_recheck=True)`` on cache-less schedules,
  including under injected structural corruption of FU reservations,
  bus slots and dependence placements;
* a cached session that went stale against the raw schedule is caught
  by the full recheck (and by ``StructuralAnalysis.verify``);
* the candidate-feasibility cache is behaviour-preserving: schedules
  produced with the cache on and off are bit-identical.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.ir.opcodes import OpClass
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.drivers import (
    FixedPartitionScheduler,
    GPScheduler,
    UracamScheduler,
)
from repro.schedule.engine import EngineOptions
from repro.schedule.mrt import BusSlot
from repro.schedule.result import AuxOp, ModuloSchedule, Placed
from repro.schedule.structural_core import StructuralAnalysis, placement_rows
from repro.schedule.values import BusTransfer
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


def _clone(sched: ModuloSchedule) -> ModuloSchedule:
    """A structurally identical schedule with *no* cached sessions."""
    return ModuloSchedule(
        loop=sched.loop,
        machine=sched.machine,
        ii=sched.ii,
        placements=dict(sched.placements),
        values=dict(sched.values),
        aux_ops=list(sched.aux_ops),
        stats=sched.stats,
    )


def _outcome(shape, seed, scheduler_cls=GPScheduler, machine=None, options=None):
    loop = generate_loop("structural-core", shape, seed)
    machine = machine or two_cluster(32)
    kwargs = {"options": options} if options is not None else {}
    return scheduler_cls(machine, **kwargs).schedule(loop)


# ----------------------------------------------------------------------
# Engine handover == reference sweep
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_engine_session_matches_reference_sweep(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    session = sched._structural
    assert session is not None  # the engine attached its table's rows
    reference = StructuralAnalysis.from_schedule(sched)
    assert session.matches(reference)
    session.verify(sched)
    assert session.dep_error is None and session.bus_error is None


@pytest.mark.parametrize(
    "scheduler_cls", [GPScheduler, UracamScheduler, FixedPartitionScheduler]
)
def test_engine_session_matches_on_four_cluster(scheduler_cls):
    outcome = _outcome(
        LoopShape(40, mem_ratio=0.3, depth_bias=0.35, recurrences=1,
                  trip_count=150),
        seed=11,
        scheduler_cls=scheduler_cls,
        machine=four_cluster(32),
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    sched.structural.verify(sched)
    sched.validate()
    sched.validate(full_recheck=True)


def test_attach_structural_rejects_mismatched_ii():
    outcome = _outcome(
        LoopShape(12, mem_ratio=0.3, depth_bias=0.3, trip_count=50), seed=3
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    with pytest.raises(ValueError):
        sched.attach_structural(
            StructuralAnalysis(sched.ii + 1, {}, {}, dep_edges=0)
        )


# ----------------------------------------------------------------------
# Injected structural corruption: cached == full_recheck verdicts
# ----------------------------------------------------------------------
def _corrupt(rng: random.Random, sched: ModuloSchedule) -> str:
    """Apply one random structural corruption in place; returns its name."""
    choice = rng.randrange(6)
    if choice == 0:
        # FU corruption: pile aux memory ops onto one (cluster, cycle)
        # until the port count must overflow.
        cluster = rng.randrange(sched.machine.num_clusters)
        ports = sched.machine.cluster(cluster).mem_units
        for _ in range(ports + 1):
            sched.aux_ops.append(AuxOp("comm_store", -1, cluster, 0))
        return "oversubscribe memory ports"
    if choice == 1:
        # Bus corruption: duplicate an existing transfer (double-booking).
        for value in sched.values.values():
            if value.transfers:
                transfer = value.transfers[0]
                value.transfers.append(
                    BusTransfer(transfer.slot, transfer.dst_cluster)
                )
                return "double-book a bus slot"
        return "noop"
    if choice == 2:
        # Bus corruption: a transfer longer than the II self-overlaps.
        for value in sched.values.values():
            if value.transfers:
                old = value.transfers[0]
                value.transfers[0] = BusTransfer(
                    BusSlot(old.slot.bus, old.slot.start, sched.ii + 1),
                    old.dst_cluster,
                )
                return "self-overlapping transfer"
        return "noop"
    if choice == 3:
        # Dependence corruption: yank a placement far too early.
        uid = rng.choice(sorted(sched.placements))
        placed = sched.placements[uid]
        sched.placements[uid] = Placed(
            placed.cluster, placed.time - rng.randrange(1, 50)
        )
        return "shift placement early"
    if choice == 4:
        # Dependence corruption: strip the communication evidence.
        for value in sched.values.values():
            if value.transfers:
                value.transfers.clear()
                return "strip transfers"
        return "noop"
    for value in sched.values.values():
        if value.uses:
            value.uses.pop()
            return "drop a use record"
    return "noop"


@settings(max_examples=15, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_cached_rejects_corruption_like_full_recheck(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    rng = random.Random(seed)
    # Corrupt a cache-less clone so both paths analyze the same (broken)
    # raw schedule, then compare their verdicts.
    broken = _clone(outcome.schedule)
    what = _corrupt(rng, broken)
    if what == "noop":
        return
    cached_error = full_error = None
    try:
        _clone(broken).validate()
    except ValidationError as error:
        cached_error = error
    try:
        _clone(broken).validate(full_recheck=True)
    except ValidationError as error:
        full_error = error
    assert (cached_error is None) == (full_error is None), (
        f"divergent verdicts after {what!r}: cached={cached_error} "
        f"full={full_error}"
    )
    # The targeted resource corruptions must be *caught* by both paths
    # (dependence corruptions are only violations when the mutated node
    # actually had tight predecessors/evidence — the verdict-equivalence
    # assertion above still covers those).
    if what in (
        "oversubscribe memory ports",
        "double-book a bus slot",
        "self-overlapping transfer",
    ):
        assert cached_error is not None and full_error is not None


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_full_recheck_catches_stale_structural_cache(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    assert sched._structural is not None
    # Mutate the raw schedule *behind* the cached session: an extra aux
    # op changes the FU picture without (necessarily) breaking a bound.
    cluster = random.Random(seed).randrange(sched.machine.num_clusters)
    sched.aux_ops.append(AuxOp("comm_store", -1, cluster, 1))
    with pytest.raises(ValidationError):
        sched.validate(full_recheck=True)
    with pytest.raises(AssertionError):
        sched._structural.verify(sched)


# ----------------------------------------------------------------------
# Placement summary: count + per-cluster uid ranges
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_engine_placement_summary_matches_reference(shape, seed):
    outcome = _outcome(shape, seed)
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    session = sched._structural
    assert session.placements == placement_rows(sched.placements)
    total = sum(count for count, _lo, _hi in session.placements.values())
    assert total == sched.loop.num_operations


def test_cached_placement_pass_rejects_missing_and_bogus_raw_placements():
    outcome = _outcome(
        LoopShape(14, mem_ratio=0.3, depth_bias=0.3, trip_count=60), seed=3
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    # Session-less schedule with a dropped placement: the lazily derived
    # summary comes up one operation short.
    broken = _clone(sched)
    del broken.placements[max(broken.placements)]
    with pytest.raises(ValidationError, match="operations are scheduled"):
        broken.validate()
    # Session-less schedule with an out-of-range cluster.
    broken = _clone(sched)
    uid = min(broken.placements)
    broken.placements[uid] = Placed(97, broken.placements[uid].time)
    with pytest.raises(ValidationError, match="bogus cluster"):
        broken.validate()


def test_corrupted_placement_summary_rejected_by_cached_pass():
    outcome = _outcome(
        LoopShape(14, mem_ratio=0.3, depth_bias=0.3, trip_count=60), seed=5
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    session = sched._structural
    pristine = dict(session.placements)
    # A summary entry on a nonexistent cluster.
    session.placements = dict(pristine)
    session.placements[42] = (1, 0, 0)
    with pytest.raises(ValidationError, match="bogus cluster"):
        sched.validate()
    # A uid range outside the loop's dense [0, n) uid space.
    session.placements = {
        cluster: (count, lo, hi + 1000)
        for cluster, (count, lo, hi) in pristine.items()
    }
    with pytest.raises(ValidationError, match="uids outside"):
        sched.validate()
    # An inflated count (total no longer matches the operation count).
    cluster, (count, lo, hi) = next(iter(pristine.items()))
    session.placements = dict(pristine)
    session.placements[cluster] = (count + 1, lo, hi)
    with pytest.raises(ValidationError, match="operations are scheduled"):
        sched.validate()
    session.placements = pristine
    sched.validate()


@settings(max_examples=10, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_full_recheck_catches_stale_placement_summary(shape, seed):
    outcome = _outcome(shape, seed, machine=four_cluster(64))
    if not outcome.is_modulo:
        return
    sched = outcome.schedule
    assert sched._structural is not None
    # Move one placement to another (valid) cluster behind the cached
    # session: the stale summary still balances, but the paranoid
    # rebuild must notice the divergence.
    uid = min(sched.placements)
    placed = sched.placements[uid]
    sched.placements[uid] = Placed(
        (placed.cluster + 1) % sched.machine.num_clusters, placed.time
    )
    with pytest.raises(ValidationError):
        sched.validate(full_recheck=True)
    with pytest.raises(AssertionError, match="placement summary"):
        sched._structural.verify(sched)


def test_verify_names_the_diverging_quantity():
    outcome = _outcome(
        LoopShape(12, mem_ratio=0.4, depth_bias=0.3, trip_count=50), seed=7
    )
    assert outcome.is_modulo
    sched = outcome.schedule
    session = sched.structural
    reference = StructuralAnalysis.from_schedule(sched)
    assert session.matches(reference)
    session.dep_edges += 1
    with pytest.raises(AssertionError, match="dependence evidence"):
        session.verify(sched)


# ----------------------------------------------------------------------
# Candidate-feasibility cache: behaviour-preserving by construction
# ----------------------------------------------------------------------
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


@settings(max_examples=12, deadline=None)
@given(
    shape=loop_shapes,
    seed=seeds,
    scheduler_cls=st.sampled_from([GPScheduler, UracamScheduler]),
    registers=st.sampled_from([16, 32]),
)
def test_feasibility_cache_is_behaviour_preserving(
    shape, seed, scheduler_cls, registers
):
    """Pruned and unpruned window scans commit identical schedules.

    Tight register files force spill rounds — exactly where the cache
    prunes — so this also exercises the invariance argument (a spill
    only adds FU reservations and never widens a dependence window).
    """
    machine = two_cluster(registers)
    cached = _outcome(
        shape, seed, scheduler_cls=scheduler_cls, machine=machine,
        options=EngineOptions(feas_cache=True, verify_pressure=True),
    )
    plain = _outcome(
        shape, seed, scheduler_cls=scheduler_cls, machine=machine,
        options=EngineOptions(feas_cache=False),
    )
    assert cached.is_modulo == plain.is_modulo
    if not cached.is_modulo:
        return
    assert _fingerprint(cached.schedule) == _fingerprint(plain.schedule)
    # The unpruned engine never consults the cache.
    assert plain.schedule.stats.feas_cache_hits == 0
    cached.schedule.validate(full_recheck=True)


def test_feasibility_cache_prunes_on_spill_heavy_loops():
    """On a register-starved preset the cache actually fires."""
    total_hits = 0
    for seed in range(8):
        loop = generate_loop(
            "feas-cache",
            LoopShape(28, mem_ratio=0.3, depth_bias=0.4, recurrences=1,
                      trip_count=100),
            seed,
        )
        outcome = GPScheduler(four_cluster(16)).schedule(loop)
        if outcome.is_modulo:
            total_hits += outcome.schedule.stats.feas_cache_hits
            assert outcome.schedule.stats.feas_cache_scans > 0
    assert total_hits > 0


def test_structural_analysis_normalizes_array_rows():
    """Row handover accepts array-typed rows and stores plain-int lists."""
    fu = {(0, OpClass.INT): array("q", [1, 0, 2])}
    bus = {0: bytearray([1, 0, 1])}
    session = StructuralAnalysis(3, fu, bus, dep_edges=0)
    assert session.fu_rows[(0, OpClass.INT)] == [1, 0, 2]
    assert type(session.fu_rows[(0, OpClass.INT)]) is list
    assert session.bus_rows[0] == [1, 0, 1]
    assert all(type(x) is int for x in session.bus_rows[0])
