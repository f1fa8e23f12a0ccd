"""Property tests: the refiner's two-phase candidate pricing is exact.

The refiner drops a candidate move or swap before previewing it when its
bus transfer count exceeds the incumbent's ``ncomm`` ceiling (phase 1),
and the estimator skips the critical path of a survivor that can at best
tie the incumbent (the tie prune).  Neither may change which candidate
wins.  On generated loops, at every hierarchy level, for both estimators,
every candidate :meth:`Refiner._boundary_candidates` yields must satisfy:

* phase 1 counts the same ``ncomm`` as ``CommState.preview_moves``, and
  the unbounded preview (over each group's boundary records only) prices
  it exactly as a from-scratch estimate of the moved assignment;
* a candidate that phase 1 or a bounded preview drops does not score
  below the incumbent under full, unbounded pricing; and a bounded
  preview that does price it gives the unbounded score.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.machine.presets import four_cluster, two_cluster
from repro.partition.coarsen import build_hierarchy
from repro.partition.estimator import PartitionEstimator
from repro.partition.matching import MATCHERS
from repro.partition.partitioner import MultilevelPartitioner
from repro.partition.pressure import PressureAwareEstimator
from repro.partition.refine import Refiner
from repro.partition.weights import compute_edge_weights
from repro.schedule.mii import mii
from repro.workloads.generator import LoopShape, generate_loop

loop_shapes = st.builds(
    LoopShape,
    num_operations=st.integers(min_value=6, max_value=28),
    mem_ratio=st.floats(min_value=0.1, max_value=0.6),
    depth_bias=st.floats(min_value=0.0, max_value=0.9),
    recurrences=st.integers(min_value=0, max_value=2),
    trip_count=st.integers(min_value=1, max_value=300),
)
seeds = st.integers(min_value=0, max_value=10_000)
machines = st.sampled_from(
    [two_cluster(32), four_cluster(32), four_cluster(64, 2, 2)]
)


def _moves(view, cand):
    gid, target, other = cand
    moves = [(view.level[gid], view.records[gid], target)]
    if other is not None:
        source = view.groups[gid]
        moves.append((view.level[other], view.records[other], source))
    return moves


def _full_score(estimator, assignment, view, cand):
    """The candidate's score from a from-scratch sweep of the moved
    assignment (no session, no boundary records, no bound)."""
    moved = dict(assignment)
    for uids, _records, target in _moves(view, cand):
        for uid in uids:
            moved[uid] = target
    est = estimator.estimate(moved)
    return (est.exec_time, -est.cut_slack, est.cut_edges)


def _incumbents(current, score):
    """Incumbents on both sides of a candidate's score, ties included."""
    exec_time, neg_slack, cut = score
    return [
        current,
        score,
        (exec_time, neg_slack, cut + 1),
        (exec_time, neg_slack + 1, cut),
        (exec_time, neg_slack - 1, cut),
        (exec_time - 1, neg_slack, cut),
        (exec_time + 1, neg_slack, cut),
    ]


def _check_level(refiner, view):
    estimator = refiner.estimator
    session = refiner._session
    session.comm.verify(session.assignment)
    current = refiner._score(session.assignment, loads=session.loads, comm=session.comm)
    # The score carried across levels is the current partition's.
    assert session.score in (None, current)
    for cand in refiner._boundary_candidates(view):
        preview = session.comm.preview_moves(_moves(view, cand))
        assert refiner._candidate_ncomm(view, cand) == preview.ncomm
        score = refiner._preview_score(view, cand)
        assert score == _full_score(estimator, session.assignment, view, cand)
        for incumbent in _incumbents(current, score):
            wins = score < incumbent
            ceiling = estimator.ncomm_ceiling(incumbent[0])
            if ceiling is not None and preview.ncomm > ceiling:
                assert not wins, (cand, incumbent, score)
            bounded = refiner._preview_score(view, cand, incumbent)
            if bounded is None:
                assert not wins, (cand, incumbent, score)
            else:
                assert bounded == score


def _walk_levels(loop, machine, estimator_cls):
    """Partition like MultilevelPartitioner, checking every level."""
    ii = mii(loop, machine)
    weighting = compute_edge_weights(loop, ii, machine.bus_latency)
    hierarchy = build_hierarchy(weighting, machine.num_clusters, MATCHERS["greedy"])
    estimator = estimator_cls(loop, machine, ii)
    refiner = Refiner(estimator, machine)
    partitioner = MultilevelPartitioner(machine)
    groups = partitioner._initial_assignment(hierarchy.coarsest())
    for index in range(hierarchy.num_levels - 1, -1, -1):
        level = hierarchy.levels[index]
        if index < hierarchy.num_levels - 1:
            groups = partitioner._project(hierarchy.levels[index + 1], level, groups)
        view = refiner._bind(level, groups)
        refiner._balance(view)
        _check_level(refiner, view)
        refiner._minimize(view)
        groups = dict(view.groups)
    refiner._session.comm.verify(refiner._session.assignment)
    return refiner._uid_assignment(hierarchy.levels[0], groups)


@settings(max_examples=25, deadline=None)
@given(shape=loop_shapes, seed=seeds, machine=machines)
def test_two_phase_pricing_exact(shape, seed, machine):
    loop = generate_loop("pricing", shape, seed)
    _walk_levels(loop, machine, PartitionEstimator)


@settings(max_examples=15, deadline=None)
@given(shape=loop_shapes, seed=seeds)
def test_two_phase_pricing_exact_pressure_aware(shape, seed):
    loop = generate_loop("pricing-p", shape, seed)
    _walk_levels(loop, four_cluster(32), PressureAwareEstimator)


def test_level_walk_matches_partitioner():
    """The walk above drives the refiner exactly as the partitioner does."""
    loop = generate_loop(
        "pricing-walk",
        LoopShape(40, mem_ratio=0.3, depth_bias=0.4, trip_count=120),
        seed=5,
    )
    machine = four_cluster(32)
    assignment = _walk_levels(loop, machine, PartitionEstimator)
    partition = MultilevelPartitioner(machine).partition(loop, mii(loop, machine))
    assert assignment == partition.assignment
