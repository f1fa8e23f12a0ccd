"""The multilevel graph partitioner (paper §3.2).

Ties the pieces together: weigh edges at the requested II, coarsen by
maximum-weight matching down to one node per cluster, assign coarse nodes to
clusters, then walk the hierarchy back from coarsest to finest refining the
partition at every level (workload balance + cut-impact minimization).

The result also carries the partition's ``IIbus`` — the bus-imposed bound on
the initiation interval — which the GP scheduling driver uses to decide
whether a failed schedule warrants recomputing the partition (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import PartitionError
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .coarsen import Level, build_hierarchy
from .estimator import PartitionEstimate, PartitionEstimator
from .matching import MATCHERS
from .pressure import PressureAwareEstimator
from .refine import GroupAssignment, Refiner
from .weights import compute_edge_weights


@dataclass(frozen=True)
class Partition:
    """A cluster assignment of one loop.

    Attributes:
        assignment: Operation uid -> cluster index.
        ii: Initiation interval the partition was computed for.
        ii_bus: Bus-imposed II bound of this partition (0 when no transfers).
        ncomm: Point-to-point bus transfers the partition implies.
        estimate: Full execution-time estimate of the final assignment.
    """

    assignment: Dict[int, int]
    ii: int
    ii_bus: int
    ncomm: int
    estimate: PartitionEstimate

    def cluster_of(self, uid: int) -> int:
        return self.assignment[uid]


def trivial_partition(loop: Loop, ii: int) -> Partition:
    """Everything on cluster 0 — used for unified machines."""
    assignment = {uid: 0 for uid in loop.ddg.uids()}
    estimate = PartitionEstimate(
        exec_time=0, ii_est=ii, ii_bus=0, ncomm=0, cut_edges=0, critical_path=0
    )
    return Partition(assignment, ii=ii, ii_bus=0, ncomm=0, estimate=estimate)


class MultilevelPartitioner:
    """Graph-partitioning cluster assignment for modulo scheduling.

    Args:
        machine: Target clustered machine.
        matching: ``"greedy"`` (default, METIS-style heavy edge) or
            ``"exact"`` (blossom, LEDA-fidelity).
        pressure_aware: Enable the register-pressure extension
            (:mod:`repro.partition.pressure`).
    """

    def __init__(
        self,
        machine: MachineConfig,
        matching: str = "greedy",
        pressure_aware: bool = False,
    ) -> None:
        if matching not in MATCHERS:
            raise PartitionError(
                f"unknown matcher {matching!r}; choose from {sorted(MATCHERS)}"
            )
        self.machine = machine
        self.matcher = MATCHERS[matching]
        self.pressure_aware = pressure_aware

    # ------------------------------------------------------------------
    def partition(self, loop: Loop, ii: int) -> Partition:
        """Partition ``loop`` for a schedule at initiation interval ``ii``."""
        if not self.machine.is_clustered:
            return trivial_partition(loop, ii)
        if loop.ddg.num_operations == 0:
            return trivial_partition(loop, ii)

        weighting = compute_edge_weights(loop, ii, self.machine.bus_latency)
        hierarchy = build_hierarchy(weighting, self.machine.num_clusters, self.matcher)
        estimator = self._make_estimator(loop, ii)
        refiner = Refiner(estimator, self.machine)

        groups = self._initial_assignment(hierarchy.coarsest())
        for level_index in range(hierarchy.num_levels - 1, -1, -1):
            level = hierarchy.levels[level_index]
            if level_index < hierarchy.num_levels - 1:
                groups = self._project(
                    hierarchy.levels[level_index + 1], level, groups
                )
            groups = refiner.refine(level, groups)

        assignment = self._uid_assignment(hierarchy.levels[0], groups)
        estimate = estimator.estimate(assignment)
        return Partition(
            assignment=assignment,
            ii=ii,
            ii_bus=estimate.ii_bus,
            ncomm=estimate.ncomm,
            estimate=estimate,
        )

    # ------------------------------------------------------------------
    def _make_estimator(self, loop: Loop, ii: int) -> PartitionEstimator:
        if self.pressure_aware:
            return PressureAwareEstimator(loop, self.machine, ii)
        return PartitionEstimator(loop, self.machine, ii)

    def _initial_assignment(self, coarsest: Level) -> GroupAssignment:
        """One coarse node per cluster; overflow goes to the least loaded.

        Coarsening aims at exactly ``num_clusters`` nodes, but disconnected
        graphs can stall with more; those extra groups are placed greedily
        by operation count.
        """
        ordered = sorted(
            coarsest, key=lambda gid: (-len(coarsest[gid]), gid)
        )
        assignment: GroupAssignment = {}
        loads = [0] * self.machine.num_clusters
        for index, gid in enumerate(ordered):
            if index < self.machine.num_clusters:
                cluster = index
            else:
                cluster = min(
                    range(self.machine.num_clusters), key=lambda c: (loads[c], c)
                )
            assignment[gid] = cluster
            loads[cluster] += len(coarsest[gid])
        return assignment

    def _project(
        self, coarser: Level, finer: Level, groups: GroupAssignment
    ) -> GroupAssignment:
        """Induce the finer level's assignment from the coarser one."""
        cluster_of_uid: Dict[int, int] = {}
        for gid, uids in coarser.items():
            cluster = groups[gid]
            for uid in uids:
                cluster_of_uid[uid] = cluster
        projected: GroupAssignment = {}
        for gid, uids in finer.items():
            projected[gid] = cluster_of_uid[uids[0]]
        return projected

    def _uid_assignment(
        self, finest: Level, groups: GroupAssignment
    ) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for gid, uids in finest.items():
            for uid in uids:
                out[uid] = groups[gid]
        return out
