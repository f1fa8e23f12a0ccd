"""The three scheduling algorithms compared in the paper.

All three share the :class:`~repro.schedule.engine.SchedulingEngine` and
differ only in cluster assignment and in how they react when a scheduling
attempt fails at an initiation interval (Figure 1 of the paper):

* :class:`UracamScheduler` — the baseline (Codina et al., PACT'01): no
  pre-partition; every operation tries every cluster and the figure of
  merit picks the winner.  On failure the II is bumped and the attempt
  restarts.
* :class:`FixedPartitionScheduler` — GP variant (a): the multilevel
  partition is computed once (at MII) and the scheduler must follow it
  exactly; any failure bumps the II, keeping the partition.
* :class:`GPScheduler` — GP variant (b), the paper's scheme: the scheduler
  follows the partition but may fall back to other clusters per node; when
  the II is bumped, the partition is recomputed iff its bus bound exceeds
  the new II (``IIbus > II``) — otherwise recomputing cannot help (§3.1).

Every driver measures its own scheduling CPU time (Table 2) and falls back
to list scheduling when the II search space is exhausted (as the paper does
for loops where modulo scheduling becomes inappropriate).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from ..partition.partitioner import MultilevelPartitioner, Partition, trivial_partition
from .engine import (
    AllClustersPolicy,
    AssignedFirstPolicy,
    ClusterPolicy,
    EngineOptions,
    FixedClusterPolicy,
    SchedulingEngine,
)
from .listsched import ListSchedule, list_schedule
from .mii import mii
from .result import ModuloSchedule

#: What a driver produces: a modulo schedule or the list-scheduling fallback.
AnySchedule = Union[ModuloSchedule, ListSchedule]


@dataclass
class ScheduleOutcome:
    """A scheduled loop plus scheduling-cost metadata."""

    loop: Loop
    machine: MachineConfig
    schedule: AnySchedule
    cpu_seconds: float
    scheduler_name: str

    @property
    def is_modulo(self) -> bool:
        return isinstance(self.schedule, ModuloSchedule)

    def ipc(self) -> float:
        return self.schedule.ipc()

    def execution_cycles(self) -> int:
        return self.schedule.execution_cycles()


class BaseScheduler:
    """Common II-search loop shared by the three algorithms."""

    name = "base"

    def __init__(
        self,
        machine: MachineConfig,
        max_ii_span: int = 48,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.machine = machine
        self.max_ii_span = max_ii_span
        self.options = options or EngineOptions()

    # -- per-algorithm hooks ----------------------------------------------
    def _prepare(self, loop: Loop, start_ii: int) -> None:
        """Called once before the II search starts."""

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        raise NotImplementedError

    def _on_failure(self, loop: Loop, failed_ii: int, next_ii: int) -> None:
        """Called after an attempt at ``failed_ii`` fails."""

    # -- driver -------------------------------------------------------------
    def schedule(self, loop: Loop) -> ScheduleOutcome:
        """Schedule ``loop``; never fails (falls back to list scheduling)."""
        started = _time.process_time()
        start_ii = mii(loop, self.machine)
        self._prepare(loop, start_ii)
        attempts = 0
        schedule: AnySchedule
        found: Optional[ModuloSchedule] = None
        ii = start_ii
        step = 1
        consecutive_failures = 0
        feas_hits = feas_scans = 0
        ii_trace = []
        while ii <= start_ii + self.max_ii_span:
            policy = self._policy(loop, ii)
            engine = SchedulingEngine(
                loop, self.machine, ii, policy, self._engine_options(loop)
            )
            attempts += 1
            ii_trace.append(ii)
            found = engine.attempt()
            # Candidate-feasibility cache telemetry survives failed
            # attempts (where most of the spill-round rescanning happens).
            feas_hits += engine.stats.feas_cache_hits
            feas_scans += engine.stats.feas_cache_scans
            if found is not None:
                break
            # Escalate geometrically on stubborn loops: after every three
            # consecutive failures the II step doubles (1,1,2,2,2,4,...),
            # keeping pathological register-bound loops from costing dozens
            # of near-identical attempts.  (Deviation from the paper's
            # implicit II+1 search; affects all three algorithms equally.)
            consecutive_failures += 1
            if consecutive_failures % 3 == 0:
                step *= 2
            next_ii = ii + step
            self._on_failure(loop, ii, next_ii)
            ii = next_ii
        if found is not None:
            found.scheduler_name = self.name
            found.stats.ii_attempts = attempts
            found.stats.partitions_computed = getattr(
                self, "_partitions_computed", 0
            )
            found.stats.feas_cache_hits = feas_hits
            found.stats.feas_cache_scans = feas_scans
            found.stats.ii_trace = tuple(ii_trace)
            if self.options.validate_schedules:
                # Paranoid end-to-end mode (CLI --verify): rebuild the
                # lifetime analysis from the raw ledger and cross-check it
                # against the engine-attached session.
                found.validate(full_recheck=True)
            schedule = found
        else:
            schedule = list_schedule(loop, self.machine)
        elapsed = _time.process_time() - started
        return ScheduleOutcome(
            loop=loop,
            machine=self.machine,
            schedule=schedule,
            cpu_seconds=elapsed,
            scheduler_name=self.name,
        )

    def _engine_options(self, loop: Loop) -> EngineOptions:
        return self.options


def _mem_ops_per_cluster(loop: Loop, partition: Partition) -> Dict[int, int]:
    """Original memory operations each cluster will host (§3.3.4)."""
    counts: Dict[int, int] = {}
    for uid in loop.ddg.uids():
        if loop.ddg.operation(uid).is_memory:
            cluster = partition.assignment[uid]
            counts[cluster] = counts.get(cluster, 0) + 1
    return counts


class UracamScheduler(BaseScheduler):
    """The URACAM baseline: unified assign-and-schedule, no global view."""

    name = "uracam"

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        return AllClustersPolicy(self.machine.num_clusters)


class UnifiedScheduler(UracamScheduler):
    """The unified (1-cluster) upper-bound configuration's scheduler.

    Identical machinery (§3.3 heuristics handle register pressure); with a
    single cluster the policy degenerates to "the one cluster".
    """

    name = "unified"


class FixedPartitionScheduler(BaseScheduler):
    """GP variant (a): schedule must follow the partition exactly."""

    name = "fixed-partition"

    def __init__(
        self,
        machine: MachineConfig,
        max_ii_span: int = 48,
        options: Optional[EngineOptions] = None,
        partitioner: Optional[MultilevelPartitioner] = None,
    ) -> None:
        super().__init__(machine, max_ii_span, options)
        self.partitioner = partitioner or MultilevelPartitioner(machine)
        self.partition: Optional[Partition] = None
        self._partitions_computed = 0
        # (partition, EngineOptions) pair; see _engine_options.
        self._options_cache = None

    def _prepare(self, loop: Loop, start_ii: int) -> None:
        self._partitions_computed = 0
        self._options_cache = None
        self.partition = self._compute_partition(loop, start_ii)

    def _compute_partition(self, loop: Loop, ii: int) -> Partition:
        self._partitions_computed += 1
        if not self.machine.is_clustered:
            return trivial_partition(loop, ii)
        return self.partitioner.partition(loop, ii)

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        assert self.partition is not None
        return FixedClusterPolicy(self.partition.assignment)

    def _engine_options(self, loop: Loop) -> EngineOptions:
        assert self.partition is not None
        # The per-cluster memory-op counts are a pure function of the
        # partition, which only changes when a recompute is adopted — cache
        # them by partition identity so the II search stops re-scanning the
        # loop's operations on every attempt.
        cached = self._options_cache
        if cached is not None and cached[0] is self.partition:
            return cached[1]
        options = replace(
            self.options,
            mem_ops_per_cluster=_mem_ops_per_cluster(loop, self.partition),
        )
        self._options_cache = (self.partition, options)
        return options


class GPScheduler(FixedPartitionScheduler):
    """The paper's GP scheme: partition-guided with selective recompute."""

    name = "gp"

    #: Consecutive rejected recomputations after which GP stops trying —
    #: once higher-II partitions stop pricing better, further ones won't.
    max_futile_recomputes = 2

    def _prepare(self, loop: Loop, start_ii: int) -> None:
        super()._prepare(loop, start_ii)
        self._futile_recomputes = 0

    def _policy(self, loop: Loop, ii: int) -> ClusterPolicy:
        assert self.partition is not None
        return AssignedFirstPolicy(
            self.partition.assignment, self.machine.num_clusters
        )

    def _on_failure(self, loop: Loop, failed_ii: int, next_ii: int) -> None:
        assert self.partition is not None
        if not self.machine.is_clustered:
            return
        if (
            self.partition.ii_bus > next_ii
            and self._futile_recomputes < self.max_futile_recomputes
        ):
            # The bus bound still exceeds the II we are about to try: a new
            # partition can reduce IIbus, so recompute (§3.1) — but adopt it
            # only when it actually prices better than the partition we
            # already have at the new interval, otherwise keep the current
            # one (recomputation at a looser II can over-gather clusters).
            from ..partition.estimator import PartitionEstimator

            candidate = self._compute_partition(loop, next_ii)
            current_price = PartitionEstimator(
                loop, self.machine, next_ii
            ).estimate(self.partition.assignment)
            if candidate.estimate.exec_time < current_price.exec_time:
                self.partition = candidate
                self._futile_recomputes = 0
            else:
                self._futile_recomputes += 1


#: Name -> scheduler class, for the evaluation harness and the CLI examples.
SCHEDULERS = {
    cls.name: cls
    for cls in (UnifiedScheduler, UracamScheduler, FixedPartitionScheduler, GPScheduler)
}
