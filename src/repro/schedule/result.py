"""Schedule results and independent validation.

:class:`ModuloSchedule` is the product of every scheduler in this library.
Besides the kernel (operation placements at absolute issue cycles, reduced
modulo II for the reservation tables) it carries the auxiliary operations
the scheduler inserted (spill stores/loads, communication stores/loads), the
bus transfers, and the value-use ledger from which register lifetimes
derive.

:meth:`ModuloSchedule.validate` re-checks the whole schedule — every
dependence (including the communication evidence for cross-cluster
values), every functional-unit and bus capacity, and the per-cluster
MaxLives register bound — raising
:class:`~repro.errors.ValidationError` on any violation.  The test suite
property-tests that every scheduler's output validates.

Both halves of the check read engine-attached sessions instead of
re-deriving from the raw schedule:

* register lifetimes come from the schedule's
  :class:`~repro.schedule.analysis_core.ScheduleAnalysis` session, so
  ``validate()`` reads cached peaks instead of re-deriving every
  lifetime;
* the dependence/functional-unit/bus passes read the schedule's
  :class:`~repro.schedule.structural_core.StructuralAnalysis` session —
  the reservation-table occupancy rows and dependence evidence the
  engine maintained while scheduling — instead of sweeping every edge
  and placement per schedule.

Schedules without sessions (deserialized, hand-built) derive both
lazily from the raw schedule, reproducing the seed's from-scratch
verdicts.  ``validate(full_recheck=True)`` is the paranoid mode: it
rebuilds both sessions from the raw schedule, raises if a cached
session diverged from its rebuild, and validates against the rebuilds —
the default for the property-test suite, opt-in for sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ValidationError
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .analysis_core import ScheduleAnalysis
from .structural_core import StructuralAnalysis
from .values import (
    LOAD_LATENCY,
    STORE_LATENCY,
    ValueState,
)


@dataclass(frozen=True)
class Placed:
    """Placement of one loop operation."""

    cluster: int
    time: int  # absolute issue cycle (may be negative before normalization)


@dataclass(frozen=True)
class AuxOp:
    """An operation inserted by the scheduler (spill or memory comm)."""

    kind: str  # 'spill_store' | 'spill_load' | 'comm_store' | 'comm_load'
    value_producer: int
    cluster: int
    time: int

    @property
    def is_store(self) -> bool:
        return self.kind.endswith("store")


@dataclass
class ScheduleStats:
    """Counters the evaluation section reports on."""

    bus_transfers: int = 0
    mem_comms: int = 0
    spills: int = 0
    ii_attempts: int = 0
    partitions_computed: int = 0
    #: Candidate-feasibility cache telemetry: window slots skipped because
    #: a previous spill round proved them structurally infeasible, vs.
    #: slots actually evaluated.  Aggregated across every engine attempt
    #: of the II search (failed attempts included); purely observational —
    #: never exported, so artifacts stay bit-identical.
    feas_cache_hits: int = 0
    feas_cache_scans: int = 0
    #: II-search telemetry (purely observational, never exported): the
    #: exact sequence of IIs attempted.
    ii_trace: Tuple[int, ...] = ()


@dataclass
class ModuloSchedule:
    """A complete modulo schedule of one loop on one machine."""

    loop: Loop
    machine: MachineConfig
    ii: int
    placements: Dict[int, Placed]
    values: Dict[int, ValueState]
    aux_ops: List[AuxOp] = field(default_factory=list)
    stats: ScheduleStats = field(default_factory=ScheduleStats)
    scheduler_name: str = ""

    def __post_init__(self) -> None:
        self._analysis: Optional[ScheduleAnalysis] = None
        self._structural: Optional[StructuralAnalysis] = None

    # ------------------------------------------------------------------
    # Shared lifetime analysis
    # ------------------------------------------------------------------
    @property
    def analysis(self) -> ScheduleAnalysis:
        """The schedule's lifetime-analysis session (built once, cached).

        The engine attaches the session it maintained during scheduling;
        schedules without one (deserialized, hand-built) derive it lazily
        from the raw value ledger.  Everything register-shaped — the
        validator, :meth:`register_peaks`, the evaluation metrics and
        exports — reads off this one session.
        """
        if self._analysis is None:
            self._analysis = ScheduleAnalysis.from_values(
                self.values, self.ii, self.machine.num_clusters
            )
        return self._analysis

    def attach_analysis(self, analysis: ScheduleAnalysis) -> None:
        """Adopt an engine-maintained analysis session as the cache."""
        if analysis.ii != self.ii:
            raise ValueError(
                f"analysis computed at II {analysis.ii}, schedule has {self.ii}"
            )
        self._analysis = analysis

    # ------------------------------------------------------------------
    # Shared structural analysis
    # ------------------------------------------------------------------
    @property
    def structural(self) -> StructuralAnalysis:
        """The schedule's structural-analysis session (built once, cached).

        The engine hands over its reservation table's occupancy rows and
        dependence evidence; schedules without a session (deserialized,
        hand-built) derive it lazily from the raw schedule via the
        reference sweeps.  The dependence/FU/bus validator passes read
        off this one session.
        """
        if self._structural is None:
            self._structural = StructuralAnalysis.from_schedule(self)
        return self._structural

    def attach_structural(self, structural: StructuralAnalysis) -> None:
        """Adopt an engine-maintained structural session as the cache."""
        if structural.ii != self.ii:
            raise ValueError(
                f"structural analysis computed at II {structural.ii}, "
                f"schedule has {self.ii}"
            )
        self._structural = structural

    def __getstate__(self) -> Dict[str, Any]:
        # Both sessions are derived state: drop them so pickled schedules
        # (worker -> parent transfers in the parallel runner) stay small;
        # the receiver rebuilds them lazily and bit-identically.
        state = dict(self.__dict__)
        state["_analysis"] = None
        state["_structural"] = None
        return state

    # ------------------------------------------------------------------
    # Shape metrics
    # ------------------------------------------------------------------
    @property
    def min_time(self) -> int:
        times = [p.time for p in self.placements.values()]
        times += [a.time for a in self.aux_ops]
        return min(times) if times else 0

    @property
    def makespan(self) -> int:
        """Cycles from the first issue to the last result, one iteration."""
        if not self.placements:
            return 0
        lo = self.min_time
        hi = max(
            p.time + self.loop.ddg.operation(uid).latency
            for uid, p in self.placements.items()
        )
        for aux in self.aux_ops:
            lat = STORE_LATENCY if aux.is_store else LOAD_LATENCY
            hi = max(hi, aux.time + lat)
        return hi - lo

    @property
    def stage_count(self) -> int:
        """Kernel stages (the software pipeline depth)."""
        if not self.placements:
            return 1
        lo = self.min_time
        return max(
            (p.time - lo) // self.ii for p in self.placements.values()
        ) + 1

    def execution_cycles(self, trip_count: Optional[int] = None) -> int:
        """Total cycles to run the loop, prolog and epilog included.

        ``(niter - 1) * II`` kernel initiations plus the span of the last
        iteration — the standard static cycle count for a software-pipelined
        loop with a high trip count.
        """
        niter = self.loop.trip_count if trip_count is None else trip_count
        return (niter - 1) * self.ii + self.makespan

    def ipc(self, trip_count: Optional[int] = None) -> float:
        """Useful (original-loop) operations per cycle."""
        niter = self.loop.trip_count if trip_count is None else trip_count
        cycles = self.execution_cycles(niter)
        if cycles <= 0:
            return 0.0
        return niter * self.loop.num_operations / cycles

    def register_peaks(self) -> List[int]:
        """MaxLives per cluster (off the cached analysis session)."""
        return self.analysis.peaks()

    def register_cycles(self) -> List[int]:
        """Total register-cycles per cluster (off the cached analysis)."""
        return list(self.analysis.reg_cycles)

    # ------------------------------------------------------------------
    # Independent validation
    # ------------------------------------------------------------------
    def validate(self, full_recheck: bool = False) -> None:
        """Re-verify placements, dependences, resources and registers.

        Every pass reads the cached sessions: the placement and
        dependence/functional-unit/bus checks come off the
        :attr:`structural` session (the placement pass reads a
        per-cluster count/uid-range summary in O(clusters) — no pass
        sweeps every uid, edge or placement any more) and the register
        bound reads the cached :attr:`analysis` session.  With
        ``full_recheck=True`` both sessions are rebuilt from the raw
        schedule instead, and a cached session that diverged from its
        rebuild is itself a validation failure (stale or corrupted
        session).  Property tests run the paranoid mode; big sweeps use
        the cached default.
        """
        structural = self._checked_structural(full_recheck)
        structural.check_placements(self.machine, self.loop.num_operations)
        structural.check(self.machine)
        self._validate_registers(full_recheck)

    def _checked_structural(self, full_recheck: bool = False) -> StructuralAnalysis:
        """The structural session to validate against (rebuilt if asked)."""
        structural = self._structural
        if full_recheck or structural is None:
            reference = StructuralAnalysis.from_schedule(self)
            if (
                full_recheck
                and structural is not None
                and not structural.matches(reference)
            ):
                raise ValidationError(
                    "cached structural analysis diverged from the raw "
                    "schedule (stale or corrupted StructuralAnalysis session)"
                )
            structural = self._structural = reference
        return structural

    def _validate_registers(self, full_recheck: bool = False) -> None:
        analysis = self._analysis
        if full_recheck or analysis is None:
            reference = ScheduleAnalysis.from_values(
                self.values, self.ii, self.machine.num_clusters
            )
            if full_recheck and analysis is not None and not analysis.matches(reference):
                raise ValidationError(
                    "cached lifetime analysis diverged from the raw value "
                    "ledger (stale or corrupted ScheduleAnalysis session)"
                )
            analysis = self._analysis = reference
        peaks = analysis.peaks()
        for cluster in range(self.machine.num_clusters):
            limit = self.machine.cluster(cluster).registers
            if peaks[cluster] > limit:
                raise ValidationError(
                    f"cluster {cluster} needs {peaks[cluster]} registers, "
                    f"has {limit}"
                )
