"""The single-pass modulo scheduling engine (paper §3.3).

One engine implements the URACAM-style scheduler all three algorithms
share: operations are visited in SMS order; for each operation, candidate
placements (cluster, cycle) are evaluated against the reservation tables,
the inter-cluster communication resources and the register files; the
*cluster policy* — the only thing that differs between URACAM, Fixed
Partition and GP — decides which clusters are tried and how a winner is
chosen (via the figure of merit).  When every candidate fails on register
pressure, the engine applies the spill transformation (§3.3.2) and retries.

Communication routing for a cross-cluster value, in preference order:

1. reuse a register copy already delivered (or planned within the same
   candidate) to the consumer's cluster,
2. a new bus transfer (earliest free slot on any bus; the bus is
   non-pipelined so a transfer holds it for ``bus_latency`` cycles), or
3. the communication-through-memory transformation: a store in the
   producer's cluster plus a load in the consumer's (the store is shared by
   every memory-routed consumer of the value).

Spilled values live in memory; their future consumers load them directly,
which is also how the paper's "communication through memory" and spill
machinery coincide.

Candidate evaluation never mutates committed state: resource claims are
staged in an :class:`~repro.schedule.mrt.Overlay`, and value/lifetime edits
are applied and rolled back around the register-pressure check.

Hot-path architecture (reference vs. incremental accounting)
------------------------------------------------------------

Every sweep, figure and benchmark funnels through candidate evaluation, so
the engine keeps two implementations of the register accounting:

* The **reference** path — the pure functions ``value_segments`` /
  ``register_cycles`` / ``max_live`` in :mod:`~repro.schedule.values` and
  :mod:`~repro.schedule.lifetimes` — recomputes the full lifetime picture
  from the value states.  It stays the validator's source of truth and is
  what the independent schedule validation uses.
* The **incremental** path — :class:`~repro.schedule.pressure.PressureTracker`
  (the engine-facing name of the shared
  :class:`~repro.schedule.analysis_core.ScheduleAnalysis` session, which
  the finished :class:`~repro.schedule.result.ModuloSchedule` then carries
  for its validator and the eval metrics) — mirrors the committed values
  with a per-cluster pressure ring (``counts[cluster][m]`` over the II
  kernel cycles) and running register-cycle totals.  A candidate evaluation applies only the *delta
  segments* of the values its routes touch (plus the would-be new value),
  reads the ring peaks and totals, and rolls the delta back exactly —
  O(routes) instead of O(all values) per candidate.  Commits, spills
  (which truncate the home lifetime) and dead-transfer releases update the
  tracker the same way, so it always equals the reference recompute.

``EngineOptions.verify_pressure`` is the escape hatch: when set, the
engine cross-checks the tracker against the reference functions after
every commit, spill and candidate rollback
(:meth:`~repro.schedule.pressure.PressureTracker.verify`).  The
equivalence tests run whole schedules in this mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..ir.analysis import analyze
from ..ir.ddg import DepKind
from ..ir.loop import Loop
from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .arraykernels import make_reservation_table, make_tracker
from .merit import DEFAULT_THRESHOLD, MeritVector, compare, consumption
from .mrt import FUSlot, Overlay
from .ordering import sms_order
from .result import AuxOp, ModuloSchedule, Placed, ScheduleStats
from .structural_core import StructuralAnalysis, count_edges
from .values import (
    LOAD_LATENCY,
    STORE_LATENCY,
    BusTransfer,
    Use,
    ValueState,
    segments_of_value,
)


@dataclass
class _Route:
    """One planned value movement attached to a candidate placement."""

    value_key: Optional[int]  # producer uid of an existing value; None = new
    use: Use
    new_transfer: Optional[BusTransfer] = None
    new_store: Optional[AuxOp] = None
    new_load: Optional[AuxOp] = None


@dataclass
class _NodePlan:
    """Dependence routing work for one node, shared by all its candidates.

    ``operands``: (producer uid, read-time offset from the issue cycle) for
    every distinct placed producer read.  ``deliveries``: per placed data
    successor ``(consumer uid, consumer cluster, absolute read time)``, or
    ``(None, -1, offset)`` for a self-recurrence read (offset from the
    issue cycle), preserving the DDG edge order.
    """

    operands: List[Tuple[int, int]]
    deliveries: List[Tuple[Optional[int], int, int]]


@dataclass
class Candidate:
    """A feasible placement of one operation, ready to commit.

    The figure of merit is computed lazily: the fixed-partition policy (and
    the GP policy's home-cluster hit) never compares candidates, so they
    never pay for it.  ``merit`` reads committed engine state and is only
    valid while the policy is still selecting — i.e. before the next
    commit — which is the only time policies access it.
    """

    uid: int
    cluster: int
    time: int
    overlay: Overlay
    routes: List[_Route]
    creates_value: bool
    merit_thunk: Callable[[], MeritVector]
    _merit: Optional[MeritVector] = None

    @property
    def merit(self) -> MeritVector:
        if self._merit is None:
            self._merit = self.merit_thunk()
        return self._merit


class ClusterPolicy:
    """Decides which clusters are tried for each operation."""

    name = "policy"

    def select(
        self,
        uid: int,
        evaluate: Callable[[int], Optional[Candidate]],
        threshold: float = DEFAULT_THRESHOLD,
    ) -> Optional[Candidate]:
        """Return the winning candidate, or None if every cluster fails."""
        raise NotImplementedError


class AllClustersPolicy(ClusterPolicy):
    """URACAM: try every cluster, keep the figure-of-merit winner."""

    name = "all-clusters"

    def __init__(self, num_clusters: int) -> None:
        self.num_clusters = num_clusters

    def select(self, uid, evaluate, threshold=DEFAULT_THRESHOLD):
        best: Optional[Candidate] = None
        for cluster in range(self.num_clusters):
            candidate = evaluate(cluster)
            if candidate is None:
                continue
            if best is None or compare(candidate.merit, best.merit, threshold) < 0:
                best = candidate
        return best


class FixedClusterPolicy(ClusterPolicy):
    """Fixed Partition: only the partition's cluster is ever tried."""

    name = "fixed-partition"

    def __init__(self, assignment: Dict[int, int]) -> None:
        self.assignment = assignment

    def select(self, uid, evaluate, threshold=DEFAULT_THRESHOLD):
        return evaluate(self.assignment[uid])


class AssignedFirstPolicy(ClusterPolicy):
    """GP: the partition's cluster first; on failure, the merit-best other."""

    name = "assigned-first"

    def __init__(self, assignment: Dict[int, int], num_clusters: int) -> None:
        self.assignment = assignment
        self.num_clusters = num_clusters

    def select(self, uid, evaluate, threshold=DEFAULT_THRESHOLD):
        home = self.assignment[uid]
        candidate = evaluate(home)
        if candidate is not None:
            return candidate
        best: Optional[Candidate] = None
        for cluster in range(self.num_clusters):
            if cluster == home:
                continue
            other = evaluate(cluster)
            if other is None:
                continue
            if best is None or compare(other.merit, best.merit, threshold) < 0:
                best = other
        return best


@dataclass
class EngineOptions:
    """Tunables of the scheduling engine."""

    merit_threshold: float = DEFAULT_THRESHOLD
    allow_spill: bool = True
    allow_memory_comm: bool = True
    max_spill_rounds: int = 3
    spill_victims_tried: int = 6
    #: Original memory ops per cluster (per-cluster headroom, §3.3.4); when
    #: None, the single global headroom component of §3.3.2 is used.
    mem_ops_per_cluster: Optional[Dict[int, int]] = None
    #: Per-node candidate-feasibility cache across spill rounds: (cluster,
    #: cycle) slots that failed for structural reasons a spill cannot fix
    #: (the op's own FU-class slot busy, or a dependence-window violation —
    #: both functions of state a spill only tightens) stay pruned from the
    #: window rescan of later rounds.  Behaviour-preserving by
    #: construction; the equivalence tests A/B this knob.
    feas_cache: bool = True
    #: Back the reservation table and the pressure tracker with the
    #: flat-array kernels (:mod:`~repro.schedule.arraykernels`) instead of
    #: the reference dict/list structures.  Pure storage-layout swap — the
    #: arithmetic is shared — so schedules are bit-identical either way
    #: (the A/B property tests assert it); ``False`` forces the pure
    #: dict/list reference path.
    array_kernels: bool = True
    #: Cross-check the incremental pressure tracker against the reference
    #: recompute after every commit, spill and candidate rollback, and the
    #: structural (reservation-table) handover against the reference
    #: sweeps before it is attached to the schedule (slow; used by the
    #: equivalence tests and the CLI's ``--verify`` mode).
    verify_pressure: bool = False
    #: Drivers re-validate every modulo schedule they produce with
    #: ``validate(full_recheck=True)`` before returning it (slow; the CLI's
    #: ``--verify`` paranoid mode and the CI smoke job turn this on).
    validate_schedules: bool = False


class SchedulingEngine:
    """One modulo-scheduling attempt of one loop at one fixed II."""

    def __init__(
        self,
        loop: Loop,
        machine: MachineConfig,
        ii: int,
        policy: ClusterPolicy,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.loop = loop
        self.machine = machine
        self.ii = ii
        self.policy = policy
        self.options = options or EngineOptions()
        self.ddg = loop.ddg
        self.table = make_reservation_table(
            machine, ii, self.options.array_kernels
        )
        self.placements: Dict[int, Placed] = {}
        self.aux_ops: List[AuxOp] = []
        self.stats = ScheduleStats()
        self._analysis = analyze(self.ddg, ii)
        self._aux_mem_per_cluster: Dict[int, int] = {}
        self._total_mem_ops = sum(1 for op in self.ddg.operations() if op.is_memory)
        self._failure_reasons: Dict[int, Set[str]] = {}
        # Incremental register accounting (see the module docstring) plus
        # per-cluster constants the hot path would otherwise re-derive.
        # The analysis session owns the value ledger; on success the very
        # same session is attached to the ModuloSchedule so the validator
        # and the evaluation metrics reuse its segments and rings.
        self.pressure = make_tracker(
            ii, machine.num_clusters, self.options.array_kernels
        )
        self.values: Dict[int, ValueState] = self.pressure.values
        self._registers = [
            machine.cluster(c).registers for c in range(machine.num_clusters)
        ]
        self._reg_capacity = [r * ii for r in self._registers]
        self._mem_total = [
            self.table.fu_slots_total(c, OpClass.MEM)
            for c in range(machine.num_clusters)
        ]
        self._bus_total = self.table.bus_cycles_total()
        # Committed per-cluster peaks, recomputed only when the committed
        # value set changes (commit/spill) instead of per candidate.
        self._peaks_cache: Optional[List[int]] = None

    def _committed_peaks(self) -> List[int]:
        if self._peaks_cache is None:
            self._peaks_cache = self.pressure.peaks()
        return self._peaks_cache

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def attempt(self) -> Optional[ModuloSchedule]:
        """Run one full scheduling attempt; None if any node fails."""
        for uid in sms_order(self.ddg, self.ii):
            if not self._schedule_node(uid):
                return None
        schedule = ModuloSchedule(
            loop=self.loop,
            machine=self.machine,
            ii=self.ii,
            placements=dict(self.placements),
            values=dict(self.values),
            aux_ops=list(self.aux_ops),
            stats=self.stats,
        )
        # Hand the maintained lifetime analysis over: validate() and the
        # eval metrics read its cached segments/rings instead of
        # re-deriving every lifetime from the ledger.
        schedule.attach_analysis(self.pressure)
        # Same handover for the structural side: the reservation table's
        # live occupancy rows and bus ledger become the session the
        # dependence/FU/bus validator passes read, retiring their
        # full-sweep rechecks on engine-produced schedules.
        structural = StructuralAnalysis.from_table(
            self.table,
            dep_edges=count_edges(schedule),
            placements=schedule.placements,
        )
        if self.options.verify_pressure:
            structural.verify(schedule)
        schedule.attach_structural(structural)
        return schedule

    def _schedule_node(self, uid: int) -> bool:
        # The dependence window and the routed-dependence lists are functions
        # of the committed placements only, which do not change while this
        # node is being placed — derive them once instead of once per
        # cluster per candidate cycle per spill round.
        window = self._window(uid)
        plan = self._node_plan(uid)
        # Candidate-feasibility cache, shared by this node's spill rounds:
        # (cluster, cycle) slots whose failure a spill provably cannot fix
        # (see _evaluate).  Placements and the MRT only gain reservations
        # while this node is being placed, so the pruned set never goes
        # stale; it dies with the node.
        pruned: Set[Tuple[int, int]] = set()
        for _round in range(self.options.max_spill_rounds + 1):
            self._failure_reasons = {}
            candidate = self.policy.select(
                uid,
                lambda cluster: self._evaluate(
                    uid, cluster, window, plan, pruned
                ),
                self.options.merit_threshold,
            )
            if candidate is not None:
                self._commit(candidate)
                if self.options.verify_pressure:
                    self.pressure.verify(self.values.values())
                return True
            if not self.options.allow_spill:
                return False
            register_bound = [
                cluster
                for cluster, reasons in sorted(self._failure_reasons.items())
                if "regs" in reasons
            ]
            if not register_bound:
                return False
            if not any(self._try_spill(cluster) for cluster in register_bound):
                return False
            if self.options.verify_pressure:
                self.pressure.verify(self.values.values())
        return False

    # ------------------------------------------------------------------
    # Slot window
    # ------------------------------------------------------------------
    def _window(self, uid: int) -> Sequence[int]:
        """Candidate issue cycles for ``uid``, in scan order.

        Lower bounds come from scheduled predecessors, upper bounds from
        scheduled successors (same-cluster separations; cross-cluster
        routing is checked per slot).  At most II distinct cycles are
        scanned, forward when predecessors anchor the node, backward when
        only successors do — the SMS scan directions.
        """
        estart: Optional[int] = None
        lstart: Optional[int] = None
        for dep in self.ddg.in_edges(uid):
            if dep.src == uid:
                continue
            placed = self.placements.get(dep.src)
            if placed is None:
                continue
            bound = placed.time + dep.latency - self.ii * dep.distance
            estart = bound if estart is None else max(estart, bound)
        for dep in self.ddg.out_edges(uid):
            if dep.dst == uid:
                continue
            placed = self.placements.get(dep.dst)
            if placed is None:
                continue
            bound = placed.time - dep.latency + self.ii * dep.distance
            lstart = bound if lstart is None else min(lstart, bound)

        if estart is None and lstart is None:
            base = self._analysis.asap[uid]
            return range(base, base + self.ii)
        if estart is None:
            return range(lstart, lstart - self.ii, -1)
        if lstart is None:
            return range(estart, estart + self.ii)
        return range(estart, min(lstart, estart + self.ii - 1) + 1)

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _node_plan(self, uid: int) -> "_NodePlan":
        """Pre-resolved dependence routing work for one node.

        Both lists depend only on the committed placements, so they are
        shared by every candidate (cluster, cycle) of this node.
        """
        operands: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for dep in self.ddg.in_edges(uid):
            if dep.kind is not DepKind.DATA or dep.src == uid:
                continue
            if dep.src not in self.placements:
                continue
            # Two deps with equal (src, distance) read the same copy at the
            # same time for any issue cycle — the first one routes for both.
            key = (dep.src, dep.distance)
            if key in seen:
                continue
            seen.add(key)
            operands.append((dep.src, self.ii * dep.distance))
        deliveries: List[Tuple[Optional[int], int, int]] = []
        for dep in self.ddg.out_edges(uid):
            if dep.kind is not DepKind.DATA:
                continue
            if dep.dst == uid:
                # Self-recurrence: read offset relative to the issue cycle.
                deliveries.append((None, -1, self.ii * dep.distance))
                continue
            placed = self.placements.get(dep.dst)
            if placed is None:
                continue
            deliveries.append(
                (dep.dst, placed.cluster, placed.time + self.ii * dep.distance)
            )
        return _NodePlan(operands, deliveries)

    #: Slot-failure reasons a spill round cannot cure: "fu" is the op's own
    #: FU-class slot (spills only *add* FU reservations), "dep" is a
    #: dependence-window violation (pure arithmetic over committed
    #: placements, which are frozen while the node is being placed).
    #: "regs"/"bus"/"mem" failures stay re-evaluated — a spill frees
    #: registers and can release dead bus transfers.
    _SPILL_INVARIANT = frozenset(("fu", "dep"))

    def _evaluate(
        self,
        uid: int,
        cluster: int,
        window: Optional[Sequence[int]] = None,
        plan: "Optional[_NodePlan]" = None,
        pruned: "Optional[Set[Tuple[int, int]]]" = None,
    ) -> Optional[Candidate]:
        reasons = self._failure_reasons.setdefault(cluster, set())
        op = self.ddg.operation(uid)
        if window is None:
            window = self._window(uid)
        if plan is None:
            plan = self._node_plan(uid)
        if not window:
            reasons.add("dep")
            return None
        caching = pruned is not None and self.options.feas_cache
        stats = self.stats
        for time in window:
            if caching:
                if (cluster, time) in pruned:
                    stats.feas_cache_hits += 1
                    continue
                stats.feas_cache_scans += 1
                slot_reasons: Set[str] = set()
                candidate = self._evaluate_slot(
                    uid, op, cluster, time, slot_reasons, plan
                )
                reasons |= slot_reasons
                if candidate is not None:
                    return candidate
                if slot_reasons and slot_reasons <= self._SPILL_INVARIANT:
                    pruned.add((cluster, time))
                continue
            candidate = self._evaluate_slot(uid, op, cluster, time, reasons, plan)
            if candidate is not None:
                return candidate
        return None

    def _evaluate_slot(
        self, uid: int, op, cluster: int, time: int, reasons: Set[str],
        plan: "_NodePlan",
    ) -> Optional[Candidate]:
        # The overlay is empty at this point, so check the table directly
        # and only pay for an Overlay once the op's own slot fits.
        if not self.table.fu_free_at(cluster, op.op_class, time):
            reasons.add("fu")
            return None
        overlay = Overlay(self.table)
        overlay.add_fu(FUSlot(cluster, op.op_class, time))

        routes: List[_Route] = []
        creates_value = not op.is_store
        birth = time + op.latency

        # --- operand routing: values of already-scheduled producers ------
        planned_operand_copies: Dict[Tuple[int, int], int] = {}
        for src, offset in plan.operands:
            route = self._plan_operand_route(
                self.values[src], uid, cluster, time + offset,
                overlay, reasons, planned_operand_copies,
            )
            if route is None:
                return None
            routes.append(route)

        # --- delivery routing: this value to scheduled consumers ---------
        if creates_value:
            planned_copies: Dict[int, int] = {cluster: birth}
            pending_store: Optional[AuxOp] = None
            for dst, dst_cluster, when in plan.deliveries:
                if dst is None:
                    read_time = time + when
                    if read_time < birth:
                        reasons.add("dep")
                        return None
                    routes.append(_Route(None, Use(uid, cluster, read_time, "reg")))
                    continue
                route, pending_store = self._plan_delivery_route(
                    uid, birth, cluster, dst_cluster, dst, when,
                    planned_copies, pending_store, overlay, reasons,
                )
                if route is None:
                    return None
                routes.append(route)

        # --- register feasibility + consumption deltas -------------------
        reg_delta, fits = self._register_effect(uid, cluster, birth, creates_value, routes)
        if not fits:
            reasons.add("regs")
            return None

        own_is_memory = op.is_memory
        return Candidate(
            uid=uid,
            cluster=cluster,
            time=time,
            overlay=overlay,
            routes=routes,
            creates_value=creates_value,
            merit_thunk=lambda: self._merit(overlay, reg_delta, own_is_memory),
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _plan_operand_route(
        self,
        value: ValueState,
        consumer: int,
        cluster: int,
        read_time: int,
        overlay: Overlay,
        reasons: Set[str],
        planned_copies: Dict[Tuple[int, int], int],
    ) -> Optional[_Route]:
        # 1. A register copy already in this cluster, committed or planned
        #    within this same candidate.
        available = value.copy_available(cluster)
        planned = planned_copies.get((value.producer, cluster))
        if planned is not None and (available is None or planned < available):
            available = planned
        if available is not None and available <= read_time:
            return _Route(value.producer, Use(consumer, cluster, read_time, "reg"))

        # 2. Spilled (or already stored, never bussed) values: memory load.
        if value.spilled or value.store_time is not None:
            route = self._plan_memory_load(value, consumer, cluster, read_time, overlay)
            if route is not None:
                return route
            if value.spilled:
                reasons.add("mem")
                return None

        # 3. A fresh bus transfer.
        slot = self.table.find_bus_slot(
            earliest=value.birth,
            latest_start=read_time - self.machine.bus_latency,
            length=self.machine.bus_latency,
            overlay=overlay,
        )
        if slot is not None:
            overlay.add_bus(slot)
            planned_copies[(value.producer, cluster)] = slot.start + slot.length
            return _Route(
                value.producer,
                Use(consumer, cluster, read_time, "reg"),
                new_transfer=BusTransfer(slot, cluster),
            )

        # 4. Communication through memory (store + load).
        if self.options.allow_memory_comm:
            route = self._plan_memory_load(
                value, consumer, cluster, read_time, overlay,
                create_store=value.store_time is None,
            )
            if route is not None:
                return route
            reasons.add("mem")
        reasons.add("bus")
        return None

    def _plan_memory_load(
        self,
        value: ValueState,
        consumer: int,
        cluster: int,
        read_time: int,
        overlay: Overlay,
        create_store: bool = False,
    ) -> Optional[_Route]:
        new_store: Optional[AuxOp] = None
        if create_store:
            store_time = self._find_mem_slot(
                value.home, value.birth, value.birth + self.ii - 1, overlay,
                prefer="early",
            )
            if store_time is None:
                return None
            overlay.add_fu(FUSlot(value.home, OpClass.MEM, store_time))
            new_store = AuxOp("comm_store", value.producer, value.home, store_time)
            ready = store_time + STORE_LATENCY
        else:
            maybe_ready = value.memory_ready()
            if maybe_ready is None:
                return None
            ready = maybe_ready
        load_time = self._find_mem_slot(
            cluster, ready, read_time - LOAD_LATENCY, overlay, prefer="late"
        )
        if load_time is None:
            return None
        overlay.add_fu(FUSlot(cluster, OpClass.MEM, load_time))
        kind = "spill_load" if value.spilled else "comm_load"
        return _Route(
            value.producer,
            Use(consumer, cluster, read_time, "mem", load_time=load_time),
            new_store=new_store,
            new_load=AuxOp(kind, value.producer, cluster, load_time),
        )

    def _plan_delivery_route(
        self,
        producer: int,
        birth: int,
        home: int,
        dst_cluster: int,
        consumer: int,
        read_time: int,
        planned_copies: Dict[int, int],
        pending_store: Optional[AuxOp],
        overlay: Overlay,
        reasons: Set[str],
    ) -> Tuple[Optional[_Route], Optional[AuxOp]]:
        """Route the value being produced to an already-scheduled consumer."""
        available = planned_copies.get(dst_cluster)
        if available is not None and available <= read_time:
            return (
                _Route(None, Use(consumer, dst_cluster, read_time, "reg")),
                pending_store,
            )
        if dst_cluster == home:
            # The local copy (ready at birth) arrives too late: the
            # consumer is scheduled before this producer's result.
            reasons.add("dep")
            return None, pending_store

        slot = self.table.find_bus_slot(
            earliest=birth,
            latest_start=read_time - self.machine.bus_latency,
            length=self.machine.bus_latency,
            overlay=overlay,
        )
        if slot is not None:
            overlay.add_bus(slot)
            delivered = slot.start + slot.length
            prior = planned_copies.get(dst_cluster)
            if prior is None or delivered < prior:
                planned_copies[dst_cluster] = delivered
            return (
                _Route(
                    None,
                    Use(consumer, dst_cluster, read_time, "reg"),
                    new_transfer=BusTransfer(slot, dst_cluster),
                ),
                pending_store,
            )

        if self.options.allow_memory_comm:
            new_store: Optional[AuxOp] = None
            if pending_store is None:
                store_time = self._find_mem_slot(
                    home, birth, birth + self.ii - 1, overlay, prefer="early"
                )
                if store_time is None:
                    reasons.add("mem")
                    return None, pending_store
                overlay.add_fu(FUSlot(home, OpClass.MEM, store_time))
                new_store = AuxOp("comm_store", producer, home, store_time)
                ready = store_time + STORE_LATENCY
            else:
                ready = pending_store.time + STORE_LATENCY
            load_time = self._find_mem_slot(
                dst_cluster, ready, read_time - LOAD_LATENCY, overlay,
                prefer="late",
            )
            if load_time is None:
                reasons.add("mem")
                return None, pending_store
            overlay.add_fu(FUSlot(dst_cluster, OpClass.MEM, load_time))
            route = _Route(
                None,
                Use(consumer, dst_cluster, read_time, "mem", load_time=load_time),
                new_store=new_store,
                new_load=AuxOp("comm_load", producer, dst_cluster, load_time),
            )
            return route, (pending_store or new_store)
        reasons.add("bus")
        return None, pending_store

    def _find_mem_slot(
        self,
        cluster: int,
        earliest: int,
        latest: int,
        overlay: Overlay,
        prefer: str,
    ) -> Optional[int]:
        """A cycle with a free memory port in ``[earliest, latest]``.

        ``prefer="early"`` scans forward (stores: free the register soon);
        ``prefer="late"`` scans backward (loads: keep the loaded copy's
        lifetime short).  At most II distinct cycles are examined.
        """
        if latest < earliest:
            return None
        if latest - earliest + 1 > self.ii:
            if prefer == "early":
                latest = earliest + self.ii - 1
            else:
                earliest = latest - self.ii + 1
        cycles = (
            range(earliest, latest + 1)
            if prefer == "early"
            else range(latest, earliest - 1, -1)
        )
        fu_free_at = self.table.fu_free_at
        for cycle in cycles:
            if fu_free_at(cluster, OpClass.MEM, cycle, overlay):
                return cycle
        return None

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------
    def _register_effect(
        self,
        uid: int,
        cluster: int,
        birth: int,
        creates_value: bool,
        routes: List[_Route],
    ) -> Tuple[List[int], bool]:
        """(register-cycle delta per cluster, fits) after a tentative apply.

        Incremental: only the values the routes touch (plus the would-be new
        value) have their segments re-derived; the delta segments are
        previewed against the pressure tracker's rings without mutating
        them — O(routes), not O(all values) — so only the value-state edits
        need rolling back.
        """
        tracker = self.pressure
        applied: List[Tuple[ValueState, str, object]] = []
        touched: List[int] = []
        new_value: Optional[ValueState] = None
        if creates_value:
            new_value = ValueState(producer=uid, home=cluster, birth=birth)
        try:
            for route in routes:
                if route.value_key is None:
                    target = new_value
                else:
                    target = self.values[route.value_key]
                    if route.value_key not in touched:
                        touched.append(route.value_key)
                target.uses.append(route.use)
                applied.append((target, "use", route.use))
                if route.new_transfer is not None:
                    target.transfers.append(route.new_transfer)
                    applied.append((target, "transfer", route.new_transfer))
                if route.new_store is not None:
                    applied.append((target, "store", target.store_time))
                    target.store_time = route.new_store.time
            changes: List[Tuple[Sequence[object], int]] = []
            for key in touched:
                changes.append((tracker.segments_of(key), -1))
                changes.append((segments_of_value(self.values[key]), +1))
            if new_value is not None:
                changes.append((segments_of_value(new_value), +1))
            return tracker.preview_effect(
                changes, self._registers, self._committed_peaks()
            )
        finally:
            for target, kind, payload in reversed(applied):
                if kind == "use":
                    target.uses.remove(payload)
                elif kind == "transfer":
                    target.transfers.remove(payload)
                else:
                    target.store_time = payload  # type: ignore[assignment]
            if self.options.verify_pressure:
                tracker.verify(self.values.values())

    # ------------------------------------------------------------------
    # Figure of merit
    # ------------------------------------------------------------------
    def _merit(
        self, overlay: Overlay, reg_delta: List[int], own_is_memory: bool
    ) -> MeritVector:
        # consumption() is inlined below: this runs once per compared
        # candidate and the call overhead is measurable.
        components: List[float] = []
        num_clusters = self.machine.num_clusters
        # Inter-cluster communication slots.
        bus_new = sum(slot.length for slot in overlay.bus_slots)
        bus_free = self._bus_total - self.table.bus_cycles_used()
        components.append(
            0.0 if bus_new <= 0
            else (1.0 if bus_free <= 0 else min(1.0, bus_new / bus_free))
        )
        # Per-cluster memory slots (every memory-port use counts).
        mem_new = [0] * num_clusters
        for slot in overlay.fu_slots:
            if slot.op_class is OpClass.MEM:
                mem_new[slot.cluster] += 1
        fu_slots_used = self.table.fu_slots_used
        for c in range(num_clusters):
            new = mem_new[c]
            if new <= 0:
                components.append(0.0)
                continue
            free = self._mem_total[c] - fu_slots_used(c, OpClass.MEM)
            components.append(1.0 if free <= 0 else min(1.0, new / free))
        # Per-cluster register lifetimes (baseline = the tracker's running
        # committed totals; no per-round recompute).
        before = self.pressure.reg_cycles
        for c in range(num_clusters):
            delta = reg_delta[c]
            if delta <= 0:
                components.append(0.0)
                continue
            free = self._reg_capacity[c] - before[c]
            components.append(1.0 if free <= 0 else min(1.0, delta / free))
        # Headroom for *inserted* memory operations: the op's own slot (when
        # the op is itself a memory op) is original code, not inserted code.
        aux_new = list(mem_new)
        if own_is_memory and overlay.fu_slots:
            own = overlay.fu_slots[0]
            aux_new[own.cluster] -= 1
        components.extend(self._headroom_components(aux_new))
        return MeritVector(tuple(components))

    def _headroom_components(self, aux_new: List[int]) -> List[float]:
        per_cluster = self.options.mem_ops_per_cluster
        if per_cluster is not None:
            out = []
            for c in range(self.machine.num_clusters):
                headroom_total = self._mem_total[c] - per_cluster.get(c, 0)
                headroom_used = self._aux_mem_per_cluster.get(c, 0)
                out.append(consumption(aux_new[c], headroom_total - headroom_used))
            return out
        headroom_total = sum(self._mem_total) - self._total_mem_ops
        headroom_used = sum(self._aux_mem_per_cluster.values())
        return [consumption(sum(aux_new), headroom_total - headroom_used)]

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self, candidate: Candidate) -> None:
        candidate.overlay.commit()
        self.placements[candidate.uid] = Placed(candidate.cluster, candidate.time)
        new_value: Optional[ValueState] = None
        if candidate.creates_value:
            op = self.ddg.operation(candidate.uid)
            new_value = ValueState(
                producer=candidate.uid,
                home=candidate.cluster,
                birth=candidate.time + op.latency,
            )
            self.values[candidate.uid] = new_value
        touched: Set[int] = set()
        for route in candidate.routes:
            if route.value_key is None:
                target = new_value
            else:
                target = self.values[route.value_key]
                touched.add(route.value_key)
            target.uses.append(route.use)
            if route.new_transfer is not None:
                target.transfers.append(route.new_transfer)
                self.stats.bus_transfers += 1
            for aux in (route.new_store, route.new_load):
                if aux is not None:
                    self.aux_ops.append(aux)
                    self._aux_mem_per_cluster[aux.cluster] = (
                        self._aux_mem_per_cluster.get(aux.cluster, 0) + 1
                    )
            if route.new_store is not None:
                target.store_time = route.new_store.time
                self.stats.mem_comms += 1
        for key in touched:
            self.pressure.update(self.values[key])
        if new_value is not None:
            self.pressure.track(new_value)
        self._peaks_cache = None

    # ------------------------------------------------------------------
    # Spill transformation (§3.3.2)
    # ------------------------------------------------------------------
    def _try_spill(self, cluster: int) -> bool:
        """Spill one value to relieve ``cluster``'s register file."""
        ranked = []
        for value in self.values.values():
            if value.spilled:
                continue
            length = self._lifetime_in_cluster(value, cluster)
            if length > 0:
                ranked.append((length, value.producer, value))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        for _length, _uid, value in ranked[: self.options.spill_victims_tried]:
            if self._spill_value(value):
                self.stats.spills += 1
                return True
        return False

    def _lifetime_in_cluster(self, value: ValueState, cluster: int) -> int:
        # Committed values always have their segments cached in the tracker.
        return sum(
            segment.length
            for segment in self.pressure.segments_of(value.producer)
            if segment.cluster == cluster
        )

    def _spill_value(self, value: ValueState) -> bool:
        """Move ``value`` to memory and convert its register reads to loads."""
        overlay = Overlay(self.table)
        new_store_time: Optional[int] = None
        if value.store_time is None:
            new_store_time = self._find_mem_slot(
                value.home, value.birth, value.birth + self.ii - 1, overlay,
                prefer="early",
            )
            if new_store_time is None:
                return False
            overlay.add_fu(FUSlot(value.home, OpClass.MEM, new_store_time))
            ready = new_store_time + STORE_LATENCY
        else:
            ready = value.memory_ready()
            assert ready is not None

        conversions: List[Tuple[Use, int]] = []
        for use in value.uses:
            if use.route != "reg" or use.consumer == value.producer:
                continue  # self-recurrence reads must stay in registers
            load_time = self._find_mem_slot(
                use.cluster, ready, use.read_time - LOAD_LATENCY, overlay,
                prefer="late",
            )
            if load_time is not None:
                overlay.add_fu(FUSlot(use.cluster, OpClass.MEM, load_time))
                conversions.append((use, load_time))
        if not conversions:
            return False
        if any(use.route == "reg" and use.consumer == value.producer
               for use in value.uses):
            # A self-recurrence pins the home register; spilling would not
            # shorten the home lifetime, so do not bother.
            return False

        overlay.commit()
        if new_store_time is not None:
            value.store_time = new_store_time
            self.aux_ops.append(
                AuxOp("spill_store", value.producer, value.home, new_store_time)
            )
            self._aux_mem_per_cluster[value.home] = (
                self._aux_mem_per_cluster.get(value.home, 0) + 1
            )
        value.spilled = True
        for use, load_time in conversions:
            use.route = "mem"
            use.load_time = load_time
            self.aux_ops.append(
                AuxOp("spill_load", value.producer, use.cluster, load_time)
            )
            self._aux_mem_per_cluster[use.cluster] = (
                self._aux_mem_per_cluster.get(use.cluster, 0) + 1
            )
        # Bus transfers whose destination no longer reads registers are dead.
        for transfer in list(value.transfers):
            if not value.reg_uses_in(transfer.dst_cluster):
                self.table.release_bus(transfer.slot)
                value.remove_transfer(transfer)
                self.stats.bus_transfers -= 1
        self.pressure.update(value)
        self._peaks_cache = None
        return True
