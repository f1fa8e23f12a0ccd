"""Execution-time estimation of a cluster assignment (paper §3.2.2).

The refinement phase never schedules instructions; it prices a candidate
partition on a *hypothetical machine*: the actual functional units, memory
ports and inter-cluster bus, but unlimited registers and no scheduling
conflicts.  The estimate for a software-pipelined loop is::

    exec_time = (niter - 1) * II_est + critical_path

where ``II_est`` is the largest of

* the initiation interval the partition was requested for,
* ``IIbus = ceil(NComm * LatBus / NBus)`` — the bus bound of §3.1,
* each cluster's resource-constrained MII given the operations assigned to
  it, and
* the recurrence MII of the graph *with bus delays on cut edges* (a cut
  edge inside a recurrence stretches that recurrence),

and ``critical_path`` is the longest effective path where every cut DATA
edge is lengthened by the bus latency.

Communications are counted point-to-point: one bus transfer per (value,
remote consumer cluster) pair, matching what the scheduler will later
place.

The estimator is the refinement loop's inner cost function, called once per
candidate move, so everything graph-shaped (edge tuples, topological order,
operation classes) is precomputed at construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import PartitionError
from ..ir.analysis import analyze
from ..ir.ddg import DataDependenceGraph, Dependence
from ..ir.loop import Loop
from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig

#: Cluster assignment: operation uid -> cluster index.
Assignment = Mapping[int, int]

_INFEASIBLE_II = 10**6

#: Index of each operation class, for compact per-cluster count arrays.
_CLASS_INDEX = {cls: i for i, cls in enumerate(OpClass)}


def cut_data_edges(ddg: DataDependenceGraph, assignment: Assignment) -> List[Dependence]:
    """DATA edges whose endpoints are assigned to different clusters."""
    return [
        dep
        for dep in ddg.edges()
        if dep.carries_value and assignment[dep.src] != assignment[dep.dst]
    ]


def count_communications(ddg: DataDependenceGraph, assignment: Assignment) -> int:
    """Bus transfers required: distinct (producer, remote cluster) pairs."""
    pairs = set()
    for dep in ddg.edges():
        if dep.carries_value and assignment[dep.src] != assignment[dep.dst]:
            pairs.add((dep.src, assignment[dep.dst]))
    return len(pairs)


def ii_bus_bound(ncomm: int, machine: MachineConfig) -> int:
    """The paper's ``IIbus``: cycles needed to ship all transfers."""
    if not machine.is_clustered or ncomm == 0:
        return 0
    return math.ceil(ncomm * machine.bus_latency / machine.num_buses)


def cluster_res_mii(
    ddg: DataDependenceGraph, assignment: Assignment, machine: MachineConfig
) -> int:
    """Max over clusters of the resource-constrained MII of its operations.

    A cluster holding operations of a class it has no units for makes the
    partition infeasible; a prohibitively large II is returned so the
    refinement heuristics steer away from it.
    """
    counts: Dict[Tuple[int, OpClass], int] = {}
    for uid in ddg.uids():
        op = ddg.operation(uid)
        key = (assignment[uid], op.op_class)
        counts[key] = counts.get(key, 0) + 1
    worst = 1
    for (cluster_idx, op_class), count in counts.items():
        units = machine.cluster(cluster_idx).units_for_class(op_class)
        if units == 0:
            return _INFEASIBLE_II
        worst = max(worst, math.ceil(count / units))
    return worst


@dataclass(frozen=True)
class PartitionEstimate:
    """Outcome of pricing a partition.

    Attributes:
        exec_time: Estimated loop execution time in cycles.
        ii_est: Initiation interval the estimate assumes.
        ii_bus: Bus-imposed II bound of the partition.
        ncomm: Number of point-to-point bus transfers.
        cut_edges: Number of DATA edges crossing clusters.
        critical_path: Makespan with bus delays on cut edges.
    """

    exec_time: int
    ii_est: int
    ii_bus: int
    ncomm: int
    cut_edges: int
    critical_path: int
    #: Total slack of the cut DATA edges (the refinement tie-breaker); filled
    #: by the same edge sweep that prices the partition so the refiner does
    #: not need a second pass.
    cut_slack: int = 0


class PartitionEstimator:
    """Prices cluster assignments for one loop at one initiation interval."""

    def __init__(self, loop: Loop, machine: MachineConfig, ii: int) -> None:
        self.loop = loop
        self.machine = machine
        self.ii = ii
        self._ddg = loop.ddg
        self._analysis = analyze(loop.ddg, ii)
        self._uids = loop.ddg.uids()
        # Compact per-edge tuples: (src, dst, latency, distance, carries).
        self._edges: List[Tuple[int, int, int, int, bool]] = [
            (dep.src, dep.dst, dep.latency, dep.distance, dep.carries_value)
            for dep in loop.ddg.edges()
        ]
        position = {uid: i for i, uid in enumerate(loop.ddg.topological_order())}
        self._edges.sort(key=lambda e: position[e[0]])
        self._edge_slacks: List[int] = [
            max(0, self._analysis.edge_slack(dep)) for dep in loop.ddg.edges()
        ]
        # Align precomputed slacks with the topo-sorted edge tuples.
        slack_of = {
            (dep.src, dep.dst, dep.latency, dep.distance, dep.carries_value): s
            for dep, s in zip(loop.ddg.edges(), self._edge_slacks)
        }
        self._sorted_edge_slacks = [slack_of[e] for e in self._edges]
        self._op_latency = {
            uid: loop.ddg.operation(uid).latency for uid in self._uids
        }
        self._class_of = {
            uid: _CLASS_INDEX[loop.ddg.operation(uid).op_class]
            for uid in self._uids
        }
        # units[cluster][class index]
        self._units = [
            [machine.cluster(c).units_for_class(cls) for cls in OpClass]
            for c in range(machine.num_clusters)
        ]
        self._bus_latency = machine.bus_latency
        self._num_buses = machine.num_buses
        self._clustered = machine.is_clustered
        # Index-based mirrors of the uid-keyed structures: the estimate is
        # the refinement loop's inner cost function, and list indexing beats
        # dict lookups in the per-move sweeps below.
        self._index_of = {uid: i for i, uid in enumerate(self._uids)}
        self._n = len(self._uids)
        self._iedges: List[Tuple[int, int, int, int, bool]] = [
            (self._index_of[src], self._index_of[dst], lat, distance, carries)
            for src, dst, lat, distance, carries in self._edges
        ]
        self._edge_src = [e[0] for e in self._iedges]
        self._edge_dst = [e[1] for e in self._iedges]
        self._latency_arr = [self._op_latency[uid] for uid in self._uids]
        self._class_arr = [self._class_of[uid] for uid in self._uids]
        # ii -> per-edge base length (latency - ii*distance), reused across
        # the thousands of estimates the refiner prices at the same II.
        self._length_cache: Dict[int, List[int]] = {}
        # Value-carrying edges only, with their slack: the communication
        # sweep never looks at the rest.
        self._carry_edges: List[Tuple[int, int, int, int]] = [
            (i, si, di, self._sorted_edge_slacks[i])
            for i, (si, di, _lat, _dist, carries) in enumerate(self._iedges)
            if carries
        ]
        # The uncut critical path is nonincreasing in II, so its value at an
        # II no estimate can exceed bounds every partition's path from below
        # (lazily computed).
        self._nocut_path_floor: Optional[int] = None
        # ii -> uncut critical path, the stronger per-II path floor (valid
        # once ``ii`` is known to be feasible for the candidate's cut set).
        self._nocut_path_cache: Dict[int, Optional[int]] = {}
        # Smallest II feasible when *every* carry edge is cut — an upper
        # bound on any cut set's recurrence MII (more cut edges only
        # lengthen cycles), so ii >= this guarantees feasibility.
        self._all_cut_rec_mii: Optional[int] = None
        self._ii_ceiling = (
            sum(e[2] for e in self._edges)
            + self._bus_latency * len(self._edges)
            + ii
            + 1
        )
        # uid index -> incident value-carrying edge records, for the
        # delta-maintained CommState sessions.
        self._incident_carry: List[List[Tuple[int, int, int, int]]] = [
            [] for _ in range(self._n)
        ]
        for record in self._carry_edges:
            _i, si, di, _slack = record
            self._incident_carry[si].append(record)
            if di != si:
                self._incident_carry[di].append(record)

    # ------------------------------------------------------------------
    def estimate(
        self,
        assignment: Assignment,
        bound: Optional[int] = None,
        cluster_class_counts: Optional[Sequence[Sequence[int]]] = None,
        comm_state: "Optional[CommState]" = None,
        tie_break: Optional[Tuple[int, int]] = None,
    ) -> Optional[PartitionEstimate]:
        """Estimate the execution time of ``assignment`` (§3.2.2).

        When ``bound`` is given and a cheap lower bound on the execution
        time already exceeds it, returns None instead of paying for the
        remaining computation — the refiner passes its incumbent score so
        clearly-losing candidate moves are rejected early.  The pruning is
        exact: it fires only when the true estimate is strictly worse than
        ``bound``.  ``tie_break`` — the incumbent's ``(-cut_slack,
        cut_edges)`` — extends the prune to ties: when the exec time can
        only be ``>= bound`` and the candidate's tie-break is not below the
        incumbent's, its score cannot beat ``(bound, *tie_break)``.

        ``cluster_class_counts[cluster][class index]`` — the operation
        counts the refiner already maintains incrementally — skips this
        function's own O(ops) recount.  ``comm_state`` — a
        :meth:`comm_session` the refiner keeps in step with its moves —
        skips the edge sweep entirely.  Callers must keep both consistent
        with ``assignment``.
        """
        if len(assignment) < self._n:
            missing = [uid for uid in self._uids if uid not in assignment]
            raise PartitionError(f"assignment misses operations {missing[:5]}")

        if comm_state is not None:
            return self._price(
                ncomm=comm_state.ncomm,
                cut_count=comm_state.cut_count,
                slack_total=comm_state.slack_total,
                get_comm_mem=comm_state.derive_comm_mem,
                cut_idx=comm_state.cut,
                bound=bound,
                cluster_class_counts=cluster_class_counts,
                assignment=assignment,
                tie_break=tie_break,
            )
        # One fused sweep over the value-carrying edges: cut edge indices
        # (reused by the critical path), transfer pairs, per-cluster
        # memory-route usage and the cut slack the refiner tie-breaks on.
        asg = [assignment[uid] for uid in self._uids]
        cut_idx: List[int] = []
        pairs = set()
        slack_total = 0
        comm_mem = [0] * self.machine.num_clusters
        for i, si, di, slack in self._carry_edges:
            cs = asg[si]
            cd = asg[di]
            if cs == cd:
                continue
            cut_idx.append(i)
            slack_total += slack
            pair = (si, cd)
            if pair not in pairs:
                pairs.add(pair)
                comm_mem[cs] += 1
                comm_mem[cd] += 1
        return self._price(
            ncomm=len(pairs),
            cut_count=len(cut_idx),
            slack_total=slack_total,
            get_comm_mem=lambda: comm_mem,
            cut_idx=cut_idx,
            bound=bound,
            cluster_class_counts=cluster_class_counts,
            assignment=assignment,
            asg=asg,
            tie_break=tie_break,
        )

    def _price(
        self,
        ncomm: int,
        cut_count: int,
        slack_total: int,
        get_comm_mem,
        cut_idx,
        bound: Optional[int],
        cluster_class_counts: Optional[Sequence[Sequence[int]]],
        assignment: Optional[Assignment] = None,
        asg: Optional[List[int]] = None,
        tie_break: Optional[Tuple[int, int]] = None,
    ) -> Optional[PartitionEstimate]:
        """Shared pricing tail of :meth:`estimate` and :meth:`estimate_preview`.

        ``get_comm_mem`` and ``cut_idx`` may be lazy: the memory-route usage
        is only derived on bus overflow, and a callable ``cut_idx`` is only
        materialized when the critical path is actually computed (i.e. the
        candidate survived both prunes).
        """
        ii_bus = (
            math.ceil(ncomm * self._bus_latency / self._num_buses)
            if (self._clustered and ncomm)
            else 0
        )
        trip = self.loop.trip_count - 1
        # Transfers the bus cannot absorb at the requested interval will go
        # through memory (§3.1/§3.3.2): a store in the producer's cluster
        # plus a load in the consumer's.  Charge that port usage to the
        # partition so refinement keeps memory headroom for it.
        overflow_fraction = 0.0
        if ncomm and self._clustered:
            bus_capacity = (self.ii * self._num_buses) // self._bus_latency
            overflow = max(0, ncomm - bus_capacity)
            overflow_fraction = overflow / ncomm
        if overflow_fraction > 0.0:
            mem_extra: Optional[List[float]] = [
                usage * overflow_fraction for usage in get_comm_mem()
            ]
        else:
            mem_extra = None
        if cluster_class_counts is not None:
            res_ii = self._res_mii_from_counts(cluster_class_counts, mem_extra)
        else:
            if asg is None:
                asg = [assignment[uid] for uid in self._uids]
            res_ii = self._cluster_res_mii(asg, mem_extra)
        ii_est = max(self.ii, ii_bus, res_ii)

        path_limit = None
        if bound is not None:
            # Second exact prune with the tighter ii_est.  When ii_est is
            # provably feasible for any cut set (>= the all-cut recurrence
            # MII) the uncut path *at ii_est* is a valid floor; otherwise
            # the II could still rise and shrink the path, so only the
            # global floor is sound.  Either way ``trip * ii_est + floor``
            # bounds the exec time from below, so a candidate that can at
            # best tie ``bound`` loses unless its tie-break is lower.
            ties_lose = (
                tie_break is not None and (-slack_total, cut_count) >= tie_break
            )
            feasible = ii_est >= self._all_cut_mii()
            if feasible:
                floor = self._nocut_at(ii_est)
            else:
                floor = self._path_floor()
            if floor is not None:
                lower = trip * ii_est + floor
                if lower > bound or (lower == bound and ties_lose):
                    return None
            if feasible:
                # ii_est stays, so a path above this loses too.
                path_limit = bound - trip * ii_est - ties_lose

        if callable(cut_idx):
            cut_idx = cut_idx()
        path = self._longest_path(cut_idx, ii_est, path_limit)
        if path is None:
            ii_est = self._rec_mii_with_cut(cut_idx, lower_bound=ii_est)
            path = self._longest_path(cut_idx, ii_est)
            if path is None:  # pragma: no cover - defensive
                raise PartitionError("estimator failed to converge")
        elif path_limit is not None and path > path_limit:
            return None

        exec_time = trip * ii_est + path
        return PartitionEstimate(
            exec_time=exec_time,
            ii_est=ii_est,
            ii_bus=ii_bus,
            ncomm=ncomm,
            cut_edges=cut_count,
            critical_path=path,
            cut_slack=slack_total,
        )

    #: Whether refiners may score candidate moves through
    #: :meth:`estimate_preview`.  Subclasses whose objective cannot be
    #: previewed from deltas should set this False; the pressure-aware
    #: estimator keeps it True by pairing its penalty with a
    #: delta-maintained session (see :mod:`repro.partition.pressure`).
    supports_preview = True

    def estimate_preview(
        self,
        preview: "CommPreview",
        bound: Optional[int] = None,
        cluster_class_counts: Optional[Sequence[Sequence[int]]] = None,
        tie_break: Optional[Tuple[int, int]] = None,
    ) -> Optional[PartitionEstimate]:
        """Price a previewed move set without mutating any state.

        ``cluster_class_counts`` is required (there is no assignment to
        recount from); ``bound`` and ``tie_break`` prune as in
        :meth:`estimate`.
        """
        if cluster_class_counts is None:
            raise PartitionError("estimate_preview requires cluster_class_counts")
        return self._price(
            ncomm=preview.ncomm,
            cut_count=preview.cut_count,
            slack_total=preview.slack_total,
            get_comm_mem=preview.derive_comm_mem,
            cut_idx=preview.cut_for_path,
            bound=bound,
            cluster_class_counts=cluster_class_counts,
            tie_break=tie_break,
        )

    def ncomm_ceiling(self, bound: int) -> Optional[int]:
        """Most transfers a partition may need and still price ``<= bound``.

        ``ii_est >= max(ii, IIbus)`` and no critical path undercuts the
        uncut floor, so ``trip * max(ii, IIbus) + floor > bound`` proves a
        partition prices above ``bound``.  That test depends on the
        partition only through ``ncomm``, so the refiner turns its
        incumbent's exec time into this ceiling once and drops every
        candidate above it before building a preview (the later prunes of
        :meth:`_price` would reject it too).  None means no ``ncomm`` is
        too large; -1 means every partition prices above ``bound``.
        """
        floor = self._path_floor()
        trip = self.loop.trip_count - 1
        if floor is None:
            return None
        if trip == 0:
            return -1 if floor > bound else None
        cycles = (bound - floor) // trip
        if self.ii > cycles:
            return -1
        if not self._clustered:
            return None
        # ceil(ncomm * lat / buses) <= cycles  <=>  ncomm <= this.
        return cycles * self._num_buses // self._bus_latency

    def _path_floor(self) -> Optional[int]:
        """The uncut critical path at an II no estimate can exceed.

        Edge lengths are nonincreasing in II, so this value bounds every
        partition's critical path (at any feasible ``ii_est``) from below.
        """
        if self._nocut_path_floor is None:
            self._nocut_path_floor = self._longest_path(None, self._ii_ceiling)
        return self._nocut_path_floor

    def _nocut_at(self, ii: int) -> Optional[int]:
        """The uncut critical path at ``ii`` (cached per II)."""
        if ii in self._nocut_path_cache:
            return self._nocut_path_cache[ii]
        path = self._longest_path(None, ii)
        self._nocut_path_cache[ii] = path
        return path

    def _all_cut_mii(self) -> int:
        """Smallest II feasible with every carry edge cut (lazily cached)."""
        if self._all_cut_rec_mii is None:
            all_cut = [record[0] for record in self._carry_edges]
            self._all_cut_rec_mii = self._rec_mii_with_cut(all_cut, lower_bound=1)
        return self._all_cut_rec_mii

    def cut_slack_total(self, assignment: Assignment) -> int:
        """Total slack of cut DATA edges (first refinement tie-breaker)."""
        total = 0
        for (src, dst, _lat, _dist, carries), slack in zip(
            self._edges, self._sorted_edge_slacks
        ):
            if carries and assignment[src] != assignment[dst]:
                total += slack
        return total

    # ------------------------------------------------------------------
    def _cluster_res_mii(
        self, asg: Sequence[int], mem_extra: Optional[Sequence[float]] = None
    ) -> int:
        """Resource MII over clusters; ``asg`` is indexed like ``_uids``."""
        counts = [
            [0] * len(OpClass) for _ in range(self.machine.num_clusters)
        ]
        class_arr = self._class_arr
        for i in range(self._n):
            counts[asg[i]][class_arr[i]] += 1
        return self._res_mii_from_counts(counts, mem_extra)

    def _res_mii_from_counts(
        self,
        counts: Sequence[Sequence[int]],
        mem_extra: Optional[Sequence[float]] = None,
    ) -> int:
        n_classes = len(OpClass)
        mem_index = _CLASS_INDEX[OpClass.MEM]
        worst = 1
        for cluster in range(self.machine.num_clusters):
            for cls_idx in range(n_classes):
                count = counts[cluster][cls_idx]
                if cls_idx == mem_index and mem_extra is not None:
                    count += math.ceil(mem_extra[cluster])
                if not count:
                    continue
                units = self._units[cluster][cls_idx]
                if units == 0:
                    return _INFEASIBLE_II
                need = -(-count // units)  # ceil
                if need > worst:
                    worst = need
        return worst

    def _longest_path(
        self, cut_idx: Optional[Sequence[int]], ii: int,
        limit: Optional[int] = None,
    ) -> Optional[int]:
        """Critical path with bus delays on cut DATA edges, or None if the
        modified recurrences make ``ii`` infeasible.

        ``cut_idx`` lists the cut edges' indices into ``_iedges`` (None =
        no cut edges); the per-edge base lengths are cached per II across
        estimates.  With ``limit`` (only for an ``ii`` feasible for every
        cut set), the sweep stops at the first path found longer than
        ``limit`` and returns its length: distances only grow towards the
        fixpoint, so the critical path exceeds ``limit`` too.
        """
        n = self._n
        if not n:
            return 0
        base = self._length_cache.get(ii)
        if base is None:
            base = [lat - ii * distance for _si, _di, lat, distance, _c in self._iedges]
            self._length_cache[ii] = base
        bus = self._bus_latency
        if not cut_idx:
            lengths = base
        else:
            lengths = list(base)
            for i in cut_idx:
                lengths[i] += bus
        edge_src = self._edge_src
        edge_dst = self._edge_dst
        latency_arr = self._latency_arr
        if limit is None:
            limit = math.inf
        elif max(latency_arr) > limit:
            return max(latency_arr)
        dist = [0] * n
        for _ in range(n + 1):
            changed = False
            for si, di, length in zip(edge_src, edge_dst, lengths):
                cand = dist[si] + length
                if cand > dist[di]:
                    dist[di] = cand
                    changed = True
                    if cand + latency_arr[di] > limit:
                        return cand + latency_arr[di]
            if not changed:
                return max(map(operator.add, dist, latency_arr))
        return None

    # ------------------------------------------------------------------
    def comm_session(self, assignment: Assignment) -> "CommState":
        """Start a delta-maintained communication-state session.

        The refiner prices hundreds of single-group moves against one base
        assignment; a session keeps the cut set, transfer pairs, slack and
        memory-route usage incrementally (O(degree) per move) instead of
        re-sweeping every edge per candidate.  Callers must mirror every
        assignment mutation through :meth:`CommState.move_uids`.
        """
        return CommState(self, assignment)

    def _rec_mii_with_cut(self, cut_idx: Sequence[int], lower_bound: int) -> int:
        lo = lower_bound
        if self._longest_path(cut_idx, lo) is not None:
            return lo
        hi = max(
            lo + 1,
            sum(e[2] for e in self._edges)
            + self._bus_latency * len(self._edges)
            + 1,
        )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._longest_path(cut_idx, mid) is None:
                lo = mid
            else:
                hi = mid
        return hi


class CommState:
    """Delta-maintained communication state of one refinement session.

    Mirrors exactly what :meth:`PartitionEstimator.estimate`'s full edge
    sweep derives — the cut edge set, distinct (producer, remote cluster)
    transfer pairs, cut slack and per-cluster memory-route usage — but
    updated per moved operation instead of per edge.  :meth:`verify`
    cross-checks against the full sweep and is exercised by the tests.

    Transfer pairs are counted in one flat list indexed ``si * C + cd``
    (producer uid index ``si``, consumer cluster ``cd``, ``C`` clusters),
    with the set of nonzero indexes kept alongside, so the refiner can
    read a candidate's ``ncomm`` from plain list lookups.

    Subclasses may piggyback further delta-maintained quantities on the
    same move stream — :class:`~repro.partition.pressure.PressureCommState`
    keeps the register-pressure session of the pressure-aware estimator in
    step this way, which is what lets that estimator support the refiner's
    preview fast path.
    """

    __slots__ = (
        "est",
        "asg",
        "clusters",
        "cut",
        "slack_total",
        "pair_counts",
        "live_pairs",
    )

    def __init__(self, est: PartitionEstimator, assignment: Assignment) -> None:
        self.est = est
        self.asg = [assignment[uid] for uid in est._uids]
        self.clusters = est.machine.num_clusters
        self.cut: Set[int] = set()
        self.slack_total = 0
        #: Cut edges per transfer pair, indexed ``si * clusters + cd``.
        self.pair_counts: List[int] = [0] * (est._n * self.clusters)
        #: Indexes of the nonzero ``pair_counts`` entries.
        self.live_pairs: Set[int] = set()
        asg = self.asg
        for i, si, di, slack in est._carry_edges:
            cd = asg[di]
            if asg[si] != cd:
                self._add_cut(i, si, slack, cd)

    # -- internal ------------------------------------------------------
    def _add_cut(self, i: int, si: int, slack: int, cd: int) -> None:
        self.cut.add(i)
        self.slack_total += slack
        pair = si * self.clusters + cd
        count = self.pair_counts[pair]
        if not count:
            self.live_pairs.add(pair)
        self.pair_counts[pair] = count + 1

    def _remove_cut(self, i: int, si: int, slack: int, cd: int) -> None:
        self.cut.discard(i)
        self.slack_total -= slack
        pair = si * self.clusters + cd
        count = self.pair_counts[pair] - 1
        if not count:
            self.live_pairs.discard(pair)
        self.pair_counts[pair] = count

    def derive_comm_mem(self) -> List[int]:
        """Per-cluster memory-route usage of the current transfer pairs.

        Derived on demand from the live pair set: the producer's cluster is
        read from the *current* assignment, so producer moves that keep a
        pair alive charge the right cluster (a running counter updated on
        pair create/destroy would go stale).
        """
        clusters = self.clusters
        mem = [0] * clusters
        asg = self.asg
        for pair in self.live_pairs:
            si, cd = divmod(pair, clusters)
            mem[asg[si]] += 1
            mem[cd] += 1
        return mem

    # -- updates -------------------------------------------------------
    def records_for(self, uids: Sequence[int]) -> Tuple[Tuple[int, int, int, int], ...]:
        """Deduplicated incident carry-edge records of a group of uids.

        What :meth:`move_uids` and :meth:`preview_moves` need per moved
        group; records of edges inside the group may be left out, since a
        group move never changes them (the refiner passes each group's
        boundary records).
        """
        est = self.est
        index_of = est._index_of
        affected: Dict[int, Tuple[int, int, int, int]] = {}
        for uid in uids:
            for record in est._incident_carry[index_of[uid]]:
                affected[record[0]] = record
        return tuple(affected.values())

    def move_uids(
        self,
        uids: Sequence[int],
        target: int,
        records: Optional[Sequence[Tuple[int, int, int, int]]] = None,
    ) -> None:
        """Reassign ``uids`` to cluster ``target`` and update the state.

        ``records`` — the precomputed :meth:`records_for` of ``uids`` —
        skips re-deriving the incident edge set per move.
        """
        est = self.est
        index_of = est._index_of
        asg = self.asg
        if records is None:
            records = self.records_for(uids)
        before = [(asg[si], asg[di]) for _i, si, di, _slack in records]
        for uid in uids:
            asg[index_of[uid]] = target
        for (i, si, di, slack), (old_cs, old_cd) in zip(records, before):
            new_cs = asg[si]
            new_cd = asg[di]
            if old_cs == new_cs and old_cd == new_cd:
                continue
            if old_cs != old_cd:
                self._remove_cut(i, si, slack, old_cd)
            if new_cs != new_cd:
                self._add_cut(i, si, slack, new_cd)

    def preview_moves(
        self,
        moves: Sequence[Tuple[Sequence[int], Sequence[Tuple[int, int, int, int]], int]],
    ) -> "CommPreview":
        """Price-relevant state after applying ``moves``, without mutating.

        ``moves`` is a sequence of ``(uids, records, target_cluster)`` —
        one entry per group move (two entries model a swap).  The refiner
        scores the candidates that survive its ``ncomm`` prune through a
        preview and only mutates for the round's single winner.
        """
        est = self.est
        index_of = est._index_of
        asg = self.asg
        clusters = self.clusters
        over: Dict[int, int] = {}
        records_union: Dict[int, Tuple[int, int, int, int]] = {}
        for uids, records, target in moves:
            for uid in uids:
                over[index_of[uid]] = target
            for record in records:
                records_union[record[0]] = record
        slack_total = self.slack_total
        cut_count = len(self.cut)
        ncomm = len(self.live_pairs)
        pair_delta: Dict[int, int] = {}
        cut_removed: List[int] = []
        cut_added: List[int] = []
        pair_counts = self.pair_counts
        for i, si, di, slack in records_union.values():
            old_cs = asg[si]
            old_cd = asg[di]
            new_cs = over.get(si, old_cs)
            new_cd = over.get(di, old_cd)
            if old_cs == new_cs and old_cd == new_cd:
                continue
            if old_cs != old_cd:
                cut_count -= 1
                slack_total -= slack
                cut_removed.append(i)
                pair = si * clusters + old_cd
                delta = pair_delta.get(pair, 0) - 1
                pair_delta[pair] = delta
                if pair_counts[pair] + delta == 0:
                    ncomm -= 1
            if new_cs != new_cd:
                cut_count += 1
                slack_total += slack
                cut_added.append(i)
                pair = si * clusters + new_cd
                delta = pair_delta.get(pair, 0)
                if pair_counts[pair] + delta == 0:
                    ncomm += 1
                pair_delta[pair] = delta + 1
        return CommPreview(
            self, over, ncomm, cut_count, slack_total, pair_delta,
            cut_removed, cut_added,
        )

    # -- queries -------------------------------------------------------
    @property
    def ncomm(self) -> int:
        return len(self.live_pairs)

    @property
    def cut_count(self) -> int:
        return len(self.cut)

    def verify(self, assignment: Assignment) -> None:
        """Assert this state equals a fresh full-sweep derivation.

        Covers the flat pair-count list entry by entry, not just the live
        pair set the ``ncomm`` reads come from.
        """
        fresh = CommState(self.est, assignment)
        if (
            self.asg != fresh.asg
            or self.cut != fresh.cut
            or self.slack_total != fresh.slack_total
            or self.pair_counts != fresh.pair_counts
            or self.live_pairs != fresh.live_pairs
            or self.derive_comm_mem() != fresh.derive_comm_mem()
        ):
            raise AssertionError(
                "delta-maintained CommState diverged from the full sweep"
            )


class CommPreview:
    """The communication state a move set *would* produce (see
    :meth:`CommState.preview_moves`).

    Everything is computed as deltas over the live state; the expensive
    derivations (full cut set, per-cluster memory usage) stay lazy because
    most previews die on the estimator's bound prunes first.
    """

    __slots__ = (
        "state",
        "over",
        "ncomm",
        "cut_count",
        "slack_total",
        "pair_delta",
        "cut_removed",
        "cut_added",
    )

    def __init__(
        self,
        state: CommState,
        over: Dict[int, int],
        ncomm: int,
        cut_count: int,
        slack_total: int,
        pair_delta: Dict[int, int],
        cut_removed: List[int],
        cut_added: List[int],
    ) -> None:
        self.state = state
        self.over = over
        self.ncomm = ncomm
        self.cut_count = cut_count
        self.slack_total = slack_total
        self.pair_delta = pair_delta
        self.cut_removed = cut_removed
        self.cut_added = cut_added

    def cut_for_path(self) -> Set[int]:
        """The full cut edge set under this preview (materialized lazily)."""
        cut = set(self.state.cut)
        cut.difference_update(self.cut_removed)
        cut.update(self.cut_added)
        return cut

    def derive_comm_mem(self) -> List[int]:
        """Per-cluster memory-route usage under this preview."""
        state = self.state
        clusters = state.clusters
        asg = state.asg
        over = self.over
        pair_delta = self.pair_delta
        pair_counts = state.pair_counts
        mem = [0] * clusters
        pairs = state.live_pairs.union(pair_delta)
        for pair in pairs:
            if pair_counts[pair] + pair_delta.get(pair, 0) > 0:
                si, cd = divmod(pair, clusters)
                mem[over.get(si, asg[si])] += 1
                mem[cd] += 1
        return mem
