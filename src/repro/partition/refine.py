"""Partition refinement (paper §3.2.2).

At every level of the hierarchy, from coarsest to finest, two heuristics
improve the partition induced by the coarser level:

1. **Workload balancing** — while any (functional unit class, cluster) is
   overloaded (more operations than ``units x II`` slots), move a coarse
   node using that resource to a cluster where it fits, treating resources
   from most to least saturated and never re-overloading a more critical
   resource already fixed.
2. **Cut-impact minimization** — repeatedly consider moving every boundary
   node to a neighbouring cluster (or, when the destination lacks room,
   exchanging it with a node of the destination), price each candidate with
   the :class:`~repro.partition.estimator.PartitionEstimator`, and apply the
   best one.  Ties are broken first by the total slack of the remaining cut
   edges (maximize), then by the number of cut edges (minimize), exactly as
   in the paper.  A candidate is applied only if it strictly improves the
   ``(exec_time, -cut_slack, cut_edges)`` tuple, which guarantees
   termination.

Candidates are priced in two exact phases against the incumbent (the best
candidate of the round so far, else the current partition):

* **Phase 1** turns the incumbent's exec time into a ceiling on the number
  of bus transfers (:meth:`PartitionEstimator.ncomm_ceiling`), recomputed
  only when the incumbent changes, and counts each candidate's transfers
  from the session's flat pair counts with a reusable scratch delta array.
  A candidate above the ceiling provably prices above the incumbent; most
  candidates end here, without a preview.
* **Phase 2** previews the survivors (:meth:`CommState.preview_moves`)
  and prices them with the class-count delta applied to the live loads in
  place and reverted afterwards.  The estimator's tie prune skips the
  critical path of a candidate that can at best tie the incumbent's exec
  time with a tie-break that is not lower, and stops the critical-path
  sweep as soon as a path long enough to lose is found.

No prune changes which candidate wins.  The uid-level state — the
assignment, the per-cluster class loads, the communication session and the
current score — is one session carried from level to level: projecting a
level onto the next finer one never moves an operation, so the next
level's start state is the previous level's end state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .coarsen import Level
from .estimator import PartitionEstimator

#: Assignment of hierarchy groups to clusters.
GroupAssignment = Dict[int, int]

#: A refinement transformation: ``(group, to_cluster, swap_with)`` where
#: ``swap_with`` is None for a plain move, else a group in ``to_cluster``
#: that moves to the group's cluster.
_Candidate = Tuple[int, int, Optional[int]]

_CLASSES = list(OpClass)
_N_CLASSES = len(_CLASSES)
#: Sort key preserving the paper-order tie-break (the class *name*).
_CLASS_SORT_KEY = [cls.value for cls in _CLASSES]

#: Round cap per level, for balancing and cut minimization alike.
MAX_ROUNDS = 64
#: Swap partners tried per non-fitting (group, target) move, smallest first.
MAX_SWAPS_PER_GROUP = 6


class _Session:
    """uid-level refinement state, carried across hierarchy levels."""

    __slots__ = ("assignment", "loads", "comm", "score")

    def __init__(self, assignment, loads, comm) -> None:
        #: Operation uid -> cluster.
        self.assignment: Dict[int, int] = assignment
        #: loads[cluster][class index] — operations of each class per cluster.
        self.loads: List[List[int]] = loads
        self.comm = comm
        #: Score of the current assignment; None until priced.
        self.score: Optional[Tuple[int, int, int]] = None


class _LevelView:
    """One hierarchy level bound to the session: its groups and constants.

    ``records[gid]`` holds the carry-edge records crossing the group's
    boundary; edges inside a group never change state when it moves.
    ``produced``/``consumed`` orient them for phase 1 as ``(si * C, di,
    group of di)`` (producer inside) or ``(si, si * C, group of si)``
    (consumer inside).
    """

    __slots__ = (
        "level",
        "groups",
        "class_counts",
        "records",
        "produced",
        "consumed",
        "group_pairs",
        "sorted_gids",
        "gids_by_size",
    )

    def __init__(
        self, level, groups, class_counts, records, produced, consumed, group_pairs
    ) -> None:
        self.level: Level = level
        self.groups: GroupAssignment = groups
        #: Operations of each class (by class index) inside each group.
        self.class_counts: Dict[int, List[int]] = class_counts
        self.records = records
        self.produced = produced
        self.consumed = consumed
        #: Sorted distinct (group, group) pairs joined by any DDG edge.
        self.group_pairs: List[Tuple[int, int]] = group_pairs
        self.sorted_gids = sorted(level)
        self.gids_by_size = sorted(level, key=lambda g: (len(level[g]), g))


class Refiner:
    """Refines group-to-cluster assignments at one hierarchy level.

    One refiner serves every level of one partition run: calls whose
    ``groups`` induce the uid assignment the previous call ended with reuse
    its session instead of rebuilding it.
    """

    def __init__(self, estimator: PartitionEstimator, machine: MachineConfig) -> None:
        self.estimator = estimator
        self.machine = machine
        self._clusters = machine.num_clusters
        #: capacity[cluster][class index] — issue slots at the estimator's II.
        self._capacity = [
            [machine.cluster(c).units_for_class(cls) * estimator.ii for cls in _CLASSES]
            for c in range(self._clusters)
        ]
        self._session: Optional[_Session] = None
        #: Phase-1 scratch: per-pair count deltas, zero between candidates.
        self._pair_delta: List[int] = [0] * (estimator._n * self._clusters)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _uid_assignment(self, level: Level, groups: GroupAssignment) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for gid, uids in level.items():
            cluster = groups[gid]
            for uid in uids:
                out[uid] = cluster
        return out

    def _bind(self, level: Level, groups: GroupAssignment) -> _LevelView:
        """The level's view over a session whose assignment matches ``groups``.

        The session is rebuilt only when ``groups`` induces a different uid
        assignment than the one the previous call ended with.
        """
        est = self.estimator
        index_of = est._index_of
        class_arr = est._class_arr
        groups = dict(groups)
        session = self._session
        assignment = session.assignment if session is not None else None
        gid_of: List[int] = [0] * est._n
        class_counts: Dict[int, List[int]] = {}
        for gid, uids in level.items():
            cluster = groups[gid]
            per = [0] * _N_CLASSES
            for uid in uids:
                i = index_of[uid]
                gid_of[i] = gid
                per[class_arr[i]] += 1
                if assignment is not None and assignment[uid] != cluster:
                    assignment = None
            class_counts[gid] = per
        if assignment is None:
            assignment = self._uid_assignment(level, groups)
            loads = [[0] * _N_CLASSES for _ in range(self._clusters)]
            for uid, i in index_of.items():
                loads[assignment[uid]][class_arr[i]] += 1
            session = _Session(assignment, loads, est.comm_session(assignment))
            self._session = session

        clusters = self._clusters
        records: Dict[int, list] = {gid: [] for gid in level}
        produced: Dict[int, list] = {gid: [] for gid in level}
        consumed: Dict[int, list] = {gid: [] for gid in level}
        for record in est._carry_edges:
            si = record[1]
            di = record[2]
            gs = gid_of[si]
            gd = gid_of[di]
            if gs != gd:
                records[gs].append(record)
                records[gd].append(record)
                produced[gs].append((si * clusters, di, gd))
                consumed[gd].append((si, si * clusters, gs))
        pairs = set()
        for si, di, _lat, _dist, _carries in est._iedges:
            gs = gid_of[si]
            gd = gid_of[di]
            if gs != gd:
                pairs.add((gs, gd))
        return _LevelView(
            level, groups, class_counts, records, produced, consumed, sorted(pairs)
        )

    def _shift_group(self, view: _LevelView, gid: int, target: int) -> None:
        """Move one group in the level's groups and the loads only."""
        loads = self._session.loads
        source_loads = loads[view.groups[gid]]
        target_loads = loads[target]
        view.groups[gid] = target
        for idx, count in enumerate(view.class_counts[gid]):
            if count:
                source_loads[idx] -= count
                target_loads[idx] += count

    def _sync_group(self, view: _LevelView, gid: int) -> None:
        """Bring the uid assignment and communication session up to the
        group's cluster after :meth:`_shift_group`."""
        target = view.groups[gid]
        uids = view.level[gid]
        assignment = self._session.assignment
        for uid in uids:
            assignment[uid] = target
        self._session.comm.move_uids(uids, target, view.records[gid])

    def _apply_move(self, view: _LevelView, gid: int, target: int) -> None:
        """Move one group, keeping the whole session in step."""
        self._shift_group(view, gid, target)
        self._sync_group(view, gid)

    def _apply_candidate(self, view: _LevelView, cand: _Candidate) -> Tuple[int, ...]:
        """Apply in place; returns the inverse recipe (moves to undo)."""
        gid, target, other = cand
        source = view.groups[gid]
        self._apply_move(view, gid, target)
        if other is None:
            return (gid, source)
        self._apply_move(view, other, source)
        return (gid, source, other, target)

    # ------------------------------------------------------------------
    # Heuristic 1: workload balancing
    # ------------------------------------------------------------------
    def balance_workload(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Remove resource overloads by moving groups (first-fit)."""
        view = self._bind(level, groups)
        self._balance(view)
        return dict(view.groups)

    def _balance(self, view: _LevelView) -> None:
        """Up to ``MAX_ROUNDS`` balancing moves on the groups and loads.

        Each move depends only on the group assignment, so a repeated
        assignment means the remaining moves cycle; they are replayed
        without re-deriving them.  The uid assignment and communication
        session are synced once, for the groups whose cluster changed.
        """
        loads = self._session.loads
        capacity = self._capacity
        groups = view.groups
        start = dict(groups)
        seen: Dict[Tuple[int, ...], int] = {}
        moves: List[Tuple[int, int]] = []
        for step in range(MAX_ROUNDS):
            overloaded = [
                (cluster, idx, loads[cluster][idx] / max(1, capacity[cluster][idx]))
                for cluster in range(self._clusters)
                for idx in range(_N_CLASSES)
                if loads[cluster][idx] > capacity[cluster][idx]
            ]
            if not overloaded:
                break
            state = tuple(groups.values())
            first = seen.setdefault(state, step)
            if first != step:
                period = step - first
                for i in range((MAX_ROUNDS - step) % period):
                    self._shift_group(view, *moves[first + i])
                break
            overloaded.sort(
                key=lambda item: (-item[2], item[0], _CLASS_SORT_KEY[item[1]])
            )
            move = self._balance_step(view, loads, overloaded)
            if move is None:
                break
            moves.append(move)
            self._shift_group(view, *move)
        changed = [gid for gid, cluster in start.items() if groups[gid] != cluster]
        for gid in changed:
            self._sync_group(view, gid)
        if changed:
            self._session.score = None

    def _balance_step(self, view, loads, overloaded) -> Optional[Tuple[int, int]]:
        """One balancing move ``(group, target)``, or None if none is possible."""
        groups = view.groups
        class_counts = view.class_counts
        criticality_order = [(cl, idx) for cl, idx, _sat in overloaded]
        for rank, (cluster, idx, _sat) in enumerate(overloaded):
            movable = sorted(
                (
                    gid
                    for gid in view.level
                    if groups[gid] == cluster and class_counts[gid][idx] > 0
                ),
                key=lambda gid: (-class_counts[gid][idx], gid),
            )
            protected = {i for (_cl, i) in criticality_order[: rank + 1]}
            targets = sorted(
                (c for c in range(self._clusters) if c != cluster),
                key=lambda c: (loads[c][idx], c),
            )
            for gid in movable:
                for target in targets:
                    if self._fits_after_add(
                        loads, class_counts[gid], target, protected
                    ):
                        return gid, target
        return None

    def _fits_after_add(self, loads, group_counts, target, class_indices) -> bool:
        for idx in class_indices:
            if loads[target][idx] + group_counts[idx] > self._capacity[target][idx]:
                return False
        return True

    # ------------------------------------------------------------------
    # Heuristic 2: cut-impact minimization
    # ------------------------------------------------------------------
    def _score(
        self,
        assignment: Dict[int, int],
        bound: Optional[int] = None,
        loads: Optional[List[List[int]]] = None,
        comm=None,
        tie_break: Optional[Tuple[int, int]] = None,
    ) -> Optional[Tuple[int, int, int]]:
        """Lexicographic objective: (exec time, -cut slack, cut edges).

        With ``bound`` (and ``tie_break``), returns None when the estimator
        proves the candidate cannot beat ``(bound, *tie_break)``.  ``loads``
        — the incrementally maintained cluster/class counts — and ``comm``
        — the delta-maintained communication session — spare the estimator
        its own per-candidate sweeps.
        """
        est = self.estimator.estimate(
            assignment, bound=bound, cluster_class_counts=loads, comm_state=comm,
            tie_break=tie_break,
        )
        if est is None:
            return None
        return (est.exec_time, -est.cut_slack, est.cut_edges)

    def _boundary_candidates(self, view: _LevelView) -> List[_Candidate]:
        """Moves of boundary groups plus fallback swaps (paper §3.2.2).

        A move that does not fit its target falls back to swaps with the
        target's smallest groups; those come from per-cluster buckets of
        the level's size order, built once per round.
        """
        groups = view.groups
        class_counts = view.class_counts
        loads = self._session.loads
        clusters = self._clusters
        neighbour_clusters: Dict[int, set] = {gid: set() for gid in view.level}
        for gu, gv in view.group_pairs:
            cu, cv = groups[gu], groups[gv]
            if cu != cv:
                neighbour_clusters[gu].add(cv)
                neighbour_clusters[gv].add(cu)
        free = [
            [cap - load for cap, load in zip(self._capacity[c], loads[c])]
            for c in range(clusters)
        ]
        by_cluster: Optional[List[List[int]]] = None

        candidates: List[_Candidate] = []
        for gid in view.sorted_gids:
            neighbours = neighbour_clusters[gid]
            if not neighbours:
                continue
            counts_g = class_counts[gid]
            free_s = free[groups[gid]]
            for target in sorted(neighbours):
                free_t = free[target]
                for idx in range(_N_CLASSES):
                    count = counts_g[idx]
                    if count and count > free_t[idx]:
                        break
                else:
                    candidates.append((gid, target, None))
                    continue
                if by_cluster is None:
                    by_cluster = [[] for _ in range(clusters)]
                    for other in view.gids_by_size:
                        by_cluster[groups[other]].append(other)
                # ``target`` neighbours ``gid``, so ``gid`` is not in it.
                for other in by_cluster[target][:MAX_SWAPS_PER_GROUP]:
                    counts_o = class_counts[other]
                    for idx in range(_N_CLASSES):
                        shift = counts_g[idx] - counts_o[idx]
                        if shift > free_t[idx] or -shift > free_s[idx]:
                            break
                    else:
                        candidates.append((gid, target, other))
        return candidates

    def _candidate_ncomm(self, view: _LevelView, cand: _Candidate) -> int:
        """Phase 1: the candidate's bus transfer count, without a preview.

        Collects the transfer pairs the candidate's boundary edges leave
        (``gone``) and enter (``new``), then counts the pairs whose total
        crosses zero against the session's flat pair counts, accumulating
        in the reusable scratch delta array (reset before returning).
        Equals ``comm.preview_moves(...).ncomm`` for the same candidate.
        """
        gid, target, other = cand
        comm = self._session.comm
        asg = comm.asg
        source = view.groups[gid]
        gone: List[int] = []
        new: List[int] = []
        # ``gid`` moves source -> target; ``other`` (if any) target -> source.
        for base, di, gd in view.produced[gid]:
            cd = asg[di]
            if cd != source:
                gone.append(base + cd)
            if gd == other:
                cd = source
            if cd != target:
                new.append(base + cd)
        for si, base, gs in view.consumed[gid]:
            cs = asg[si]
            if cs != source:
                gone.append(base + source)
            if gs == other:
                cs = source
            if cs != target:
                new.append(base + target)
        if other is not None:
            # Edges between the two groups were walked above.
            for base, di, gd in view.produced[other]:
                if gd != gid:
                    cd = asg[di]
                    if cd != target:
                        gone.append(base + cd)
                    if cd != source:
                        new.append(base + cd)
            for si, base, gs in view.consumed[other]:
                if gs != gid:
                    cs = asg[si]
                    if cs != target:
                        gone.append(base + target)
                    if cs != source:
                        new.append(base + source)
        pair_counts = comm.pair_counts
        delta = self._pair_delta
        ncomm = len(comm.live_pairs)
        for pair in gone:
            d = delta[pair] - 1
            delta[pair] = d
            if pair_counts[pair] + d == 0:
                ncomm -= 1
        for pair in new:
            d = delta[pair]
            if pair_counts[pair] + d == 0:
                ncomm += 1
            delta[pair] = d + 1
        for pair in gone:
            delta[pair] = 0
        for pair in new:
            delta[pair] = 0
        return ncomm

    def _preview_score(
        self, view: _LevelView, cand: _Candidate,
        incumbent: Optional[Tuple[int, int, int]] = None,
    ) -> Optional[Tuple[int, int, int]]:
        """Phase 2: price a candidate through a preview, mutating nothing
        that outlives the call (the loads delta is applied and reverted).

        With ``incumbent``, returns None when the estimator proves the
        candidate cannot beat it.
        """
        gid, target, other = cand
        groups = view.groups
        level = view.level
        records = view.records
        source = groups[gid]
        loads = self._session.loads
        moves = [(level[gid], records[gid], target)]
        deltas = [(view.class_counts[gid], source, target)]
        if other is not None:
            moves.append((level[other], records[other], source))
            deltas.append((view.class_counts[other], target, source))
        for counts, src, dst in deltas:
            src_row = loads[src]
            dst_row = loads[dst]
            for idx, count in enumerate(counts):
                if count:
                    src_row[idx] -= count
                    dst_row[idx] += count
        est = self.estimator.estimate_preview(
            self._session.comm.preview_moves(moves),
            bound=incumbent[0] if incumbent else None,
            cluster_class_counts=loads,
            tie_break=incumbent[1:] if incumbent else None,
        )
        for counts, src, dst in deltas:
            src_row = loads[src]
            dst_row = loads[dst]
            for idx, count in enumerate(counts):
                if count:
                    src_row[idx] += count
                    dst_row[idx] -= count
        if est is None:
            return None
        return (est.exec_time, -est.cut_slack, est.cut_edges)

    def _trial_score(
        self, view: _LevelView, cand: _Candidate, incumbent: Tuple[int, int, int]
    ) -> Optional[Tuple[int, int, int]]:
        """Phase 2 for estimators without previews: apply, price, undo."""
        session = self._session
        recipe = self._apply_candidate(view, cand)
        score = self._score(
            session.assignment, bound=incumbent[0], loads=session.loads,
            comm=session.comm, tie_break=incumbent[1:],
        )
        for i in range(len(recipe) - 2, -1, -2):
            self._apply_move(view, recipe[i], recipe[i + 1])
        return score

    def minimize_cut_impact(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Apply best-improvement moves/swaps until no candidate helps."""
        view = self._bind(level, groups)
        self._minimize(view)
        return dict(view.groups)

    def _minimize(self, view: _LevelView) -> None:
        session = self._session
        estimator = self.estimator
        if session.score is None:
            session.score = self._score(
                session.assignment, loads=session.loads, comm=session.comm
            )
        if getattr(estimator, "supports_preview", False):
            price = self._preview_score
        else:
            price = self._trial_score
        current = session.score
        for _ in range(MAX_ROUNDS):
            # A winner must beat the incumbent: the best candidate so far,
            # else the current partition (best < current once any won).
            incumbent = current
            ceiling = estimator.ncomm_ceiling(incumbent[0])
            chosen: Optional[_Candidate] = None
            for cand in self._boundary_candidates(view):
                if ceiling is not None and self._candidate_ncomm(view, cand) > ceiling:
                    continue
                score = price(view, cand, incumbent)
                if score is not None and score < incumbent:
                    if score[0] != incumbent[0]:
                        ceiling = estimator.ncomm_ceiling(score[0])
                    incumbent = score
                    chosen = cand
            if chosen is None:
                break
            current = incumbent
            self._apply_candidate(view, chosen)
        session.score = current

    # ------------------------------------------------------------------
    def refine(self, level: Level, groups: GroupAssignment) -> GroupAssignment:
        """Balance workload, then minimize cut impact, at this level."""
        view = self._bind(level, groups)
        self._balance(view)
        self._minimize(view)
        return dict(view.groups)
