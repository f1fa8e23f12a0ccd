"""The shared lifetime-analysis core.

One :class:`ScheduleAnalysis` session owns everything the register model
of the paper needs: the *value ledger* (producer uid ->
:class:`~repro.schedule.values.ValueState`), the per-value
:class:`~repro.schedule.lifetimes.LiveSegment` lists derived from it, the
per-cluster pressure rings (live values at each of the II kernel cycles)
and the running register-cycle totals.  Every consumer of the MaxLives
register model goes through this session:

* the **scheduling engine** creates one per attempt and maintains it by
  delta as values are committed, mutated and spilled, with O(routes)
  candidate previews via :meth:`preview_effect`;
* the **finished schedule** carries the very same session
  (:meth:`~repro.schedule.result.ModuloSchedule.attach_analysis`), so the
  independent validator and the evaluation metrics read cached peaks and
  register-cycles instead of re-deriving every lifetime from scratch;
* schedules built *without* an engine (deserialized, hand-made, mutated by
  tests) lazily build their session from the raw ledger via
  :meth:`from_values`.

The rings of all clusters live in one flat list (cluster ``c`` at
``[c * II, (c + 1) * II)``) updated by :func:`add_segment_flat`, because
the engine previews thousands of candidates per loop and a flat slice copy
is cheaper than a list of lists; :attr:`ScheduleAnalysis.counts` returns
the reference list-of-lists shape for comparisons.

The pure functions in :mod:`repro.schedule.lifetimes` and
:mod:`repro.schedule.values` stay the reference implementation.  The
session's :meth:`verify` cross-checks the incremental state against them,
and :meth:`rebuild` re-derives a fresh session from the raw ledger — the
``validate(full_recheck=True)`` escape hatch rebuilds and cross-checks so
a stale or corrupted cache can never hide a register violation.

:mod:`repro.schedule.structural_core` is this module's structural
sibling: the same session discipline (engine handover, lazy derivation
for session-less schedules, a from-scratch reference the paranoid mode
rebuilds and compares against) applied to the dependence, functional-unit
and bus checks, whose occupancy rows the engine's reservation table
already maintains.  Between the two sessions, ``validate()`` no longer
sweeps any per-edge or per-placement state on engine-produced schedules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .lifetimes import LiveSegment, pressure_by_cycle, register_cycles
from .values import ValueState, segments_of_value, value_segments


def add_segment_flat(
    buf, base: int, birth: int, length: int, ii: int, sign: int
) -> None:
    """:func:`~repro.schedule.lifetimes.add_segment_to_ring` on a flat ring.

    Operates on ``buf[base : base + ii]`` and adds exactly what the
    reference adds: ``sign * (length // ii)`` to every kernel cycle, plus
    ``sign`` to the ``length % ii`` cycles starting at ``birth % ii``.
    The remainder run is split at the ring's wrap point instead of paying
    the reference's per-element modulo — same cells, same totals.
    """
    whole, rem = divmod(length, ii)
    if whole:
        add = sign * whole
        for m in range(base, base + ii):
            buf[m] += add
    if rem:
        start = base + birth % ii
        end = start + rem
        top = base + ii
        if end <= top:
            for m in range(start, end):
                buf[m] += sign
        else:
            for m in range(start, top):
                buf[m] += sign
            for m in range(base, end - ii):
                buf[m] += sign


class ScheduleAnalysis:
    """Lifetime-analysis session over one schedule's value ledger.

    Maintains, by exact-inverse integer deltas:

    * the per-cluster pressure rings (:attr:`counts` is exactly
      :func:`~repro.schedule.lifetimes.pressure_by_cycle` of the tracked
      values);
    * ``reg_cycles[cluster]`` — running register-cycle totals (exactly
      :func:`~repro.schedule.lifetimes.register_cycles`);
    * a per-value cache of the :class:`LiveSegment` lists currently folded
      into the rings.

    The engine mirrors its committed value set through
    :meth:`track`/:meth:`update`; candidate previews go through
    :meth:`preview_effect` (no mutation) or the snapshot primitives
    :meth:`set_segments`/:meth:`forget`.
    """

    def __init__(
        self,
        ii: int,
        num_clusters: int,
        values: Optional[Dict[int, ValueState]] = None,
    ) -> None:
        self.ii = ii
        self.num_clusters = num_clusters
        # Live values of cluster c at kernel cycle m sit at c * ii + m.
        self._ring: List[int] = [0] * (num_clusters * ii)
        #: Running register-cycle totals per cluster.
        self.reg_cycles: List[int] = [0] * num_clusters
        # producer uid -> the segment list currently folded into the rings.
        # Lists are always *replaced*, never mutated in place, so a caller
        # may hold one as a rollback snapshot.
        self._segments: Dict[int, List[LiveSegment]] = {}
        #: The value ledger this session analyzes.  ``track``/``forget``
        #: keep it in step with the tracked segment set.
        self.values: Dict[int, ValueState] = {}
        if values:
            for value in values.values():
                self.track(value)

    @classmethod
    def from_values(
        cls,
        values: Mapping[int, ValueState],
        ii: int,
        num_clusters: int,
    ) -> "ScheduleAnalysis":
        """Build a session from a raw value ledger (the reference path)."""
        return cls(ii, num_clusters, values=dict(values))

    @property
    def counts(self) -> List[List[int]]:
        """``counts[cluster][m]`` — live values at kernel cycle ``m`` (copies)."""
        ii = self.ii
        ring = self._ring
        return [ring[c * ii : (c + 1) * ii] for c in range(self.num_clusters)]

    # ------------------------------------------------------------------
    # Ring arithmetic
    # ------------------------------------------------------------------
    def _apply(self, segments: Iterable[LiveSegment], sign: int) -> None:
        ii = self.ii
        ring = self._ring
        reg_cycles = self.reg_cycles
        for seg in segments:
            length = seg.length
            cluster = seg.cluster
            add_segment_flat(ring, cluster * ii, seg.birth, length, ii, sign)
            reg_cycles[cluster] += sign * length

    # ------------------------------------------------------------------
    # Ledger maintenance
    # ------------------------------------------------------------------
    def track(self, value: ValueState) -> None:
        """Start tracking a newly committed value."""
        segments = segments_of_value(value)
        self._apply(segments, +1)
        self._segments[value.producer] = segments
        self.values[value.producer] = value

    def update(self, value: ValueState) -> None:
        """Re-derive one value's segments after a mutation; apply the delta."""
        old = self._segments.get(value.producer)
        new = segments_of_value(value)
        if old is not None:
            self._apply(old, -1)
        self._apply(new, +1)
        self._segments[value.producer] = new
        self.values[value.producer] = value

    def set_segments(self, producer: int, segments: List[LiveSegment]) -> None:
        """Restore a value's folded-in segments to a snapshot (rollback)."""
        old = self._segments.get(producer)
        if old is not None:
            self._apply(old, -1)
        self._apply(segments, +1)
        self._segments[producer] = segments

    def forget(self, producer: int) -> None:
        """Stop tracking a value (rollback of a previewed new value)."""
        old = self._segments.pop(producer, None)
        if old is not None:
            self._apply(old, -1)
        self.values.pop(producer, None)

    def segments_of(self, producer: int) -> Sequence[LiveSegment]:
        """The segment list currently folded in for ``producer``."""
        return self._segments.get(producer, ())

    def segments(self) -> List[LiveSegment]:
        """All tracked segments, in value-ledger order.

        Equals :func:`~repro.schedule.values.value_segments` over the
        ledger (the session tracks values in insertion order).
        """
        out: List[LiveSegment] = []
        for segs in self._segments.values():
            out.extend(segs)
        return out

    # ------------------------------------------------------------------
    # Candidate preview (no mutation)
    # ------------------------------------------------------------------
    def preview_effect(
        self,
        changes: Sequence[Tuple[Sequence[LiveSegment], int]],
        registers: Sequence[int],
        committed_peaks: Sequence[int],
    ) -> Tuple[List[int], bool]:
        """(register-cycle delta per cluster, fits) for a segment delta.

        ``changes`` is a list of (segments, ±1) pairs — the candidate's
        removed and added segments.  Only the touched clusters' rings are
        copied and re-peaked; untouched clusters reuse ``committed_peaks``
        (the committed state may legitimately overflow after a spill, so
        every cluster must be checked).  The live state is never mutated,
        so there is nothing to roll back.
        """
        ii = self.ii
        delta = [0] * self.num_clusters
        rows: Dict[int, List[int]] = {}
        ring = self._ring
        for segments, sign in changes:
            for seg in segments:
                cluster = seg.cluster
                row = rows.get(cluster)
                if row is None:
                    base = cluster * ii
                    row = ring[base : base + ii]
                    rows[cluster] = row
                length = seg.length
                add_segment_flat(row, 0, seg.birth, length, ii, sign)
                delta[cluster] += sign * length
        for cluster in range(self.num_clusters):
            row = rows.get(cluster)
            peak = max(row) if row is not None else committed_peaks[cluster]
            if peak > registers[cluster]:
                return delta, False
        return delta, True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def peaks(self) -> List[int]:
        """MaxLives per cluster of the tracked state."""
        ii = self.ii
        ring = self._ring
        return [max(ring[c * ii : (c + 1) * ii]) for c in range(self.num_clusters)]

    #: Alias matching the reference function's name.
    max_live = peaks

    def fits(self, registers: Sequence[int]) -> bool:
        """True if every cluster's peak is within its register file."""
        ii = self.ii
        ring = self._ring
        for cluster in range(self.num_clusters):
            if max(ring[cluster * ii : (cluster + 1) * ii]) > registers[cluster]:
                return False
        return True

    # ------------------------------------------------------------------
    # Reference rebuild and cross-checks
    # ------------------------------------------------------------------
    def rebuild(self) -> "ScheduleAnalysis":
        """A fresh session re-derived from the raw value ledger."""
        return ScheduleAnalysis.from_values(self.values, self.ii, self.num_clusters)

    def matches(self, other: "ScheduleAnalysis") -> bool:
        """True if two sessions fold in identical lifetime pictures."""
        return (
            self.ii == other.ii
            and self.num_clusters == other.num_clusters
            and self._ring == other._ring
            and self.reg_cycles == other.reg_cycles
            and set(self._segments) == set(other._segments)
        )

    def verify(self, values: Optional[Iterable[ValueState]] = None) -> None:
        """Assert the incremental state equals the full recompute.

        Raises :class:`AssertionError` naming the first mismatching
        quantity.  This is the escape hatch that keeps the O(routes) fast
        path honest against the pure functions the validator trusts.
        ``values`` defaults to the session's own ledger.
        """
        values = list(self.values.values() if values is None else values)
        segments = value_segments(values)
        ref_counts = pressure_by_cycle(segments, self.ii, self.num_clusters)
        ref_cycles = register_cycles(segments, self.num_clusters)
        if self.counts != ref_counts:
            raise AssertionError(
                f"pressure ring diverged: incremental {self.counts} "
                f"!= reference {ref_counts}"
            )
        if self.reg_cycles != ref_cycles:
            raise AssertionError(
                f"register-cycle totals diverged: incremental "
                f"{self.reg_cycles} != reference {ref_cycles}"
            )
        tracked = set(self._segments)
        committed = {v.producer for v in values}
        if tracked != committed:
            raise AssertionError(
                f"tracked value set diverged: {sorted(tracked)} "
                f"!= {sorted(committed)}"
            )
