"""Register lifetime accounting for modulo schedules.

A value live over the absolute cycle interval ``[birth, death)`` occupies a
register of its cluster.  Because consecutive iterations overlap every II
cycles, the number of simultaneously live instances at kernel cycle ``m`` is
the number of integers ``k`` with ``birth <= m + k*II < death``; the
cluster's register requirement is the maximum of that count (summed over all
values) across the II kernel cycles — the classic *MaxLives* measure used
for modulo-schedule register allocation.

Zero-length intervals still consume a register for one cycle (a produced
value exists at least until the writeback).

These pure functions are the *reference* accounting.  The incremental
mirror every hot path uses — and the one finished schedules carry for
their validator and metrics — is the
:class:`~repro.schedule.analysis_core.ScheduleAnalysis` session.  Its
flat-ring update (:func:`~repro.schedule.analysis_core.add_segment_flat`)
adds exactly what :func:`add_segment_to_ring` below adds, a property the
equivalence tests check, and ``ScheduleAnalysis.verify()`` compares its
rings against :func:`pressure_by_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..machine.config import MachineConfig


@dataclass(frozen=True)
class LiveSegment:
    """A register occupancy interval in one cluster.

    Attributes:
        cluster: Cluster whose register file holds the value.
        birth: Absolute cycle the value becomes live.
        death: Absolute cycle the value dies (exclusive); clamped to at
            least ``birth + 1``.
    """

    cluster: int
    birth: int
    death: int

    @property
    def length(self) -> int:
        return max(self.death - self.birth, 1)


def add_segment_to_ring(
    row: List[int], birth: int, length: int, ii: int, sign: int = 1
) -> None:
    """Add (``sign=+1``) or remove (``sign=-1``) one segment's live counts
    from a kernel-cycle ring ``row`` of length ``ii``.

    This is the reference definition of the per-cycle accounting
    arithmetic: the reference recompute (:func:`pressure_by_cycle`) goes
    through it, and the incremental session's flat-ring update
    (:func:`repro.schedule.analysis_core.add_segment_flat`) is tested
    against it.
    """
    whole, rem = divmod(length, ii)
    if whole:
        add = sign * whole
        for m in range(ii):
            row[m] += add
    start = birth % ii
    for offset in range(rem):
        row[(start + offset) % ii] += sign


def pressure_by_cycle(
    segments: Iterable[LiveSegment], ii: int, num_clusters: int
) -> List[List[int]]:
    """Per-cluster live-value counts for each kernel cycle.

    Returns ``counts[cluster][m]`` = values live at kernel cycle ``m``.
    """
    counts = [[0] * ii for _ in range(num_clusters)]
    for seg in segments:
        add_segment_to_ring(counts[seg.cluster], seg.birth, seg.length, ii)
    return counts


def max_live(
    segments: Iterable[LiveSegment], ii: int, num_clusters: int
) -> List[int]:
    """MaxLives per cluster: peak simultaneous live values."""
    return [max(row) if row else 0 for row in pressure_by_cycle(segments, ii, num_clusters)]


def register_cycles(
    segments: Iterable[LiveSegment], num_clusters: int
) -> List[int]:
    """Total register-cycles consumed per cluster (figure-of-merit input)."""
    totals = [0] * num_clusters
    for seg in segments:
        totals[seg.cluster] += seg.length
    return totals


def fits_registers(
    segments: Iterable[LiveSegment],
    ii: int,
    machine: MachineConfig,
) -> bool:
    """True if every cluster's MaxLives is within its register file."""
    peaks = max_live(segments, ii, machine.num_clusters)
    return all(
        peaks[cluster] <= machine.cluster(cluster).registers
        for cluster in range(machine.num_clusters)
    )


def overflowing_clusters(
    segments: Iterable[LiveSegment],
    ii: int,
    machine: MachineConfig,
) -> List[int]:
    """Clusters whose register requirement exceeds their file, worst first."""
    peaks = max_live(segments, ii, machine.num_clusters)
    over = [
        (peaks[cluster] - machine.cluster(cluster).registers, cluster)
        for cluster in range(machine.num_clusters)
        if peaks[cluster] > machine.cluster(cluster).registers
    ]
    over.sort(key=lambda item: (-item[0], item[1]))
    return [cluster for _excess, cluster in over]
