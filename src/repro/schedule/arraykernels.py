"""Flat-array hot-path kernels for the scheduling engine.

The engine's innermost loops — the FU free-slot probe, the bus-slot scan
and the pressure-ring preview — are executed millions of times per
extended-tier run.  The reference implementations keep that state in
tuple-keyed dicts (``(cluster, OpClass) -> row``, ``(bus, cycle) -> busy``)
and per-cluster list rings, so every probe pays a tuple allocation plus an
``Enum.__hash__`` call (a Python-level function).  This module re-lays the
same state as **flat integer lists** indexed by plain integer arithmetic
(plain lists beat ``array('q')`` in CPython: element reads hand back
already-boxed small ints):

* :class:`ArrayReservationTable` — FU occupancy as one flat list of
  ``clusters × classes × II`` counts (row base =
  ``(cluster * len(OpClass) + op_class.index) * II``), the bus ledger as a
  ``bytearray`` of ``buses × II`` flags, and the per-class running totals
  as one flat counter list.  :class:`~repro.schedule.mrt.Overlay` keys
  become the same flat indexes (the table owns key construction via
  ``_fu_key``/``_bus_key``), so candidate staging stops hashing enums too.
* :class:`ArrayScheduleAnalysis` — the per-cluster pressure rings as one
  flat list (ring base = ``cluster * II``); candidate previews copy one
  II-sized slice per touched cluster.

**Reference-truth contract.** The dict/list implementations in
:mod:`~repro.schedule.mrt` and :mod:`~repro.schedule.analysis_core` remain
the reference truth: these subclasses override only the storage layout,
never the arithmetic — ring updates mirror
:func:`~repro.schedule.lifetimes.add_segment_to_ring` operation-for-
operation via :func:`add_segment_flat`, and the occupancy-row handover
normalizes back to the exact plain-list shape the reference sweeps
produce.  ``EngineOptions.array_kernels`` selects the layout per engine
(default on; ``False`` forces the pure dict/list path), and the A/B
property tests in ``tests/test_arraykernels.py`` assert bit-identical
schedules either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig
from .analysis_core import ScheduleAnalysis
from .mrt import BusSlot, FUSlot, ReservationTable


def add_segment_flat(buf, base: int, birth: int, length: int, ii: int, sign: int) -> None:
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


# ----------------------------------------------------------------------
# Reservation table on flat buffers
# ----------------------------------------------------------------------
class ArrayReservationTable(ReservationTable):
    """:class:`ReservationTable` with flat-array occupancy state.

    The dict state the base class builds stays allocated but unused (it is
    tiny); every method that reads or writes occupancy is overridden to go
    through the flat buffers instead.  Overlay keys are flat indexes here
    (see ``_fu_key``/``_bus_key``), so one integer hash replaces a tuple
    allocation plus an enum hash per staged probe.
    """

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        super().__init__(machine, ii)
        self._n_classes = len(OpClass)
        self._num_clusters = machine.num_clusters
        cap = [0] * (self._num_clusters * self._n_classes)
        for (cluster, op_class), capacity in self._capacity.items():
            cap[cluster * self._n_classes + op_class.index] = capacity
        self._cap_flat = cap
        self._fu_flat = [0] * (self._num_clusters * self._n_classes * ii)
        self._class_used_flat = [0] * (self._num_clusters * self._n_classes)
        self._num_buses = machine.num_buses
        self._bus_flat = bytearray(machine.num_buses * ii)
        self._bus_total_flat = machine.num_buses * ii

    # -- overlay key construction (int indexes instead of tuples) ---------
    def _fu_key(self, cluster: int, op_class: OpClass, m: int) -> int:
        return (cluster * self._n_classes + op_class.index) * self.ii + m

    def _bus_key(self, bus: int, cycle: int) -> int:
        return bus * self.ii + cycle

    # -- functional units --------------------------------------------------
    def fu_free_at(
        self,
        cluster: int,
        op_class: OpClass,
        cycle: int,
        overlay=None,
    ) -> bool:
        if not 0 <= cluster < self._num_clusters:
            # Same surfacing as the reference path's KeyError branch.
            self.machine.cluster(cluster)
        ii = self.ii
        row = cluster * self._n_classes + op_class.index
        idx = row * ii + cycle % ii
        used = self._fu_flat[idx]
        if overlay is not None:
            pending = overlay._fu.get(idx)
            if pending:
                used += pending
        return used < self._cap_flat[row]

    def reserve_fu(self, slot: FUSlot) -> None:
        row = slot.cluster * self._n_classes + slot.op_class.index
        self._fu_flat[row * self.ii + slot.cycle % self.ii] += 1
        self._class_used_flat[row] += 1

    def release_fu(self, slot: FUSlot) -> None:
        row = slot.cluster * self._n_classes + slot.op_class.index
        self._fu_flat[row * self.ii + slot.cycle % self.ii] -= 1
        self._class_used_flat[row] -= 1

    def fu_slots_used(self, cluster: int, op_class: OpClass) -> int:
        if not 0 <= cluster < self._num_clusters:
            return 0
        return self._class_used_flat[cluster * self._n_classes + op_class.index]

    # -- buses -------------------------------------------------------------
    def bus_free(self, slot: BusSlot, overlay=None) -> bool:
        cycles = self.bus_cycles(slot)
        if cycles is None:
            return False
        base = slot.bus * self.ii
        bus_flat = self._bus_flat
        pending = overlay._bus if overlay is not None else None
        for cycle in cycles:
            idx = base + cycle
            if bus_flat[idx]:
                return False
            if pending is not None and pending.get(idx, False):
                return False
        return True

    def find_bus_slot(
        self,
        earliest: int,
        latest_start: int,
        length: int,
        overlay=None,
    ) -> Optional[BusSlot]:
        if latest_start < earliest:
            return None
        if self._bus_cycles_in_use >= self._bus_total_flat:
            # Saturated ledger: every (bus, kernel-cycle) pair is taken, and
            # an overlay only adds occupancy, so no scan can succeed.  This
            # O(1) exit retires the full II x buses scan that otherwise runs
            # (and fails) for every cross-cluster route once the single bus
            # of the paper's machines fills up.
            return None
        ii = self.ii
        limit = min(latest_start, earliest + ii - 1)
        num_buses = self._num_buses
        bus_flat = self._bus_flat
        pending = overlay._bus if overlay is not None else None
        if length == 1:
            if num_buses == 1:
                # Single-bus machines (all Table 1 configurations): the
                # flat index *is* the kernel cycle.
                for start in range(earliest, limit + 1):
                    idx = start % ii
                    if bus_flat[idx]:
                        continue
                    if pending is not None and pending.get(idx, False):
                        continue
                    return BusSlot(bus=0, start=start, length=1)
                return None
            for start in range(earliest, limit + 1):
                cycle = start % ii
                for bus in range(num_buses):
                    idx = bus * ii + cycle
                    if bus_flat[idx]:
                        continue
                    if pending is not None and pending.get(idx, False):
                        continue
                    return BusSlot(bus=bus, start=start, length=1)
            return None
        for start in range(earliest, limit + 1):
            for bus in range(num_buses):
                slot = BusSlot(bus=bus, start=start, length=length)
                if self.bus_free(slot, overlay):
                    return slot
        return None

    def reserve_bus(self, slot: BusSlot) -> None:
        cycles = self.bus_cycles(slot)
        if cycles is None:
            raise ValueError("cannot reserve a self-overlapping bus transfer")
        base = slot.bus * self.ii
        bus_flat = self._bus_flat
        for cycle in cycles:
            idx = base + cycle
            if not bus_flat[idx]:
                self._bus_cycles_in_use += 1
            bus_flat[idx] = 1

    def release_bus(self, slot: BusSlot) -> None:
        base = slot.bus * self.ii
        bus_flat = self._bus_flat
        for cycle in self.bus_cycles(slot) or []:
            idx = base + cycle
            if bus_flat[idx]:
                bus_flat[idx] = 0
                self._bus_cycles_in_use -= 1

    # -- structural handover ----------------------------------------------
    def fu_occupancy_rows(self) -> Dict[Tuple[int, OpClass], List[int]]:
        rows: Dict[Tuple[int, OpClass], List[int]] = {}
        ii = self.ii
        flat = self._fu_flat
        for key in self._capacity:
            cluster, op_class = key
            base = (cluster * self._n_classes + op_class.index) * ii
            row = flat[base : base + ii]
            if any(row):
                rows[key] = row
        return rows

    def bus_occupancy_rows(self) -> Dict[int, List[int]]:
        rows: Dict[int, List[int]] = {}
        ii = self.ii
        for bus in range(self.machine.num_buses):
            base = bus * ii
            row = list(self._bus_flat[base : base + ii])
            if any(row):
                rows[bus] = row
        return rows


# ----------------------------------------------------------------------
# Pressure rings on flat buffers
# ----------------------------------------------------------------------
class ArrayScheduleAnalysis(ScheduleAnalysis):
    """:class:`ScheduleAnalysis` with one flat pressure-ring list.

    The ring for cluster ``c`` lives at ``[c * II, (c + 1) * II)``; the
    ``counts`` property materializes the reference's list-of-lists shape,
    so ``matches()``/``verify()`` (and any test peeking at the rings)
    compare against reference sessions unchanged.  ``reg_cycles`` stays a
    plain Python list — it is read per candidate by the figure of merit
    and exported verbatim.
    """

    def _init_rings(self) -> None:
        self._counts_flat = [0] * (self.num_clusters * self.ii)

    @property
    def counts(self) -> List[List[int]]:
        ii = self.ii
        flat = self._counts_flat
        return [
            flat[cluster * ii : (cluster + 1) * ii]
            for cluster in range(self.num_clusters)
        ]

    def _apply(self, segments, sign: int) -> None:
        ii = self.ii
        flat = self._counts_flat
        reg_cycles = self.reg_cycles
        for seg in segments:
            length = seg.length
            cluster = seg.cluster
            add_segment_flat(flat, cluster * ii, seg.birth, length, ii, sign)
            reg_cycles[cluster] += sign * length

    def preview_effect(self, changes, registers, committed_peaks):
        ii = self.ii
        delta = [0] * self.num_clusters
        rows: Dict[int, List[int]] = {}
        flat = self._counts_flat
        for segments, sign in changes:
            for seg in segments:
                cluster = seg.cluster
                row = rows.get(cluster)
                if row is None:
                    base = cluster * ii
                    row = flat[base : base + ii]
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

    def peaks(self) -> List[int]:
        ii = self.ii
        flat = self._counts_flat
        return [
            max(flat[cluster * ii : (cluster + 1) * ii])
            for cluster in range(self.num_clusters)
        ]

    max_live = peaks

    def fits(self, registers) -> bool:
        ii = self.ii
        flat = self._counts_flat
        for cluster in range(self.num_clusters):
            if max(flat[cluster * ii : (cluster + 1) * ii]) > registers[cluster]:
                return False
        return True


# ----------------------------------------------------------------------
# Layout selection
# ----------------------------------------------------------------------
def make_reservation_table(
    machine: MachineConfig, ii: int, array_kernels: bool
) -> ReservationTable:
    """The engine's reservation table in the requested layout."""
    if array_kernels:
        return ArrayReservationTable(machine, ii)
    return ReservationTable(machine, ii)


def make_tracker(
    ii: int, num_clusters: int, array_kernels: bool
) -> ScheduleAnalysis:
    """The engine's pressure tracker in the requested layout."""
    if array_kernels:
        return ArrayScheduleAnalysis(ii, num_clusters)
    return ScheduleAnalysis(ii, num_clusters)
