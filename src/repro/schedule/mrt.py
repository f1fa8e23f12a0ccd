"""Modulo reservation tables.

All machine resources are tracked modulo the initiation interval:

* **Functional units** — per (cluster, unit kind): at most ``units``
  operations may issue in each kernel cycle.  Units are fully pipelined, so
  an operation occupies its unit only at the issue cycle.  Memory units
  double as memory ports, as in the paper's configurations.
* **Buses** — per bus: the paper's bus is *non-pipelined*, so a transfer of
  latency ``L`` occupies one bus for ``L`` consecutive cycles, which must be
  distinct modulo II.

Candidate evaluation must not disturb the table, so reservations can be
staged in an :class:`Overlay` and committed only once a candidate wins.

The state is kept in flat integer lists indexed by plain arithmetic, because
the engine's free-slot and bus probes run millions of times per sweep and
tuple keys would cost an allocation plus an ``Enum.__hash__`` call each:

* FU occupancy is one list of ``clusters x classes x II`` counts; the row of
  (cluster, class) starts at ``(cluster * len(OpClass) + op_class.index) * II``;
* the bus ledger is a ``bytearray`` of ``buses x II`` busy flags (row base
  ``bus * II``);
* the per-(cluster, class) running totals are one flat counter list.

:class:`Overlay` keys are the same flat indexes.  The from-scratch sweeps in
:mod:`~repro.schedule.structural_core` stay the reference: the occupancy-row
handover normalizes back to their exact shape, and
``validate(full_recheck=True)`` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.opcodes import OpClass
from ..machine.config import MachineConfig

#: Row stride of the flat FU layout: one row per (cluster, class).
_N_CLASSES = len(OpClass)


@dataclass(frozen=True)
class FUSlot:
    """A functional-unit issue slot: one op of ``op_class`` at ``cycle``."""

    cluster: int
    op_class: OpClass
    cycle: int  # absolute issue cycle; occupancy is at cycle % II


@dataclass(frozen=True)
class BusSlot:
    """A bus transfer: occupies ``bus`` for ``length`` cycles from ``start``."""

    bus: int
    start: int  # absolute cycle of the first bus cycle
    length: int


class ReservationTable:
    """Committed modulo reservation state for one schedule attempt."""

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise ValueError("initiation interval must be >= 1")
        self.machine = machine
        self.ii = ii
        self._num_clusters = machine.num_clusters
        self._num_buses = machine.num_buses
        rows = self._num_clusters * _N_CLASSES
        # Capacities are immutable per machine; resolve them once, by row.
        self._cap = [
            machine.cluster(cluster).units_for_class(op_class)
            for cluster in range(self._num_clusters)
            for op_class in OpClass
        ]
        self._fu = [0] * (rows * ii)
        self._bus = bytearray(self._num_buses * ii)
        # Running utilization counters, maintained by reserve/release so the
        # per-candidate figure of merit never scans the used-slot state.
        self._class_used = [0] * rows
        self._bus_cycles_in_use = 0

    # -- functional units ------------------------------------------------
    def fu_capacity(self, cluster: int, op_class: OpClass) -> int:
        if not 0 <= cluster < self._num_clusters:
            # Out-of-range cluster: surface the machine's ConfigError.
            self.machine.cluster(cluster)
        return self._cap[cluster * _N_CLASSES + op_class.index]

    def fu_free(self, slot: FUSlot, overlay: "Optional[Overlay]" = None) -> bool:
        """True if one more op of the class can issue at the slot's cycle."""
        return self.fu_free_at(slot.cluster, slot.op_class, slot.cycle, overlay)

    def fu_free_at(
        self,
        cluster: int,
        op_class: OpClass,
        cycle: int,
        overlay: "Optional[Overlay]" = None,
    ) -> bool:
        """:meth:`fu_free` without requiring a FUSlot — the engine's slot
        scans call this once per candidate cycle."""
        if not 0 <= cluster < self._num_clusters:
            self.machine.cluster(cluster)
        ii = self.ii
        row = cluster * _N_CLASSES + op_class.index
        idx = row * ii + cycle % ii
        used = self._fu[idx]
        if overlay is not None:
            pending = overlay._fu.get(idx)
            if pending:
                used += pending
        return used < self._cap[row]

    def reserve_fu(self, slot: FUSlot) -> None:
        row = slot.cluster * _N_CLASSES + slot.op_class.index
        self._fu[row * self.ii + slot.cycle % self.ii] += 1
        self._class_used[row] += 1

    def release_fu(self, slot: FUSlot) -> None:
        row = slot.cluster * _N_CLASSES + slot.op_class.index
        self._fu[row * self.ii + slot.cycle % self.ii] -= 1
        self._class_used[row] -= 1

    # -- buses -------------------------------------------------------------
    def bus_cycles(self, slot: BusSlot) -> Optional[List[int]]:
        """Kernel cycles a transfer occupies, or None if it self-overlaps.

        A transfer longer than the II would collide with the next iteration's
        instance of itself, making the slot unusable.
        """
        cycles = [(slot.start + k) % self.ii for k in range(slot.length)]
        if len(set(cycles)) != slot.length:
            return None
        return cycles

    def bus_free(self, slot: BusSlot, overlay: "Optional[Overlay]" = None) -> bool:
        cycles = self.bus_cycles(slot)
        if cycles is None:
            return False
        base = slot.bus * self.ii
        bus = self._bus
        pending = overlay._bus if overlay is not None else None
        for cycle in cycles:
            idx = base + cycle
            if bus[idx]:
                return False
            if pending is not None and idx in pending:
                return False
        return True

    def find_bus_slot(
        self,
        earliest: int,
        latest_start: int,
        length: int,
        overlay: "Optional[Overlay]" = None,
    ) -> Optional[BusSlot]:
        """Earliest transfer start in ``[earliest, latest_start]`` on any bus.

        Scans at most ``II`` distinct start cycles (further starts alias the
        same kernel cycles).
        """
        if latest_start < earliest:
            return None
        ii = self.ii
        num_buses = self._num_buses
        if self._bus_cycles_in_use >= num_buses * ii:
            # Saturated ledger: every (bus, kernel-cycle) pair is taken, and
            # an overlay only adds occupancy, so no scan can succeed.  This
            # O(1) exit retires the full II x buses scan that otherwise runs
            # (and fails) for every cross-cluster route once the single bus
            # of the paper's machines fills up.
            return None
        limit = min(latest_start, earliest + ii - 1)
        bus = self._bus
        pending = overlay._bus if overlay is not None else None
        if length == 1:
            # Single-cycle transfers (latency-1 bus), the engine's hottest
            # bus query: probe the flat ledger directly.
            if num_buses == 1:
                # Single-bus machines (all Table 1 configurations): the
                # flat index *is* the kernel cycle.
                for start in range(earliest, limit + 1):
                    idx = start % ii
                    if bus[idx] or (pending is not None and idx in pending):
                        continue
                    return BusSlot(bus=0, start=start, length=1)
                return None
            for start in range(earliest, limit + 1):
                cycle = start % ii
                for b in range(num_buses):
                    idx = b * ii + cycle
                    if bus[idx] or (pending is not None and idx in pending):
                        continue
                    return BusSlot(bus=b, start=start, length=1)
            return None
        for start in range(earliest, limit + 1):
            for b in range(num_buses):
                slot = BusSlot(bus=b, start=start, length=length)
                if self.bus_free(slot, overlay):
                    return slot
        return None

    def reserve_bus(self, slot: BusSlot) -> None:
        cycles = self.bus_cycles(slot)
        if cycles is None:
            raise ValueError("cannot reserve a self-overlapping bus transfer")
        base = slot.bus * self.ii
        bus = self._bus
        for cycle in cycles:
            idx = base + cycle
            if not bus[idx]:
                self._bus_cycles_in_use += 1
            bus[idx] = 1

    def release_bus(self, slot: BusSlot) -> None:
        base = slot.bus * self.ii
        bus = self._bus
        for cycle in self.bus_cycles(slot) or []:
            idx = base + cycle
            if bus[idx]:
                bus[idx] = 0
                self._bus_cycles_in_use -= 1

    # -- structural handover (for the StructuralAnalysis session) ---------
    def fu_occupancy_rows(self) -> Dict[Tuple[int, OpClass], List[int]]:
        """Copies of the nonzero per-(cluster, class) occupancy rows.

        Normalized exactly like the reference sweep
        (:func:`~repro.schedule.structural_core.fu_usage_rows`): untouched
        rows are omitted, so the engine's handed-over session compares
        equal to a from-scratch rebuild of the same schedule.
        """
        rows: Dict[Tuple[int, OpClass], List[int]] = {}
        ii = self.ii
        for cluster in range(self._num_clusters):
            for op_class in OpClass:
                base = (cluster * _N_CLASSES + op_class.index) * ii
                row = self._fu[base : base + ii]
                if any(row):
                    rows[(cluster, op_class)] = row
        return rows

    def bus_occupancy_rows(self) -> Dict[int, List[int]]:
        """Per-bus occupancy counts over the kernel cycles (copies)."""
        rows: Dict[int, List[int]] = {}
        ii = self.ii
        for bus in range(self._num_buses):
            row = list(self._bus[bus * ii : (bus + 1) * ii])
            if any(row):
                rows[bus] = row
        return rows

    # -- utilization (for the figure of merit) ----------------------------
    def fu_slots_used(self, cluster: int, op_class: OpClass) -> int:
        if not 0 <= cluster < self._num_clusters:
            return 0
        return self._class_used[cluster * _N_CLASSES + op_class.index]

    def fu_slots_total(self, cluster: int, op_class: OpClass) -> int:
        return self.fu_capacity(cluster, op_class) * self.ii

    def bus_cycles_used(self) -> int:
        return self._bus_cycles_in_use

    def bus_cycles_total(self) -> int:
        return self._num_buses * self.ii


class Overlay:
    """Tentative reservations stacked on a :class:`ReservationTable`.

    Candidate evaluation adds its would-be reservations here so that later
    checks within the same candidate see them, without mutating the table.
    Both maps are keyed by the table's flat indexes.
    """

    def __init__(self, table: ReservationTable) -> None:
        self.table = table
        self._fu: Dict[int, int] = {}
        self._bus: Dict[int, bool] = {}
        self.fu_slots: List[FUSlot] = []
        self.bus_slots: List[BusSlot] = []

    def add_fu(self, slot: FUSlot) -> None:
        ii = self.table.ii
        key = (slot.cluster * _N_CLASSES + slot.op_class.index) * ii + slot.cycle % ii
        self._fu[key] = self._fu.get(key, 0) + 1
        self.fu_slots.append(slot)

    def add_bus(self, slot: BusSlot) -> None:
        table = self.table
        cycles = table.bus_cycles(slot)
        if cycles is None:
            # A self-overlapping transfer can never be reserved; staging it
            # anyway would make a later commit() blow up mid-way, after some
            # reservations already landed in the table.
            raise ValueError("cannot stage a self-overlapping bus transfer")
        base = slot.bus * table.ii
        for cycle in cycles:
            self._bus[base + cycle] = True
        self.bus_slots.append(slot)

    def commit(self) -> None:
        """Write every pending reservation into the underlying table."""
        for slot in self.fu_slots:
            self.table.reserve_fu(slot)
        for slot in self.bus_slots:
            self.table.reserve_bus(slot)
