"""Unit tests for the modulo reservation tables."""

import random

import pytest

from repro.errors import ConfigError
from repro.ir.opcodes import OpClass
from repro.machine.presets import four_cluster, two_cluster
from repro.schedule.mrt import BusSlot, FUSlot, Overlay, ReservationTable


@pytest.fixture
def table():
    return ReservationTable(two_cluster(64), ii=4)


class TestFunctionalUnits:
    def test_capacity_matches_machine(self, table):
        assert table.fu_capacity(0, OpClass.FP) == 2

    def test_reserve_until_full(self, table):
        slot = FUSlot(0, OpClass.FP, 3)
        assert table.fu_free(slot)
        table.reserve_fu(slot)
        assert table.fu_free(slot)  # one unit left
        table.reserve_fu(slot)
        assert not table.fu_free(slot)

    def test_modulo_wraparound(self, table):
        table.reserve_fu(FUSlot(0, OpClass.FP, 1))
        table.reserve_fu(FUSlot(0, OpClass.FP, 5))  # same kernel cycle (1)
        assert not table.fu_free(FUSlot(0, OpClass.FP, 9))

    def test_release_restores_capacity(self, table):
        slot = FUSlot(0, OpClass.MEM, 0)
        table.reserve_fu(slot)
        table.reserve_fu(slot)
        assert not table.fu_free(slot)
        table.release_fu(slot)
        assert table.fu_free(slot)

    def test_clusters_independent(self, table):
        table.reserve_fu(FUSlot(0, OpClass.INT, 2))
        table.reserve_fu(FUSlot(0, OpClass.INT, 2))
        assert table.fu_free(FUSlot(1, OpClass.INT, 2))

    def test_usage_counters(self, table):
        table.reserve_fu(FUSlot(0, OpClass.MEM, 0))
        table.reserve_fu(FUSlot(0, OpClass.MEM, 1))
        assert table.fu_slots_used(0, OpClass.MEM) == 2
        assert table.fu_slots_total(0, OpClass.MEM) == 2 * 4


class TestBuses:
    def test_transfer_occupies_latency_cycles(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=4)
        slot = BusSlot(bus=0, start=1, length=2)
        assert table.bus_free(slot)
        table.reserve_bus(slot)
        # Cycles 1 and 2 are busy on bus 0.
        assert not table.bus_free(BusSlot(0, 1, 1))
        assert not table.bus_free(BusSlot(0, 2, 1))
        assert table.bus_free(BusSlot(0, 3, 1))

    def test_self_overlapping_transfer_rejected(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=1)
        slot = BusSlot(0, 0, 2)
        assert table.bus_cycles(slot) is None
        assert not table.bus_free(slot)

    def test_find_bus_slot_earliest(self, table):
        found = table.find_bus_slot(earliest=5, latest_start=8, length=1)
        assert found is not None and found.start == 5

    def test_find_bus_slot_skips_busy(self, table):
        table.reserve_bus(BusSlot(0, 5, 1))
        found = table.find_bus_slot(earliest=5, latest_start=8, length=1)
        assert found is not None and found.start == 6

    def test_find_bus_slot_window_empty(self, table):
        assert table.find_bus_slot(earliest=5, latest_start=4, length=1) is None

    def test_find_bus_slot_full_bus(self, table):
        for start in range(4):
            table.reserve_bus(BusSlot(0, start, 1))
        assert table.find_bus_slot(0, 100, 1) is None

    def test_two_buses(self):
        machine = two_cluster(64, num_buses=2)
        table = ReservationTable(machine, ii=2)
        table.reserve_bus(BusSlot(0, 0, 1))
        found = table.find_bus_slot(0, 0, 1)
        assert found is not None and found.bus == 1

    def test_release_bus(self, table):
        slot = BusSlot(0, 2, 1)
        table.reserve_bus(slot)
        table.release_bus(slot)
        assert table.bus_free(slot)

    def test_bus_usage_counters(self, table):
        table.reserve_bus(BusSlot(0, 0, 1))
        assert table.bus_cycles_used() == 1
        assert table.bus_cycles_total() == 4


class TestOverlay:
    def test_overlay_visible_to_checks(self, table):
        overlay = Overlay(table)
        slot = FUSlot(0, OpClass.FP, 0)
        overlay.add_fu(slot)
        overlay.add_fu(slot)
        assert not table.fu_free(slot, overlay)
        # The underlying table is untouched.
        assert table.fu_free(slot)

    def test_overlay_bus_blocks(self, table):
        overlay = Overlay(table)
        overlay.add_bus(BusSlot(0, 1, 1))
        assert not table.bus_free(BusSlot(0, 1, 1), overlay)
        assert table.bus_free(BusSlot(0, 1, 1))

    def test_commit_applies_everything(self, table):
        overlay = Overlay(table)
        fu = FUSlot(1, OpClass.MEM, 3)
        bus = BusSlot(0, 2, 1)
        overlay.add_fu(fu)
        overlay.add_bus(bus)
        overlay.commit()
        assert table.fu_slots_used(1, OpClass.MEM) == 1
        assert not table.bus_free(bus)

    def test_discarded_overlay_has_no_effect(self, table):
        overlay = Overlay(table)
        overlay.add_fu(FUSlot(0, OpClass.INT, 0))
        del overlay
        assert table.fu_slots_used(0, OpClass.INT) == 0

    def test_add_bus_rejects_self_overlapping_slot(self):
        # Regression: a self-overlapping transfer used to be silently
        # swallowed (nothing staged) yet still appended to bus_slots, so a
        # later commit() raised ValueError *mid-commit* after some
        # reservations had already landed in the table.
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=1)
        overlay = Overlay(table)
        bad = BusSlot(bus=0, start=0, length=2)  # 2 cycles at II=1: overlaps
        with pytest.raises(ValueError):
            overlay.add_bus(bad)
        assert bad not in overlay.bus_slots
        overlay.commit()  # nothing staged: must not raise

    def test_invalid_ii_rejected(self):
        with pytest.raises(ValueError):
            ReservationTable(two_cluster(64), ii=0)


class TestRunningCounters:
    """The figure-of-merit counters are maintained, not recomputed."""

    def test_fu_counters_track_reserve_release(self, table):
        slots = [FUSlot(0, OpClass.MEM, c) for c in (0, 1, 1, 3)]
        for slot in slots:
            table.reserve_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 4
        for slot in slots[:2]:
            table.release_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 2
        for slot in slots[2:]:
            table.release_fu(slot)
        assert table.fu_slots_used(0, OpClass.MEM) == 0

    def test_bus_counter_tracks_reserve_release(self):
        machine = two_cluster(64, bus_latency=2)
        table = ReservationTable(machine, ii=6)
        slot = BusSlot(0, 1, 2)
        table.reserve_bus(slot)
        assert table.bus_cycles_used() == 2
        table.release_bus(slot)
        assert table.bus_cycles_used() == 0

    def test_fu_free_at_matches_fu_free(self, table):
        slot = FUSlot(1, OpClass.FP, 2)
        table.reserve_fu(slot)
        table.reserve_fu(slot)
        assert table.fu_free_at(1, OpClass.FP, 2) == table.fu_free(slot)
        assert not table.fu_free_at(1, OpClass.FP, 6)  # same kernel cycle
        assert table.fu_free_at(1, OpClass.FP, 3)


class TestFlatLayout:
    """The flat occupancy lists behave like a plain per-slot counter."""

    def test_fu_probe_surfaces_config_error_out_of_range(self):
        table = ReservationTable(two_cluster(32), 4)
        with pytest.raises(ConfigError):
            table.fu_free_at(99, OpClass.INT, 0)
        with pytest.raises(ConfigError):
            table.fu_capacity(-1, OpClass.INT)
        assert table.fu_slots_used(99, OpClass.INT) == 0

    def test_bus_saturation_short_circuits(self):
        table = ReservationTable(two_cluster(32), 3)
        for cycle in range(3):
            table.reserve_bus(BusSlot(bus=0, start=cycle, length=1))
        assert table.bus_cycles_used() == table.bus_cycles_total()
        assert table.find_bus_slot(0, 10, 1) is None
        assert table.find_bus_slot(0, 10, 2) is None

    def test_occupancy_rows_omit_all_zero_rows(self):
        table = ReservationTable(two_cluster(32), 4)
        assert table.fu_occupancy_rows() == {}
        assert table.bus_occupancy_rows() == {}
        table.reserve_fu(FUSlot(cluster=1, op_class=OpClass.INT, cycle=2))
        rows = table.fu_occupancy_rows()
        assert set(rows) == {(1, OpClass.INT)}
        assert rows[(1, OpClass.INT)] == [0, 0, 1, 0]

    def test_table_matches_counter_model_under_random_traffic(self):
        """Random reserve/release traffic against a per-(cluster, class,
        kernel cycle) counter model and a per-(bus, kernel cycle) set."""
        machine = four_cluster(32)
        rng = random.Random(11)
        for ii in (1, 3, 5):
            table = ReservationTable(machine, ii)
            fu_used = {}
            bus_busy = set()
            reserved_fu, reserved_bus = [], []
            for _ in range(60):
                action = rng.random()
                if action < 0.5:
                    slot = FUSlot(
                        cluster=rng.randrange(machine.num_clusters),
                        op_class=rng.choice(list(OpClass)),
                        cycle=rng.randint(0, 3 * ii),
                    )
                    key = (slot.cluster, slot.op_class, slot.cycle % ii)
                    capacity = machine.cluster(slot.cluster).units_for_class(
                        slot.op_class
                    )
                    assert table.fu_free(slot) == (fu_used.get(key, 0) < capacity)
                    if table.fu_free(slot):
                        table.reserve_fu(slot)
                        fu_used[key] = fu_used.get(key, 0) + 1
                        reserved_fu.append(slot)
                elif action < 0.7 and reserved_fu:
                    slot = reserved_fu.pop(rng.randrange(len(reserved_fu)))
                    table.release_fu(slot)
                    fu_used[(slot.cluster, slot.op_class, slot.cycle % ii)] -= 1
                elif action < 0.9:
                    length = rng.randint(1, min(2, ii))
                    slot = table.find_bus_slot(0, 3 * ii, length)
                    assert _slot_tuple(slot) == _slot_tuple(
                        _model_bus_slot(bus_busy, machine.num_buses, ii, length)
                    )
                    if slot is not None:
                        table.reserve_bus(slot)
                        bus_busy.update(_bus_cells(slot, ii))
                        reserved_bus.append(slot)
                elif reserved_bus:
                    slot = reserved_bus.pop(rng.randrange(len(reserved_bus)))
                    table.release_bus(slot)
                    bus_busy.difference_update(_bus_cells(slot, ii))
                for cluster in range(machine.num_clusters):
                    for op_class in OpClass:
                        assert table.fu_slots_used(cluster, op_class) == sum(
                            fu_used.get((cluster, op_class, m), 0)
                            for m in range(ii)
                        )
                        capacity = machine.cluster(cluster).units_for_class(
                            op_class
                        )
                        for m in range(ii):
                            assert table.fu_free_at(cluster, op_class, m) == (
                                fu_used.get((cluster, op_class, m), 0) < capacity
                            )
                assert table.bus_cycles_used() == len(bus_busy)
            assert table.fu_occupancy_rows() == {
                (cluster, op_class): row
                for cluster in range(machine.num_clusters)
                for op_class in OpClass
                for row in [
                    [fu_used.get((cluster, op_class, m), 0) for m in range(ii)]
                ]
                if any(row)
            }
            assert table.bus_occupancy_rows() == {
                bus: row
                for bus in range(machine.num_buses)
                for row in [[int((bus, m) in bus_busy) for m in range(ii)]]
                if any(row)
            }


def _bus_cells(slot, ii):
    return {(slot.bus, (slot.start + k) % ii) for k in range(slot.length)}


def _model_bus_slot(busy, num_buses, ii, length):
    """Earliest start in [0, ii) on the lowest free bus, by brute force."""
    for start in range(ii):
        for bus in range(num_buses):
            slot = BusSlot(bus=bus, start=start, length=length)
            cells = _bus_cells(slot, ii)
            if len(cells) == length and not cells & busy:
                return slot
    return None


def _slot_tuple(slot):
    return None if slot is None else (slot.bus, slot.start, slot.length)
