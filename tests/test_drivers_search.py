"""Tests of the II-search driver behaviour (stepping, recompute guard)."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.schedule.drivers import BaseScheduler, GPScheduler, UracamScheduler
from repro.schedule.engine import EngineOptions
from repro.schedule.mii import mii
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy


class _CountingScheduler(UracamScheduler):
    """Records the IIs actually attempted."""

    def __init__(self, *args, fail_below=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.tried = []
        self._fail_below = fail_below

    def _policy(self, loop, ii):
        self.tried.append(ii)
        return super()._policy(loop, ii)


class TestIISearch:
    def test_schedules_at_mii_when_possible(self):
        loop = daxpy()
        machine = unified(64)
        scheduler = _CountingScheduler(machine)
        outcome = scheduler.schedule(loop)
        assert outcome.is_modulo
        assert scheduler.tried[0] == mii(loop, machine)

    def test_geometric_escalation_on_stubborn_loops(self):
        """After three consecutive failures the step doubles."""
        # A loop that cannot be modulo scheduled on this machine at all:
        # 9 parallel loads on a machine with very few registers and no
        # spill allowed.
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig("no-room", clusters=(ClusterConfig(1, 1, 1, 2),))
        b = LoopBuilder("stubborn", 10)
        head = b.load("h")
        chain = [b.op("fadd", head, name="a0")]
        for i in range(1, 6):
            chain.append(b.op("fadd", chain[-1], name=f"a{i}"))
        acc = b.op("fadd", chain[-1], chain[0])
        for i in range(1, 6):
            acc = b.op("fadd", acc, chain[i])
        b.store(acc)
        loop = b.build()
        scheduler = _CountingScheduler(
            machine, max_ii_span=30,
            options=EngineOptions(allow_spill=False, allow_memory_comm=False),
        )
        outcome = scheduler.schedule(loop)
        tried = scheduler.tried
        if not outcome.is_modulo and len(tried) >= 5:
            steps = [b - a for a, b in zip(tried, tried[1:])]
            assert steps[:2] == [1, 1]
            assert steps[2] == 2

    def test_fallback_reports_list_schedule(self):
        from repro.machine.config import ClusterConfig, MachineConfig

        machine = MachineConfig("no-room", clusters=(ClusterConfig(1, 1, 1, 2),))
        b = LoopBuilder("stubborn2", 10)
        head = b.load("h")
        chain = [b.op("fadd", head)]
        for _ in range(5):
            chain.append(b.op("fadd", chain[-1]))
        acc = b.op("fadd", chain[-1], chain[0])
        for i in range(1, 6):
            acc = b.op("fadd", acc, chain[i])
        b.store(acc)
        loop = b.build()
        scheduler = UracamScheduler(
            machine, max_ii_span=5,
            options=EngineOptions(allow_spill=False, allow_memory_comm=False),
        )
        outcome = scheduler.schedule(loop)
        assert not outcome.is_modulo
        assert outcome.ipc() > 0


class TestGPRecomputeGuard:
    def test_futile_recomputes_bounded(self):
        machine = four_cluster(32, bus_latency=2)
        scheduler = GPScheduler(machine)
        loop = generate_loop(
            "lat2", LoopShape(45, mem_ratio=0.25, depth_bias=0.5, trip_count=100),
            seed=55,
        )
        outcome = scheduler.schedule(loop)
        if outcome.is_modulo:
            stats = outcome.schedule.stats
            # 1 initial partition + adopted recomputes + at most
            # max_futile_recomputes rejected ones per adoption streak; the
            # cap keeps the total far below the II attempts.
            assert stats.partitions_computed <= stats.ii_attempts + 1

    def test_gp_partition_is_not_none_after_prepare(self):
        machine = two_cluster(64)
        scheduler = GPScheduler(machine)
        scheduler.schedule(daxpy())
        assert scheduler.partition is not None


class TestOutcomeAccounting:
    def test_cpu_seconds_accumulate(self):
        machine = two_cluster(64)
        scheduler = GPScheduler(machine)
        outcome = scheduler.schedule(daxpy())
        assert outcome.cpu_seconds > 0
        assert outcome.execution_cycles() > 0

    def test_ii_attempts_recorded(self):
        machine = unified(64)
        outcome = UracamScheduler(machine).schedule(daxpy())
        assert outcome.schedule.stats.ii_attempts >= 1


#: Spill-heavy shape on a small register file: multi-attempt II searches.
SPILL_SHAPE = LoopShape(
    40, mem_ratio=0.3, depth_bias=0.35, recurrences=1, trip_count=150
)


def test_ii_trace_records_strictly_escalating_search():
    """The driver's II search only ever raises the II: the trace holds
    one entry per attempt, strictly increasing."""
    for seed in range(3):
        outcome = GPScheduler(four_cluster(16)).schedule(
            generate_loop("stock-search", SPILL_SHAPE, seed)
        )
        if not outcome.is_modulo:
            continue
        stats = outcome.schedule.stats
        assert len(stats.ii_trace) == stats.ii_attempts
        assert list(stats.ii_trace) == sorted(set(stats.ii_trace))


def test_ii_search_stats_aggregation():
    from repro.eval.metrics import ii_search_stats

    outcomes = [
        GPScheduler(four_cluster(16)).schedule(
            generate_loop("iis", SPILL_SHAPE, seed)
        )
        for seed in range(3)
    ]
    stats = ii_search_stats(outcomes)
    modulo = [o for o in outcomes if o.is_modulo]
    assert stats["attempts"] == sum(
        o.schedule.stats.ii_attempts for o in modulo
    )
    assert sum(stats["per_ii_attempts"].values()) == stats["attempts"]
    assert set(stats) == {"attempts", "per_ii_attempts"}
