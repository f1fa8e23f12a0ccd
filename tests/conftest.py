"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.presets import four_cluster, two_cluster, unified
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy, dot_product, recurrence_chain, stencil5


@pytest.fixture
def unified_machine():
    return unified(64)


@pytest.fixture
def two_cluster_machine():
    return two_cluster(64)


@pytest.fixture
def two_cluster_small():
    return two_cluster(32)


@pytest.fixture
def four_cluster_machine():
    return four_cluster(64)


@pytest.fixture
def daxpy_loop():
    return daxpy()


@pytest.fixture
def dot_loop():
    return dot_product()


@pytest.fixture
def stencil_loop():
    return stencil5()


@pytest.fixture
def recurrence_loop():
    return recurrence_chain()


@pytest.fixture
def chain_loop():
    """A pure serial chain: ld -> fmul -> fadd -> fmul -> st."""
    b = LoopBuilder("chain", trip_count=100)
    x = b.load("x")
    a = b.op("fmul", x)
    c = b.op("fadd", a)
    d = b.op("fmul", c)
    b.store(d, "out")
    return b.build()


@pytest.fixture
def wide_loop():
    """A medium synthetic loop that stresses several clusters."""
    return generate_loop(
        "wide", LoopShape(32, mem_ratio=0.3, depth_bias=0.3, trip_count=120), seed=7
    )


@pytest.fixture
def recurrence_heavy_loop():
    return generate_loop(
        "rec_heavy",
        LoopShape(24, mem_ratio=0.3, depth_bias=0.5, recurrences=2, trip_count=90),
        seed=11,
    )


@pytest.fixture
def pin_chunk_size(monkeypatch):
    """Pin the batch runner's loops-per-chunk (``None`` keeps the
    ``resolve_chunksize`` heuristic).

    Chunk boundaries follow the suite size and ``jobs``; pinning them
    lets a test show that the keyed merge, and recovery from worker
    deaths, never depend on where the boundaries fall.
    """

    def pin(size):
        if size is not None:
            monkeypatch.setattr(
                "repro.eval.parallel.resolve_chunksize",
                lambda _total, _jobs: size,
            )

    return pin
