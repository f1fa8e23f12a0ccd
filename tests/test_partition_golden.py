"""Golden digests of the multilevel partitioner's output.

Speed work on the refiner must not change a single partition.  Each digest
is a sha256 over ``(loop, machine, ii, sorted assignment, estimate)`` for
every paper-tier loop (default suite seed) partitioned at its MII, so any
changed cluster choice, tie-break or estimate field shows up here directly
instead of only through schedule IIs and IPC.

To re-record after an intended partition change, print
``_digest(machine, pressure_aware)`` for each case below and say why the
partitions moved in the commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine.presets import four_cluster, two_cluster
from repro.partition.partitioner import MultilevelPartitioner
from repro.schedule.mii import mii
from repro.workloads.spec import spec_suite

GOLDEN = {
    ("2x32", False): (
        "37867ab2f9371070d60970863fe20259"
        "09b1ceab2d75e39ef05d9bbe571546b1"
    ),
    ("2x64", False): (
        "3af0fdfcbc347a2d6b50f9944ae68e06"
        "3387f33afe46b8a590236abd93a449eb"
    ),
    ("4x32", False): (
        "dd4bb7f875a8f3ab4bc49065e6a2d6da"
        "d938fa257b09718727c03c0adef6c68e"
    ),
    ("4x64", False): (
        "e4bc5b993aea2497e07a5d572fdee03a"
        "bf843251a7e6f502a795663bad1d242e"
    ),
    ("4x32", True): (
        "527d94bb640f578aeb3dfb9913ce81cc"
        "8a778aec3f55820a1731bd12b7e8f25d"
    ),
}

_MACHINES = {
    "2x32": lambda: two_cluster(32),
    "2x64": lambda: two_cluster(64),
    "4x32": lambda: four_cluster(32),
    "4x64": lambda: four_cluster(64),
}


def _digest(machine_name: str, pressure_aware: bool) -> str:
    machine = _MACHINES[machine_name]()
    partitioner = MultilevelPartitioner(machine, pressure_aware=pressure_aware)
    digest = hashlib.sha256()
    for benchmark in spec_suite():
        for loop in benchmark.loops:
            ii = mii(loop, machine)
            partition = partitioner.partition(loop, ii)
            record = (
                loop.name,
                machine_name,
                ii,
                sorted(partition.assignment.items()),
                partition.estimate,
            )
            digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "machine_name, pressure_aware",
    sorted(GOLDEN),
    ids=lambda v: v if isinstance(v, str) else ("pressure" if v else "gp"),
)
def test_partition_digest_unchanged(machine_name, pressure_aware):
    assert _digest(machine_name, pressure_aware) == GOLDEN[
        (machine_name, pressure_aware)
    ]
