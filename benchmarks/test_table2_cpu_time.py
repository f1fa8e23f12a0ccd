"""Table 2: average CPU time to compute the schedules.

The paper's claim: URACAM — which evaluates every cluster for every
operation — is the most expensive scheduler (2-7x slower than GP/Fixed on
the authors' machine); the partition-guided schemes mostly evaluate one
cluster per operation.  We assert the *direction* (URACAM slowest); the
exact ratio depends on how much of the runtime the partitioner itself
costs in this pure-Python implementation.
"""

import pytest
from conftest import save_artifact

from repro.eval.figures import table2
from repro.machine.presets import four_cluster, two_cluster


@pytest.mark.timing_artifact
def test_table2_cpu_time(benchmark, suite, results_dir, pytestconfig):
    machines = [
        two_cluster(32),
        two_cluster(64),
        four_cluster(32),
        four_cluster(64),
    ]
    result = benchmark.pedantic(
        table2, args=(suite, machines), rounds=1, iterations=1
    )
    save_artifact(
        results_dir, "table2_cpu_time.txt", result.render(),
        timed_by=pytestconfig,
    )

    # URACAM must be the most time-consuming approach on the stressed
    # 4-cluster machines, where it evaluates 4x the placements.  (CPU-time
    # measurement is still noisy; allow a 10% band.)
    for config in result.configs:
        if config.startswith("4-cluster"):
            per = result.seconds[config]
            assert per["uracam"] > per["gp"] * 0.9
