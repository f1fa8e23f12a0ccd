"""Table 2: average CPU time to compute the schedules.

The paper's claim: URACAM — which evaluates every cluster for every
operation — is the most expensive scheduler (2-7x slower than GP/Fixed on
the authors' machine); the partition-guided schemes mostly evaluate one
cluster per operation.  We assert the *direction* (URACAM slowest); the
exact ratio depends on how much of the runtime the partitioner itself
costs in this pure-Python implementation.

Under ``-m bench`` each cell is the median of ``TIMING_ROUNDS`` whole-table
calls, so the committed ratios do not hinge on one noisy call.
"""

import statistics

import pytest
from conftest import save_artifact, timing_rounds

from repro.eval.figures import Table2Result, table2
from repro.machine.presets import four_cluster, two_cluster


def _median_table(runs):
    """Per-cell median of several Table 2 runs (ratios from the medians)."""
    first = runs[0]
    return Table2Result(
        configs=first.configs,
        seconds={
            config: {
                name: statistics.median(run.seconds[config][name] for run in runs)
                for name in first.seconds[config]
            }
            for config in first.configs
        },
    )


@pytest.mark.timing_artifact
def test_table2_cpu_time(benchmark, suite, results_dir, pytestconfig):
    machines = [
        two_cluster(32),
        two_cluster(64),
        four_cluster(32),
        four_cluster(64),
    ]
    rounds = timing_rounds(pytestconfig)
    runs = benchmark.pedantic(
        lambda: [table2(suite, machines) for _ in range(rounds)],
        rounds=1, iterations=1,
    )
    result = _median_table(runs)
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
