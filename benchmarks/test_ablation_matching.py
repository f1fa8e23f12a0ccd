"""Ablation: greedy heavy-edge vs. exact (blossom) coarsening matching.

The paper used LEDA's exact maximum-weight matching; multilevel
partitioners conventionally use the greedy heavy-edge heuristic.  This
ablation quantifies how little the choice matters for schedule quality —
justifying the library's greedy default.
"""

import pytest
from conftest import save_artifact

from repro.eval.figures import ablation_matching


@pytest.mark.timing_artifact
def test_ablation_matching(benchmark, suite, results_dir, pytestconfig):
    report = benchmark.pedantic(
        ablation_matching, kwargs={"suite": suite}, rounds=1, iterations=1
    )
    save_artifact(
        results_dir, "ablation_matching.txt", report, timed_by=pytestconfig
    )
    assert "greedy" in report and "exact" in report

    # Both matchings must land within a few percent of each other.
    values = {}
    for line in report.splitlines():
        parts = line.split()
        if parts and parts[0] in ("greedy", "exact"):
            values[parts[0]] = float(parts[1])
    assert abs(values["greedy"] - values["exact"]) / values["exact"] < 0.08
