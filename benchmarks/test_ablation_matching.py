"""Ablation: greedy heavy-edge vs. exact (blossom) coarsening matching.

The paper used LEDA's exact maximum-weight matching; multilevel
partitioners conventionally use the greedy heavy-edge heuristic.  This
ablation quantifies how little the choice matters for schedule quality —
justifying the library's greedy default.  Under ``-m bench`` the CPU
column is the per-row median of ``TIMING_ROUNDS`` calls.
"""

import statistics

import pytest
from conftest import save_artifact, timing_rounds

from repro.eval.figures import ablation_matching

_ROWS = ("greedy", "exact")


def _median_report(reports):
    """The first report with each row's CPU seconds (its last cell)
    replaced by the median cell over all reports.

    The count is odd, so the median is one of the measured cells and is
    copied verbatim; the IPC cells are deterministic and already agree.
    """
    cells = {}
    for report in reports:
        for line in report.splitlines():
            parts = line.split()
            if parts and parts[0] in _ROWS:
                cells.setdefault(parts[0], []).append(parts[-1])
    lines = []
    for line in reports[0].splitlines():
        parts = line.split()
        if parts and parts[0] in _ROWS:
            median = statistics.median_low(
                (float(cell), cell) for cell in cells[parts[0]]
            )[1]
            line = line[: line.rindex(parts[-1])] + median
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.timing_artifact
def test_ablation_matching(benchmark, suite, results_dir, pytestconfig):
    rounds = timing_rounds(pytestconfig)
    reports = benchmark.pedantic(
        lambda: [ablation_matching(suite=suite) for _ in range(rounds)],
        rounds=1, iterations=1,
    )
    report = _median_report(reports)
    save_artifact(
        results_dir, "ablation_matching.txt", report, timed_by=pytestconfig
    )
    assert "greedy" in report and "exact" in report

    # Both matchings must land within a few percent of each other.
    values = {}
    for line in report.splitlines():
        parts = line.split()
        if parts and parts[0] in _ROWS:
            values[parts[0]] = float(parts[1])
    assert abs(values["greedy"] - values["exact"]) / values["exact"] < 0.08
