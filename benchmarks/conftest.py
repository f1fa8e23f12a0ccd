"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the full
synthetic SPECfp95-like suite, saves the rendered artifact under
``results/`` and asserts the qualitative shape the paper reports.
Artifacts with timing columns (Table 2, the matching ablation) are
saved only under ``-m bench``, so an ordinary test run leaves the
tracked ``results/`` files untouched.  The
experiments are deterministic, so a single round is measured
(``benchmark.pedantic(..., rounds=1)``); the microbenchmarks in
``test_micro_components.py`` use normal multi-round timing.
"""

from __future__ import annotations

import os
import pathlib
import re
import time

import pytest

from repro.workloads.spec import extended_suite, spec_suite

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# The ``bench`` marker itself is registered in pyproject.toml
# ([tool.pytest.ini_options]), so plain ``pytest`` runs emit no
# unknown-marker warnings and CI can filter with ``-m "not bench"``.


def bench_selected(config) -> bool:
    """True when the ``-m`` expression opts into the perf tier.

    ``-m bench`` (or ``-m "bench or ..."``) selects it; ``-m "not bench"``,
    CI's tier-1 filter, does not.
    """
    expression = re.sub(r"\bnot\s+bench\b", "", config.getoption("-m") or "")
    return re.search(r"\bbench\b", expression) is not None


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config, items):
    """Make ``bench``-marked tests opt-in: they only run under ``-m bench``.

    They time the schedulers for the committed perf baseline, which is
    meaningless (and slow) as part of an ordinary test run.  Under
    ``-m bench`` the ``timing_artifact`` tests are selected as well, so
    the same run refreshes the committed timing tables.  (``tryfirst``:
    the marker must land before ``-m`` deselects.)
    """
    if bench_selected(config):
        for item in items:
            if "timing_artifact" in item.keywords:
                item.add_marker(pytest.mark.bench)
        return
    skip = pytest.mark.skip(reason="perf baseline: run with -m bench")
    for item in items:
        if "bench" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def suite():
    """The full ten-program suite (shared across all benchmarks)."""
    return spec_suite()


@pytest.fixture(scope="session")
def big_suite():
    """The extended production-scale tier (220 loops, bodies to ~280 ops)."""
    return extended_suite()


#: Worker count for the parallel-runner timing (capped: the point is the
#: trend against jobs=1, not saturating a large host).
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def extended_parallel_timings(big_suite):
    """Whole-extended-suite wall clock, sequential vs. pooled.

    Timed once per session and shared by the BENCH_schedule.json payload
    and the text artifact, so one ``-m bench`` run schedules the 220
    loops twice (not four times) and both records agree by construction.
    The sequential run's outcomes ride along so the validator timing
    (schema v3's ``validate_wall_clock``) reuses them instead of
    scheduling the tier a third time.

    On a single-CPU host the pooled leg is skipped entirely
    (``parallel_skipped``): with no spare core a jobs-N run times pool
    overhead plus contention, which would poison the committed baseline
    with a fake "slowdown".  The artifact keeps the flag so a diff
    explains the missing leg.
    """
    from repro.machine.presets import four_cluster
    from repro.service import EvaluationRequest, ReproService

    cpu_count = os.cpu_count() or 1
    parallel_skipped = cpu_count == 1
    job_counts = (1,) if parallel_skipped else (1, PARALLEL_JOBS)
    machine = four_cluster(64)
    request = EvaluationRequest(
        scheduler="gp", machine=machine, suite=tuple(big_suite)
    )
    # Warm the suite's content-digest cache outside the timed region: the
    # first fingerprint serializes every loop body once (~100ms on this
    # tier) and must not be charged to the jobs=1 leg only.
    request.fingerprint()
    wall_seconds = {}
    average_ipcs = {}
    sequential_result = None
    # One service session per worker count: the session memoizes by
    # request fingerprint, and this fixture exists to *measure* the
    # second run, not to replay it from the cache.
    for jobs in job_counts:
        with ReproService(jobs=jobs) as service:
            started = time.perf_counter()
            result = service.evaluate(request).result
            wall_seconds[jobs] = time.perf_counter() - started
        average_ipcs[jobs] = result.average_ipc
        if jobs == 1:
            sequential_result = result
    if not parallel_skipped:
        assert average_ipcs[1] == average_ipcs[PARALLEL_JOBS]
    return {
        "machine": machine.name,
        "scheduler": "gp",
        "jobs": PARALLEL_JOBS,
        "parallel_skipped": parallel_skipped,
        "wall_seconds": wall_seconds,
        "average_ipc": average_ipcs[1],
        "sequential_result": sequential_result,
    }


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(
    results_dir: pathlib.Path, name: str, text: str, timed_by=None
) -> None:
    """Persist a rendered table/figure under ``results/``.

    A timing artifact passes the requesting test's pytest config as
    ``timed_by``; it is written only when ``-m bench`` is selected, so
    fresh timing numbers never rewrite the tracked file otherwise.
    """
    if timed_by is not None and not bench_selected(timed_by):
        return
    path = results_dir / name
    path.write_text(text + "\n")
