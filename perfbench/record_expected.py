"""Rewrite ``expected/*.json``: each request's loop signatures at the default seed.

The benchmark compares every result at the default seed with these
files.  They cover every pass of a run of the ``run_seconds`` of
``BENCHMARK.json``.  Regenerate them only for a change that is meant to
alter schedules, and say so in that change.  Run from the repository
root::

    PYTHONPATH=src python3 perfbench/record_expected.py
"""

import json
import os

import harness

if __name__ == "__main__":
    with open(os.path.join(os.path.dirname(harness.EXPECTED_DIR), os.pardir, "BENCHMARK.json")) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    os.makedirs(harness.EXPECTED_DIR, exist_ok=True)
    for name in ("paper-partitioned", "paper-uracam", "paper-pool"):
        workload = harness.Workload(name, harness.DEFAULT_SEED, 0, expected=False)
        try:
            for index in range(workload.passes(run_seconds)):
                with workload.open_session() as service:
                    for key, request, _ in workload.requests(index):
                        workload.check(key, harness.serve(service, request)(request))
        finally:
            workload.close()
        path = os.path.join(harness.EXPECTED_DIR, f"{name}.json")
        with open(path, "w") as handle:
            rows = sorted(workload.reference.items())
            handle.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
        print(f"{path}: {len(workload.reference)} requests")
