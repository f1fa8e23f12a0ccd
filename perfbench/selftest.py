"""Self-test of the benchmark: every workload, one short run over a few loops.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` twice, untraced and traced, and
checks that:

* every end-to-end metric is printed by name with its unit;
* ``failed_frac`` is 0 and the result is correct;
* the traced split matches the workload design: no partitioning on
  ``paper-uracam``, no store loads on the three cold workloads, and pool
  chunks only on ``paper-pool``.

Exits with 1 and names each failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
COLD = ("paper-partitioned", "paper-uracam", "paper-pool")


def run(workload: str, trace: int) -> tuple:
    """Printed ``name -> (value, unit)`` lines and the final JSON of one run."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "0.5", "--loops", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = re.fullmatch(r"(\S+) = (\S+) (\S+)", line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    return printed, json.loads(lines[-1])


def main() -> int:
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    end_to_end["failed_frac"] = "fraction"
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        printed, result = run(workload, 0)
        for name, unit in end_to_end.items():
            expect(printed.get(name, (None, None))[1] == unit, f"{workload}: {name} not printed in {unit}")
        expect(printed.get("failed_frac", (1, ""))[0] == 0, f"{workload}: failed_frac is not 0")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: result not correct")

        printed, result = run(workload, 1)
        expect(result["correct"], f"{workload}: traced result not correct")
        for name, unit in per_layer.items():
            expect(printed.get(name, (None, None))[1] == unit, f"{workload}: {name} not printed in {unit}")
        value = {name: v for name, (v, _) in printed.items()}
        if workload == "paper-uracam":
            expect(value.get("partition.calls") == 0, "paper-uracam: partition.calls is not 0")
        if workload in COLD:
            expect(value.get("store.load_calls") == 0, f"{workload}: store.load_calls is not 0")
        chunks = value.get("eval.chunks", 0)
        expect(
            (chunks > 0) == (workload == "paper-pool"),
            f"{workload}: eval.chunks is {chunks}",
        )
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
