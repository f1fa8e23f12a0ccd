"""The repository benchmark: one seeded workload, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper-partitioned --seed 20010101 --seconds 13 --trace 0

It sets the workload up three times, each in a fresh interpreter, and
reports the median set-up time.  The last of those processes then runs
the timed passes and checks every output.  With ``--trace 0`` it prints
the end-to-end metrics.  With ``--trace 1`` it prints the per-layer
metrics from a traced run, next to an untraced one for the overhead.
Each metric is printed as one ``name = value unit`` line.  Timings are
stated at a reference host speed (see ``calibrate.py``); the ``measured:``
line gives them as the clock read them.  The last line of stdout is one
JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

This process never imports ``repro``.  The work happens in
``harness.py``, which imports it from ``src/``.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from harness import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
#: Set-ups per run; the reported ``setup_s`` is their median.
SETUPS = 3
#: Every child together must end well inside the three minutes one run may take.
DEADLINE_S = 170
#: Printed with the end-to-end metrics but kept out of the JSON: it is 0
#: on a correct run, and the JSON already carries ``attempted`` and ``failed``.
PRINT_ONLY = ("failed_frac",)


def source_digest(root: str) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "repro")
    for directory, dirs, files in sorted(os.walk(package)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Keep the pool's temporary files inside the checkout, unless the
    # path would be too long for the forkserver's unix socket.
    tmp = os.path.join(root, ".perfbench", "tmp")
    if len(tmp) <= 60:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run ``harness.py`` in its own process group and parse its result.

    On timeout the whole group is killed.  Either way, return only once
    no process of the group is left.
    """
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "harness.py"), *args],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"perfbench: {' '.join(args)} ran past the deadline")
    finally:
        reap_group(process.pid)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: harness {' '.join(args)} exited with {process.returncode}")
    return json.loads(lines[-1])


def reap_group(pgid: int) -> None:
    """Wait until the process group is gone, killing stragglers after 10 s."""
    waited = 0.0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if waited >= 10 else 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        if waited >= 12:
            return
        time.sleep(0.1)
        waited += 0.1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--loops", type=int, default=0, help="first N loops (or slices) per pass; 0 = all (for self-tests)"
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--loops", str(args.loops)]
    setups = [run_child(common + ["--mode", "setup"], env, deadline) for _ in range(SETUPS - 1)]
    mode = "trace" if args.trace else "run"
    result = run_child(common + ["--mode", mode, "--seconds", str(args.seconds)], env, deadline)
    setups.append(result)

    def median(key):
        return statistics.median(setup[key] for setup in setups)

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["import.s"] = (median("import_s"), "s")
        metrics["workloads.generate_s"] = (median("generate_s"), "s")
        metrics["eval.pool_warm_s"] = (median("warm_s"), "s")
    else:
        metrics["setup_s"] = (median("setup_s"), "s")

    samples = dict(result["samples"], setup_runs=len(setups))
    if not args.trace:
        samples["beyond_p90"] = samples["requests"] - -(-9 * samples["requests"] // 10)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"host: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"machine={platform.machine()} commit={git_commit(root)} source={source_digest(root)} "
        f"pinned_cpu={result['host']['cpu']} kernel_ms={result['host']['kernel_ms']:.4f}"
    )
    print("samples: " + " ".join(f"{k}={v}" for k, v in samples.items()))
    if not args.trace:
        measured = dict(result["measured"], setup_s=(median("setup_measured_s"), "s"))
        print("measured: " + " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in sorted(measured.items())))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    correct = result["failed"] == 0
    report = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINT_ONLY
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
