"""The package imports and schedules with the standard library alone.

networkx backs only ``exact_matching`` (the ``exact`` extra) and numpy is
not used at all, so a fresh interpreter that cannot import either must
still ``import repro`` and schedule a paper-tier loop with every
scheduler.  The check runs in a subprocess so the blocking meta-path
finder cannot leak into this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib.abc
import json
import sys

BLOCKED = ("networkx", "numpy")


class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked in this test")
        return None


sys.meta_path.insert(0, Blocker())

import repro
from repro.machine.presets import two_cluster
from repro.partition.matching import exact_matching
from repro.service import SCHEDULERS
from repro.workloads.spec import spec_suite

loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in BLOCKED
    or name.startswith(("repro.service.daemon", "repro.service.client",
                        "repro.service.chaos"))
)
loop = spec_suite()[0].loops[0]
machine = two_cluster(total_registers=32)
iis = {}
for name in ("uracam", "fixed-partition", "gp"):
    outcome = SCHEDULERS.create(name, machine).schedule(loop)
    if outcome.is_modulo:
        outcome.schedule.validate(full_recheck=True)
    iis[name] = outcome.schedule.ii if outcome.is_modulo else None
try:
    exact_matching([("a", "b", 1.0)])
    exact_error = None
except ImportError as error:
    exact_error = str(error)
print(json.dumps({"loaded": loaded, "iis": iis, "exact_error": exact_error}))
"""


def test_import_and_schedule_without_networkx_or_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["loaded"] == []
    assert set(report["iis"]) == {"uracam", "fixed-partition", "gp"}
    assert all(ii for ii in report["iis"].values())
    assert "networkx" in report["exact_error"]
