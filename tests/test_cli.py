"""Tests for the command-line interface and machine-spec parsing."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.machine.spec import parse_machine_spec


class TestParseMachineSpec:
    """The canonical parser (repro.machine.spec) the CLI/registry share."""

    def test_simple_spec(self):
        machine = parse_machine_spec("2x32")
        assert machine.num_clusters == 2
        assert machine.total_registers == 32

    def test_unified_spec(self):
        machine = parse_machine_spec("1x64")
        assert not machine.is_clustered

    def test_full_spec(self):
        machine = parse_machine_spec("4x64x2x2")
        assert machine.num_clusters == 4
        assert machine.num_buses == 2
        assert machine.bus_latency == 2

    def test_dsp_preset(self):
        machine = parse_machine_spec("c6x")
        assert machine.num_clusters == 2
        assert machine.issue_width == 8

    def test_bad_spec(self):
        with pytest.raises(ReproError):
            parse_machine_spec("banana")
        with pytest.raises(ReproError):
            parse_machine_spec("2")
        with pytest.raises(ReproError):
            parse_machine_spec("2x32x1x1x9")


class TestCommands:
    def test_schedule_kernel(self, capsys):
        assert main(["schedule", "--kernel", "daxpy", "--machine", "2x32"]) == 0
        out = capsys.readouterr().out
        assert "II=" in out
        assert "kernel of 'daxpy'" in out

    def test_schedule_unknown_kernel(self, capsys):
        assert main(["schedule", "--kernel", "nope"]) == 2

    def test_schedule_from_json_file(self, tmp_path, capsys):
        from repro.ir.serialize import save
        from repro.workloads.kernels import dot_product

        path = tmp_path / "dot.json"
        save(dot_product(), str(path))
        assert main(["schedule", "--loop-file", str(path)]) == 0
        assert "dot" in capsys.readouterr().out

    def test_schedule_every_algorithm(self, capsys):
        for algorithm in ("uracam", "fixed-partition", "gp"):
            code = main(
                ["schedule", "--kernel", "cmul", "--algorithm", algorithm]
            )
            assert code == 0

    def test_evaluate_json_format(self, capsys):
        code = main(
            ["evaluate", "--clusters", "2", "--registers", "32",
             "--programs", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "averages" in payload
        assert set(payload["series"]) == {
            "unified", "uracam", "fixed-partition", "gp"
        }

    def test_evaluate_csv_format(self, capsys):
        code = main(
            ["evaluate", "--programs", "1", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("benchmark,")
        assert lines[-1].startswith("AVERAGE,")

    def test_bench_prints_per_scheduler_seconds(self, capsys):
        code = main(["bench", "--machine", "2x32", "--programs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "schedule CPU seconds per benchmark" in out
        for name in ("uracam", "fixed-partition", "gp"):
            assert name in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads", "--program", "swim"]) == 0
        out = capsys.readouterr().out
        assert "swim_loop0" in out

    def test_workloads_extended_tier(self, capsys):
        assert main(
            ["workloads", "--suite", "extended", "--program", "swim"]
        ) == 0
        out = capsys.readouterr().out
        assert "swim_ext0" in out
        assert "(22 loops)" in out

    def test_bench_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        code = main(
            ["bench", "--machine", "2x32", "--programs", "1",
             "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench-cli/v7"
        assert payload["suite"] == "paper"
        assert "wire" not in payload
        assert payload["jobs"] == 1
        assert payload["oversubscribed"] is False
        assert "engine_options" not in payload
        assert "profile" not in payload
        assert payload["wall_seconds"] > 0
        assert set(payload["cpu_seconds_per_benchmark"]) == {
            "uracam", "fixed-partition", "gp"
        }
        # A healthy sequential run engages no fault-tolerance machinery.
        fault = payload["fault_tolerance"]
        assert fault["retries"] == 0
        assert fault["rebuilds"] == 0
        assert fault["failed_loops"] == 0

    def test_bench_profile_block(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        code = main(
            ["bench", "--machine", "2x32", "--programs", "1",
             "--profile", "--jobs", "2", "--json", str(path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # --profile forces sequential scheduling and prints the pstats
        # table to stderr, keeping stdout's rendered table unchanged.
        assert "--profile forces --jobs 1" in captured.err
        assert "cumulative" in captured.err
        payload = json.loads(path.read_text())
        assert payload["jobs"] == 1
        profile = payload["profile"]
        assert profile["sorted_by"] == "cumulative"
        assert 0 < len(profile["top"]) <= 25
        top = profile["top"][0]
        assert set(top) == {"function", "ncalls", "tottime", "cumtime"}
        # The profile is sorted by cumulative time, schedulers on top.
        cumtimes = [entry["cumtime"] for entry in profile["top"]]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_bench_warns_when_jobs_oversubscribe_host(self, tmp_path, capsys):
        import os

        path = tmp_path / "bench.json"
        jobs = (os.cpu_count() or 1) + 2
        code = main(
            ["bench", "--machine", "2x32", "--programs", "1",
             "--jobs", str(jobs), "--json", str(path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "oversubscribes this host" in captured.err
        assert json.loads(path.read_text())["oversubscribed"] is True

    def test_evaluate_jobs_matches_sequential(self, capsys):
        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_evaluate_validate_each_matches_sequential(self, capsys):
        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--validate-each"]) == 0
        assert capsys.readouterr().out == sequential
        assert main(argv + ["--validate-each", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_evaluate_mp_context_matches_sequential(self, capsys):
        import multiprocessing

        argv = ["evaluate", "--programs", "1", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        available = multiprocessing.get_all_start_methods()
        for context in ("spawn", "forkserver"):
            if context not in available:
                continue
            assert main(
                argv + ["--jobs", "2", "--mp-context", context]
            ) == 0
            assert capsys.readouterr().out == sequential

    def test_evaluate_with_injected_crashes_matches_sequential(
        self, tmp_path, capsys
    ):
        """The CI smoke contract: a crash plan changes nothing in stdout."""
        from repro.eval.faults import FaultPlan
        from repro.workloads.spec import spec_suite

        argv = ["evaluate", "--programs", "2", "--format", "csv"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        plan = FaultPlan.from_seed(
            5, spec_suite()[:2], kinds=("crash",), count=2
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json() + "\n")
        assert main(
            argv + ["--jobs", "2", "--fault-plan", str(path)]
        ) == 0
        assert capsys.readouterr().out == sequential

    def test_evaluate_keep_going_reports_failures_on_stderr(
        self, tmp_path, capsys
    ):
        from repro.eval.faults import Fault, FaultPlan
        from repro.workloads.spec import spec_suite

        victim = spec_suite()[0]
        plan = FaultPlan(
            faults=(
                Fault(
                    benchmark=victim.name,
                    loop_name=victim.loops[0].name,
                    kind="raise",
                    attempt=None,
                ),
            )
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json() + "\n")
        argv = [
            "evaluate", "--programs", "1", "--jobs", "2",
            "--fault-plan", str(path), "--keep-going",
        ]
        assert main(argv) == 3  # partial results: distinct exit code
        captured = capsys.readouterr()
        assert "FAILURES" in captured.err
        assert victim.loops[0].name in captured.err
        # Without --keep-going the same plan aborts with an error.
        assert main(argv[:-1]) == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluate_keep_going_clean_run_reports_nothing(self, capsys):
        argv = [
            "evaluate", "--programs", "1", "--format", "csv", "--keep-going",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "no loop failures" in captured.err

    def test_bad_fault_plan_is_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{broken")
        assert main(
            ["evaluate", "--programs", "1", "--fault-plan", str(path)]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_machines_listing(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "unified-32r" in out and "c6x" in out

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestStoreAndCacheCommands:
    """``--store`` on evaluate/bench and the ``repro cache`` subcommand."""

    def _store(self, tmp_path):
        return str(tmp_path / "store")

    def test_evaluate_store_replay_identical_output(self, tmp_path, capsys):
        args = [
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", self._store(tmp_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "misses=4" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        # Byte-identical stdout, 100% hits on the replay.
        assert warm.out == cold.out
        assert "cache: hits=4 misses=0" in warm.err

    def test_store_counters_stay_off_stdout(self, tmp_path, capsys):
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", self._store(tmp_path),
            "--format", "csv",
        ]) == 0
        captured = capsys.readouterr()
        assert "cache:" not in captured.out
        assert "cache:" in captured.err

    def test_cache_stats_and_verify_and_clear(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "entries:   4" in out
        assert "backend:   disk" in out
        assert main(["cache", "verify", "--store", store]) == 0
        assert "verified 4 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", store]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert main(["cache", "stats", "--store", store]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_cache_verify_flags_and_purges_corruption(self, tmp_path, capsys):
        import os

        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        objects = os.path.join(store, "objects")
        victim = None
        for shard in os.listdir(objects):
            names = os.listdir(os.path.join(objects, shard))
            if names:
                victim = os.path.join(objects, shard, names[0])
                break
        with open(victim, "w") as handle:
            handle.write('{"schema": "repro-codec/2", "tru')
        assert main(["cache", "verify", "--store", store]) == 1
        captured = capsys.readouterr()
        assert "verified 3 entries" in captured.out
        assert "corrupt" in captured.err
        assert main(["cache", "verify", "--purge", "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--store", store]) == 0
        assert "verified 3 entries" in capsys.readouterr().out

    def test_cache_verify_flags_an_entry_under_the_wrong_key(
        self, tmp_path, capsys
    ):
        from repro.service import DiskStore

        store = self._store(tmp_path)
        assert main([
            "evaluate", "--clusters", "2", "--registers", "32",
            "--programs", "1", "--store", store,
        ]) == 0
        capsys.readouterr()
        disk = DiskStore(store)
        first, second = disk.keys()[:2]
        disk.put(second, disk.get(first))
        assert main(["cache", "verify", "--store", store]) == 1
        captured = capsys.readouterr()
        assert "verified 3 entries" in captured.out
        assert f"corrupt: {second}" in captured.err
        assert "fingerprinted" in captured.err

    def test_cache_unknown_store_is_structured_error(self, capsys):
        assert main(["cache", "stats", "--store", "redis"]) == 1
        err = capsys.readouterr().err
        assert "unknown store 'redis'" in err
        assert "memory" in err

    def test_bench_with_store(self, tmp_path, capsys):
        args = [
            "bench", "--machine", "2x32", "--programs", "1",
            "--store", self._store(tmp_path),
        ]
        assert main(args) == 0
        assert "cache:" in capsys.readouterr().err
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "cache: hits=3 misses=0" in captured.err
