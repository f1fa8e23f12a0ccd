"""Command-line interface: ``python -m repro <command>``.

Every command is a thin request builder over the typed service façade
(:mod:`repro.service`): arguments become
:class:`~repro.service.requests.ScheduleRequest` /
:class:`~repro.service.requests.EvaluationRequest` objects, names
resolve through the scheduler/machine registries, and one
:class:`~repro.service.session.ReproService` session per invocation
owns the worker pool (and the response cache every figure panel within
that invocation shares).

Commands:

* ``schedule`` — schedule one kernel (or a JSON loop file) on a machine
  with one algorithm; prints the kernel listing and the statistics.
* ``evaluate`` — run a figure panel of the paper's evaluation on the
  synthetic suite and print the table (optionally CSV/JSON).
* ``bench`` — run the Table 2 timing on a chosen machine preset and print
  the scheduling CPU seconds per scheduler (a perf check without pytest);
  ``--json`` writes the timings to a file for CI artifacts.
* ``workloads`` — describe the synthetic suite's loop shapes.
* ``machines`` — list the built-in machine configurations.
* ``cache`` — inspect a content-addressed result store
  (``stats`` / ``verify`` / ``clear``).

``evaluate`` and ``bench`` take ``--store SPEC`` to attach a persistent
content-addressed result store (``memory``, ``disk``, ``disk:PATH`` or
a bare path): identical requests across invocations are replayed from
the store byte-identically instead of re-scheduled, and a cache
counters line goes to stderr so pipelines can assert replay rates
without disturbing stdout.

``evaluate`` and ``bench`` take ``--suite paper|extended`` to pick the
workload tier (the paper's 40 loops vs. the 220-loop production-scale
tier) and ``--jobs N`` to fan per-loop scheduling out over N worker
processes (``0`` = one per CPU; results are bit-identical to ``--jobs
1``); one worker pool is shared across everything a single invocation
runs.  ``evaluate --verify`` is the slow paranoid mode: every engine commit
cross-checks the incremental pressure state and every schedule is
re-validated with ``full_recheck=True``.  ``evaluate --validate-each``
is the production posture: every modulo schedule is re-validated through
the cached sessions, in the worker that produced it, so the
sweep-integrated validation cost is measured rather than skipped.

A worker death rebuilds the pool and resubmits the lost work (at most
twice per batch, then the rest runs in-process), so results stay
bit-identical; a loop whose scheduling raises aborts the run with an
error naming it, or, under ``evaluate --keep-going``, is collected into
a report (stderr, exit code 3).  ``--fault-plan`` injects a
deterministic JSON fault plan for testing that machinery (see
:mod:`repro.eval.faults`).

Examples::

    python -m repro schedule --kernel daxpy --machine 2x32 --algorithm gp
    python -m repro evaluate --clusters 4 --registers 32 --programs 3
    python -m repro evaluate --suite extended --jobs 0
    python -m repro bench --machine 4x64 --programs 3 --json bench.json
    python -m repro workloads --program swim
    python -m repro machines
    python -m repro evaluate --store disk:~/.cache/repro/store
    python -m repro cache stats --store disk
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ReproError
from .ir.serialize import load as load_loop
from .ir.stats import describe
from .machine.presets import table1_configurations
from .schedule.expand import render_kernel
from .service import (
    MACHINES,
    SCHEDULERS,
    FaultPlan,
    ReproService,
    ScheduleRequest,
)
from .workloads.kernels import KERNELS
from .workloads.spec import (
    PROGRAM_NAMES,
    SUITE_TIERS,
    make_benchmark,
    make_extended_benchmark,
    suite_for_tier,
)


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.loop_file:
        request = ScheduleRequest(
            loop=load_loop(args.loop_file),
            machine=args.machine,
            scheduler=args.algorithm,
            # One interactive loop: the independent full recheck is nearly
            # free and keeps this command's validation engine-independent.
            full_recheck=True,
        )
    else:
        if args.kernel not in KERNELS:
            print(f"unknown kernel {args.kernel!r}; available: {sorted(KERNELS)}")
            return 2
        request = ScheduleRequest(
            kernel=args.kernel,
            machine=args.machine,
            scheduler=args.algorithm,
            full_recheck=True,
        )
    with ReproService() as service:
        outcome = service.schedule(request).outcome
    print(describe(outcome.loop))
    print(f"machine: {outcome.machine.describe()}")
    print()
    if outcome.is_modulo:
        schedule = outcome.schedule
        print(render_kernel(schedule))
        print()
        stats = schedule.stats
        print(
            f"II={schedule.ii} stages={schedule.stage_count} "
            f"IPC={outcome.ipc():.3f} bus={stats.bus_transfers} "
            f"mem-comms={stats.mem_comms} spills={stats.spills} "
            f"attempts={stats.ii_attempts}"
        )
    else:
        print(
            f"modulo scheduling not profitable; list schedule of "
            f"{outcome.schedule.length} cycles/iteration, IPC={outcome.ipc():.3f}"
        )
    return 0


def _pick_suite(args: argparse.Namespace):
    suite = suite_for_tier(getattr(args, "suite", "paper"))
    return suite[: args.programs] if args.programs else suite


def _service_for(args: argparse.Namespace) -> ReproService:
    """The in-process session one suite command runs on."""
    return ReproService(
        jobs=args.jobs,
        store=args.store,
        faults=FaultPlan.load(args.fault_plan) if args.fault_plan else None,
        keep_going=getattr(args, "keep_going", False),
    )


def _cache_stats_line(service: ReproService) -> str:
    """The stderr cache/store counters line (stdout stays byte-clean).

    Session-level ``cache:`` counters first (a warm replay shows
    ``misses=0``), then the attached store's own counters.
    """
    parts = [f"cache: hits={service.cache_hits} misses={service.cache_misses}"]
    if service.store is not None:
        parts.append(
            "store: backend={backend} entries={entries} bytes={bytes} "
            "hits={hits} misses={misses} evictions={evictions}".format(
                **service.store.stats()
            )
        )
    return "  ".join(parts)


def _suite_engine_options(args: argparse.Namespace):
    """EngineOptions for a suite command, or None when all-defaults.

    Only ``--verify`` (evaluate only) deviates from the defaults; it turns
    on the engine's pressure cross-checks and full-recheck validation.
    Returning None otherwise keeps default invocations' request
    fingerprints (and store keys) stable.
    """
    from .schedule.engine import EngineOptions

    if not getattr(args, "verify", False):
        return None
    return EngineOptions(verify_pressure=True, validate_schedules=True)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .eval.export import figure_to_csv, figure_to_json
    from .eval.figures import figure2_panel, figure3_panel

    suite = _pick_suite(args)
    # --verify is the paranoid end-to-end mode: incremental-vs-reference
    # pressure cross-checks inside the engine, plus a full_recheck
    # validation of every schedule before it is reported.
    options = _suite_engine_options(args)
    with _service_for(args) as service:
        if args.bus_latency == 2:
            panel = figure3_panel(
                args.registers, suite=suite, options=options,
                validate_each=args.validate_each, service=service,
            )
        else:
            panel = figure2_panel(
                args.clusters, args.registers, suite=suite, options=options,
                validate_each=args.validate_each, service=service,
            )
        stats_line = _cache_stats_line(service) if args.store else None
    if args.format == "csv":
        print(figure_to_csv(panel), end="")
    elif args.format == "json":
        print(figure_to_json(panel))
    else:
        print(panel.render())
        print()
        print(
            f"GP over URACAM: {panel.gain_percent('gp', 'uracam'):+.1f}%  "
            f"GP over Fixed: {panel.gain_percent('gp', 'fixed-partition'):+.1f}%"
        )
    if stats_line:
        print(stats_line, file=sys.stderr)
    if args.keep_going:
        # Stderr, so csv/json stdout (and the CI byte-diff) stay clean.
        report = service.failure_report()
        print(report.render(), file=sys.stderr)
        if report:
            return 3
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    make = make_benchmark if args.suite == "paper" else make_extended_benchmark
    names = [args.program] if args.program else list(PROGRAM_NAMES)
    for name in names:
        benchmark = make(name)
        print(f"{name}: ({len(benchmark.loops)} loops)")
        for loop in benchmark.loops:
            print(f"  {describe(loop)}")
    return 0


#: Rows kept by ``bench --profile`` (stderr table and the JSON block).
_PROFILE_TOP = 25


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json
    import os
    import time as _time

    from .eval.figures import table2

    suite = _pick_suite(args)
    options = _suite_engine_options(args)
    if args.profile and args.jobs != 1:
        # cProfile only sees the driving process; worker-pool scheduling
        # would profile IPC plumbing instead of the schedulers.
        print(
            f"warning: --profile forces --jobs 1 (was {args.jobs})",
            file=sys.stderr,
        )
        args.jobs = 1
    with _service_for(args) as service:
        machine = service.resolve_machine(args.machine)
        jobs = service.jobs
        cpu_count = os.cpu_count() or 1
        oversubscribed = jobs > cpu_count
        if oversubscribed:
            # More workers than cores turns the suite wall clock into a
            # measure of contention: annotate instead of letting the
            # artifact silently report a "slowdown".
            print(
                f"warning: --jobs {jobs} oversubscribes this host "
                f"({cpu_count} CPU{'s' if cpu_count != 1 else ''}); parallel "
                "wall clock measures contention, not speedup",
                file=sys.stderr,
            )
        profile_block = None
        started = _time.perf_counter()
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            result = table2(suite, [machine], service=service, options=options)
            profiler.disable()
            wall_seconds = _time.perf_counter() - started
            stats = pstats.Stats(profiler)
            rendered = io.StringIO()
            pstats.Stats(profiler, stream=rendered).sort_stats(
                "cumulative"
            ).print_stats(_PROFILE_TOP)
            print(rendered.getvalue(), file=sys.stderr, end="")
            entries = [
                {
                    "function": f"{path}:{line}({name})",
                    "ncalls": ncalls,
                    "tottime": tottime,
                    "cumtime": cumtime,
                }
                for (path, line, name), (
                    _cc, ncalls, tottime, cumtime, _callers,
                ) in stats.stats.items()
            ]
            entries.sort(key=lambda entry: entry["cumtime"], reverse=True)
            profile_block = {
                "sorted_by": "cumulative",
                "top": entries[:_PROFILE_TOP],
            }
        else:
            result = table2(suite, [machine], service=service, options=options)
            wall_seconds = _time.perf_counter() - started
        stats_line = _cache_stats_line(service) if args.store else None
    print(result.render())
    config = result.configs[0]
    per = result.seconds[config]
    print()
    print(
        "schedule CPU seconds per benchmark "
        f"({len(suite)} benchmarks, {config}):"
    )
    for name in ("uracam", "fixed-partition", "gp"):
        print(f"  {name:16s} {per[name]:.4f}")
    print(f"suite wall clock: {wall_seconds:.2f}s (jobs={jobs})")
    if args.json:
        payload = {
            "schema": "repro-bench-cli/v8",
            "machine": config,
            "suite": args.suite,
            "benchmarks": len(suite),
            "loops": sum(len(b.loops) for b in suite),
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "oversubscribed": oversubscribed,
            "cpu_seconds_per_benchmark": dict(per),
            "wall_seconds": wall_seconds,
            # What the fault-tolerance layer had to do during the run
            # (all zeros on a healthy host: no retries, no rebuilds).
            "fault_tolerance": service.telemetry.to_dict(),
        }
        if profile_block is not None:
            payload["profile"] = profile_block
        with open(args.json, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if stats_line:
        print(stats_line, file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .errors import CodecError
    from .service.codec import loads_response
    from .service.store import open_store

    store = open_store(args.store)
    try:
        if args.action == "stats":
            stats = store.stats()
            print(f"backend:   {stats['backend']}")
            if hasattr(store, "root"):
                print(f"root:      {store.root}")
            print(f"entries:   {stats['entries']}")
            print(f"bytes:     {stats['bytes']}")
            budget = stats["max_bytes"]
            print(f"max_bytes: {'unlimited' if budget is None else budget}")
            return 0
        if args.action == "clear":
            removed = store.clear()
            print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
            return 0
        # verify: decode every entry and cross-check its content address.
        ok = 0
        corrupt = []
        for fingerprint in store.keys():
            text = store.get(fingerprint)
            if text is None:
                continue
            try:
                loads_response(text, fingerprint=fingerprint)
            except CodecError as error:
                corrupt.append((fingerprint, str(error)))
                if args.purge:
                    store.delete(fingerprint)
                continue
            ok += 1
        print(f"verified {ok} entr{'y' if ok == 1 else 'ies'}")
        for fingerprint, reason in corrupt:
            action = "purged" if args.purge else "corrupt"
            print(f"{action}: {fingerprint} ({reason})", file=sys.stderr)
        if corrupt:
            print(
                f"{len(corrupt)} corrupt entr"
                f"{'y' if len(corrupt) == 1 else 'ies'}"
                + ("" if args.purge else " (re-run with --purge to drop them)"),
                file=sys.stderr,
            )
            return 0 if args.purge else 1
        return 0
    finally:
        store.close()


def _cmd_machines(args: argparse.Namespace) -> int:
    print("Table 1 configurations:")
    for config in table1_configurations():
        print(f"  {config.describe()}")
    print("DSP presets:")
    for name in MACHINES.names():
        print(f"  {name}: {MACHINES.resolve(name).describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph-partitioning based instruction scheduling "
        "for clustered processors (MICRO-34 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="schedule one loop")
    p_sched.add_argument("--kernel", default="daxpy",
                         help=f"built-in kernel ({', '.join(sorted(KERNELS))})")
    p_sched.add_argument("--loop-file", default=None,
                         help="JSON loop file (overrides --kernel)")
    p_sched.add_argument("--machine", default="2x32",
                         help="NxR[xB[xL]] or c6x/lx/tigersharc")
    p_sched.add_argument("--algorithm", default="gp",
                         choices=SCHEDULERS.names())
    p_sched.set_defaults(func=_cmd_schedule)

    def add_suite_options(p) -> None:
        p.add_argument("--suite", default="paper", choices=SUITE_TIERS,
                       help="workload tier: the paper's 40 loops or the "
                       "220-loop extended tier")
        p.add_argument("--programs", type=int, default=0,
                       help="limit to the first N programs (0 = all)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for per-loop scheduling "
                       "(1 = sequential, 0 = one per CPU)")
        p.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="JSON fault-injection plan (testing/CI "
                       "only): injects worker crashes/raises at planned "
                       "loops to exercise the failure handling")
        p.add_argument("--store", default=None, metavar="SPEC",
                       help="content-addressed result store: 'memory', "
                       "'disk' (the default cache root), 'disk:PATH' or "
                       "a bare path; identical requests replay from the "
                       "store byte-identically across invocations")

    p_eval = sub.add_parser("evaluate", help="run a figure panel")
    p_eval.add_argument("--clusters", type=int, default=2, choices=(2, 4))
    p_eval.add_argument("--registers", type=int, default=32, choices=(32, 64))
    p_eval.add_argument("--bus-latency", type=int, default=1, choices=(1, 2))
    p_eval.add_argument("--verify", action="store_true",
                        help="paranoid mode: cross-check the incremental "
                        "pressure accounting at every engine commit and "
                        "re-validate every schedule with full_recheck")
    p_eval.add_argument("--validate-each", action="store_true",
                        help="re-validate every modulo schedule through "
                        "its cached sessions as it is produced (the "
                        "sweep-integrated validation cost)")
    p_eval.add_argument("--keep-going", action="store_true",
                        help="partial-results mode: collect per-loop "
                        "failures into a failure report (printed to "
                        "stderr; exit code 3) instead of aborting on "
                        "the first one")
    add_suite_options(p_eval)
    p_eval.add_argument("--format", default="table",
                        choices=("table", "csv", "json"))
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser(
        "bench",
        help="time the schedulers (Table 2) on one machine preset",
    )
    p_bench.add_argument("--machine", default="4x64",
                         help="NxR[xB[xL]] or c6x/lx/tigersharc")
    add_suite_options(p_bench)
    p_bench.add_argument("--json", default=None, metavar="PATH",
                         help="also write the timings as JSON (CI artifact)")
    p_bench.add_argument("--profile", action="store_true",
                         help="run the Table 2 loops under cProfile "
                         "(forces --jobs 1); prints the top cumulative "
                         "entries to stderr and adds a 'profile' block "
                         "to --json")
    p_bench.set_defaults(func=_cmd_bench)

    p_cache = sub.add_parser(
        "cache",
        help="inspect a content-addressed result store",
    )
    p_cache.add_argument("action", choices=("stats", "verify", "clear"),
                         help="stats: counters and size; verify: decode "
                         "every entry and cross-check its content "
                         "address; clear: delete every entry")
    p_cache.add_argument("--store", default="disk", metavar="SPEC",
                         help="store spec: 'memory', 'disk' (default), "
                         "'disk:PATH' or a bare path")
    p_cache.add_argument("--purge", action="store_true",
                         help="with verify: delete the corrupt entries "
                         "found instead of just reporting them")
    p_cache.set_defaults(func=_cmd_cache)

    p_work = sub.add_parser("workloads", help="describe the synthetic suite")
    p_work.add_argument("--program", default=None, choices=PROGRAM_NAMES)
    p_work.add_argument("--suite", default="paper", choices=SUITE_TIERS)
    p_work.set_defaults(func=_cmd_workloads)

    p_mach = sub.add_parser("machines", help="list machine configurations")
    p_mach.set_defaults(func=_cmd_machines)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
