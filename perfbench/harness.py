"""One benchmark process: set a workload up, run its timed passes, check them.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH=src``,
so the set-up time it reports covers ``import repro``.  The process
prints human-readable lines on stderr and one JSON object as the last
line of stdout.

A pass is a fixed list of requests served by a fresh ``ReproService``
from freshly generated loop objects, so the memos keyed on loop objects
start cold on every pass.  Generation, session open and the output
checks run between passes, outside the timed region.

Every timing is stated at a reference host speed: see ``calibrate.py``.
The timings as measured are printed next to them.
"""

import time

#: Set-up time is measured from here, before ``repro`` is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import List, NamedTuple  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 20010101
WORKLOADS = ("paper-partitioned", "paper-uracam", "paper-pool", "replay-disk")
PAPER_MACHINES = ("2x32", "2x64", "4x32", "4x64")
PARTITIONED = ("gp", "fixed-partition")
EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
#: Working directory inside the checkout (ignored by git).
WORK_DIR = ".perfbench"
#: A result that could be compared with nothing is re-run once for every
#: RECHECK_STRIDE such results.
RECHECK_STRIDE = 11
#: Timed seconds of one pass at the reference host speed (see calibrate.py).
#: A run makes round(seconds / PASS_S) passes, at least one.  The pass
#: count depends on the run length alone, so a seed always gives the
#: same inputs.
PASS_S = {"paper-partitioned": 4.8, "paper-uracam": 2.5, "paper-pool": 1.1, "replay-disk": 0.09}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def signature(outcome) -> list:
    """What a loop's schedule must reproduce: II, IPC, kind and spills."""
    schedule = outcome.schedule
    if outcome.is_modulo:
        return [schedule.ii, schedule.ipc(), "modulo", schedule.stats.spills]
    return [0, schedule.ipc(), "list", 0]


def loop_outcomes(response) -> list:
    if hasattr(response, "outcome"):
        return [response.outcome]
    return [o for b in response.result.per_benchmark.values() for o in b.outcomes]


def pool_processes() -> dict:
    """CPU seconds and peak RSS (MB) of each descendant process, by pid.

    Read from ``/proc``: forkserver workers are grandchildren, and
    ``getrusage(RUSAGE_CHILDREN)`` sees none of their time until the
    forkserver itself has been reaped.
    """
    parent_of, cpu = {}, {}
    tick = os.sysconf("SC_CLK_TCK")
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        parent_of[int(entry)] = int(fields[1])
        cpu[int(entry)] = (int(fields[11]) + int(fields[12])) / tick
    family, grown = {os.getpid()}, True
    while grown:
        grown = False
        for pid, parent in parent_of.items():
            if parent in family and pid not in family:
                family.add(pid)
                grown = True
    family.discard(os.getpid())
    out = {}
    for pid in family:
        hwm = 0.0
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        hwm = int(line.split()[1]) / 1024
        except OSError:
            continue
        out[pid] = (cpu[pid], hwm)
    return out


class Workload:
    """Inputs, sessions and output checks of one workload."""

    def __init__(self, name: str, seed: int, limit: int, expected: bool = True) -> None:
        from repro.workloads.spec import suite_for_tier

        self.name = name
        self.seed = seed
        self.limit = limit
        self.suite_for_tier = suite_for_tier
        #: Two workers, the fewest that take requests through the pool.  They
        #: share the benchmark's one CPU (see ``main``).
        self.jobs = 2 if name == "paper-pool" else 1
        self.pool = None
        self.store_root = None
        self.store_bytes = 0
        self.fill_loops = 0
        self.warm_s = 0.0
        self.generate_s = []
        #: Request key -> loop signatures every later result must equal: the
        #: expected file at the default seed, the store fill on replay-disk,
        #: else the first result.
        self.reference = {}
        if seed == DEFAULT_SEED and expected and name != "replay-disk":
            self.reference = load_expected(name)
        #: Keys whose reference is a first result, compared with nothing yet.
        self.pinned = set()

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / PASS_S[self.name]))

    # -- inputs ------------------------------------------------------------
    def generate(self, tier: str, index: int = 0):
        """Fresh loop objects of the run's ``index``-th suite.

        Suite 0 is the one the seed names; the others come from seeds
        derived from it, so longer runs cover more distinct loops.
        """
        seed = self.seed if index == 0 else self.seed * 1_000_003 + index
        started = time.perf_counter()
        suite = self.suite_for_tier(tier, seed)
        self.generate_s.append(time.perf_counter() - started)
        return suite

    def _paper_requests(self, suite, schedulers, tag: str = "") -> list:
        from repro.service import ScheduleRequest

        loops = [loop for benchmark in suite for loop in benchmark.loops]
        if self.limit:
            loops = loops[: self.limit]
        return [
            (f"{s}/{m}/{loop.name}{tag}", ScheduleRequest(machine=m, scheduler=s, loop=loop), 1)
            for loop in loops
            for m in PAPER_MACHINES
            for s in schedulers
        ]

    def _slice_requests(self, suite, tag: str = "") -> list:
        """GP on 4x64 over every two-loop slice of every program, slice index by slice index."""
        from repro.service import EvaluationRequest
        from repro.workloads.spec import Benchmark

        requests = []
        for start in range(0, max(len(b.loops) for b in suite), 2):
            for benchmark in suite:
                part = Benchmark(benchmark.name, benchmark.loops[start: start + 2])
                if not part.loops:
                    continue
                key = f"gp/4x64/{benchmark.name}[{start}:{start + 2}]{tag}"
                request = EvaluationRequest(scheduler="gp", machine="4x64", suite=(part,))
                requests.append((key, request, len(part.loops)))
        return requests[: self.limit] if self.limit else requests

    def requests(self, index: int = 0) -> list:
        """The requests of pass ``index``, on fresh loop objects.

        Every replay-disk pass replays the filled suite; the other
        workloads run the ``index``-th suite of the run.
        """
        tag = f"@{index}" if index else ""
        if self.name == "paper-pool":
            return self._slice_requests(self.generate("paper", index), tag)
        if self.name == "replay-disk":
            return self._paper_requests(self.generate("paper"), ("gp",))
        suite = self.generate("paper", index)
        if self.name == "paper-partitioned":
            return self._paper_requests(suite, PARTITIONED, tag)
        return self._paper_requests(suite, ("uracam",), tag)

    # -- sessions ----------------------------------------------------------
    def open_session(self):
        from repro.service import DiskStore, ReproService

        if self.name == "paper-pool":
            if self.pool is None:
                from repro.eval.parallel import EvaluationPool

                self.pool = EvaluationPool(self.jobs)
                service = ReproService(pool=self.pool)
                started = time.perf_counter()
                service.warm()
                self.warm_s = time.perf_counter() - started
                return service
            return ReproService(pool=self.pool)
        if self.name == "replay-disk":
            return ReproService(store=DiskStore(self.store_root))
        return ReproService()

    def fill_store(self, calibrator) -> list:
        """Schedule the replay requests once into a fresh disk store.

        Returns the filled responses for checking outside set-up time.
        ``calibrator`` samples host speed between the requests.
        """
        from repro.service import DiskStore, ReproService

        os.makedirs(WORK_DIR, exist_ok=True)
        self.store_root = os.path.abspath(os.path.join(WORK_DIR, f"store-{os.getpid()}"))
        shutil.rmtree(self.store_root, ignore_errors=True)
        store = DiskStore(self.store_root)
        filled = []
        with ReproService(store=store) as service:
            for key, request, _ in self.requests():
                calibrator.catch_up()
                started = time.perf_counter()
                filled.append((key, service.schedule(request)))
                calibrator.add(time.perf_counter() - started)
        self.store_bytes = store.total_bytes()
        self.fill_loops = len(filled)
        return filled

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
            stop_helpers()
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)

    # -- checks ------------------------------------------------------------
    def check(self, key: str, response) -> list:
        """Validate one response and compare it with its reference.

        Raises ``AssertionError`` naming the request on any mismatch.
        """
        outcomes = loop_outcomes(response)
        for outcome in outcomes:
            if outcome.is_modulo and hasattr(outcome.schedule, "validate"):
                outcome.schedule.validate(full_recheck=True)
        if self.name == "replay-disk" and not (response.meta.store and response.meta.store.hit):
            raise AssertionError(f"{key}: not served from the store")
        got = [signature(outcome) for outcome in outcomes]
        want = self.reference.get(key)
        if want is None:
            self.reference[key] = got
            self.pinned.add(key)
        elif want != got:
            raise AssertionError(f"{key}: got {got}, expected {want}")
        return got


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json")) as handle:
        return json.load(handle)


def stop_helpers() -> None:
    """Stop and reap the forkserver and resource tracker the pool started."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def serve(service, request):
    """The session method that serves ``request``."""
    return service.schedule if hasattr(request, "loop") else service.evaluate


class Pass(NamedTuple):
    """One timed pass: per-request times, loops completed, pool CPU.

    ``scales`` holds each request's host-speed scale; a time times its
    scale is that time at the reference host speed.
    """

    latencies: list  # wall seconds of each request
    cpus: list  # CPU seconds of the benchmark process in each request
    scales: list
    worker_cpu: float  # pool processes, over the whole pass
    loops: int

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def normalised(self, values) -> list:
        return [value * scale for value, scale in zip(values, self.scales)]

    def normalised_cpu(self) -> float:
        """Benchmark and pool CPU at the reference host speed."""
        return sum(self.normalised(self.cpus)) + self.worker_cpu * statistics.median(self.scales)


class Region:
    """Whole passes of timed requests, with their checks and counters."""

    def __init__(self, workload: Workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.passes: List[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.ipc = []
        #: Every calibration kernel time of the timed passes.
        self.kernel_s = []
        self.counters = {
            "memo_hits": 0, "memo_misses": 0, "chunks": 0, "retries": 0,
            "degraded_chunks": 0, "store_hits": 0, "store_misses": 0,
            "ii_attempts": 0, "spills": 0, "partitions": 0,
        }

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.passes)

    @property
    def normalised_wall(self) -> float:
        return sum(sum(p.normalised(p.latencies)) for p in self.passes)

    @property
    def loops(self) -> int:
        return sum(p.loops for p in self.passes)

    @property
    def worker_cpu(self) -> float:
        return sum(p.worker_cpu for p in self.passes)

    def loops_per_s(self) -> float:
        """At the reference host speed."""
        return self.loops / self.normalised_wall

    def run(self, service, requests, passes: int) -> None:
        """Run ``passes`` passes; the first on ``requests`` and ``service``."""
        for index in range(passes):
            if index:
                requests = self.workload.requests(index)
                service = self.workload.open_session()
            self._run_pass(service, requests)

    def recheck(self) -> None:
        """Re-run a sample of the pinned requests from fresh inputs, untimed.

        A pinned result was compared with nothing when it was produced:
        at a seed without an expected file, each request runs once.
        """
        pinned = self.workload.pinned
        if not pinned:
            return
        sample = Region(self.workload)
        for index in range(len(self.passes)):
            requests = [r for r in self.workload.requests(index) if r[0] in pinned]
            if requests[::RECHECK_STRIDE]:
                sample._run_pass(self.workload.open_session(), requests[::RECHECK_STRIDE])
        self.attempted += sample.attempted
        self.failed += sample.failed

    def _run_pass(self, service, requests) -> None:
        tracer, clock, cpu_clock = self.tracer, time.perf_counter, time.process_time
        watch = self.workload.jobs > 1
        workers = pool_processes() if watch else {}
        calibrator = calibrate.Calibrator()
        calibrator.sample(3)
        results, latencies, cpus, marks = [], [], [], []
        for key, request, loops in requests:
            call = serve(service, request)
            if tracer is not None:
                tracer.request += 1
            calibrator.catch_up()
            cpu = cpu_clock()
            begun = clock()
            try:
                response = call(request)
            except Exception:
                log(f"{key}: raised\n{traceback.format_exc()}")
                response = None
            latencies.append(clock() - begun)
            cpus.append(cpu_clock() - cpu)
            marks.append(calibrator.add(latencies[-1]))
            results.append((key, response, loops))
        worker_cpu = 0.0
        if watch:
            after = pool_processes()
            worker_cpu = sum(c - workers.get(pid, (0.0, 0.0))[0] for pid, (c, _) in after.items())
        loops = sum(loops for _, response, loops in results if response is not None)
        self._count_session(service)
        service.close()
        self._check(results)
        scales = [calibrator.scale(mark) for mark in marks]
        self.kernel_s.extend(calibrator.samples)
        self.passes.append(Pass(latencies, cpus, scales, worker_cpu, loops))

    def _count_session(self, service) -> None:
        counters = self.counters
        counters["memo_hits"] += service.cache_hits
        counters["memo_misses"] += service.cache_misses
        counters["chunks"] += service.telemetry.chunks
        counters["retries"] += service.telemetry.retries
        counters["degraded_chunks"] += service.telemetry.degraded_chunks
        if service.store is not None:
            stats = service.store.stats()
            counters["store_hits"] += stats["hits"]
            counters["store_misses"] += stats["misses"]

    def _check(self, results) -> None:
        counters = self.counters
        for key, response, _ in results:
            self.attempted += 1
            if response is None:
                self.failed += 1
                continue
            try:
                got = self.workload.check(key, response)
            except Exception as error:  # a failed check must not stop the run
                log(f"check failed: {error!r}")
                self.failed += 1
                continue
            self.ipc.extend(sig[1] for sig in got)
            for outcome in loop_outcomes(response):
                stats = getattr(outcome.schedule, "stats", None)
                counters["ii_attempts"] += getattr(stats, "ii_attempts", 0)
                counters["spills"] += getattr(stats, "spills", 0)
                counters["partitions"] += getattr(stats, "partitions_computed", 0)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(region: Region, worker_peak_mb: float) -> tuple:
    """Timings and IPC over every timed pass.

    Returns the metrics, with timings at the reference host speed, and
    the same timings as measured.
    """
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, loops = region.passes, region.loops
    latencies = [latency for p in passes for latency in p.normalised(p.latencies)]
    metrics = {
        "loops_per_s": (region.loops_per_s(), "loops/s"),
        "cpu_ms_per_loop": (sum(p.normalised_cpu() for p in passes) * 1000 / loops, "ms"),
        "latency_ms_p50": (percentile(latencies, 0.5) * 1000, "ms"),
        "latency_ms_p90": (percentile(latencies, 0.9) * 1000, "ms"),
        "ipc_mean": (statistics.fmean(region.ipc), "ops/cycle"),
        "failed_frac": (region.failed / region.attempted, "fraction"),
        "peak_rss_mb": (max(parent_mb, worker_peak_mb), "MB"),
    }
    latencies = [latency for p in passes for latency in p.latencies]
    measured = {
        "loops_per_s": (loops / region.wall, "loops/s"),
        "cpu_ms_per_loop": (sum(sum(p.cpus) + p.worker_cpu for p in passes) * 1000 / loops, "ms"),
        "latency_ms_p50": (percentile(latencies, 0.5) * 1000, "ms"),
        "latency_ms_p90": (percentile(latencies, 0.9) * 1000, "ms"),
    }
    return metrics, measured


def per_layer(workload, region, setup_spans, spans, overhead) -> dict:
    """Per-layer metrics of the traced region, per loop where it is a rate."""
    loops = region.loops
    times = tracing.layer_times(spans)
    fill = tracing.layer_times(setup_spans)
    zero = tracing.LayerTime(0, 0.0, 0.0)

    def ms(name, source=times, per=loops, own=False):
        layer = source.get(name, zero)
        return ((layer.self if own else layer.total) * 1000 / per if per else 0.0, "ms/loop")

    def calls(name, source=times, per=loops):
        return (source.get(name, zero).calls / per if per else 0.0, "calls/loop")

    def ratio(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    request_s = times.get("service.request", zero).total
    c = region.counters
    engine_calls = times.get("schedule.engine", zero).calls
    worker_capacity = region.wall * workload.jobs if workload.jobs > 1 else 0.0
    return {
        "service.fingerprint_ms": ms("service.fingerprint"),
        "service.fingerprint_calls": calls("service.fingerprint"),
        "service.request_ms": ms("service.request", own=True),
        "service.memo_hits": (c["memo_hits"] / loops, "1/loop"),
        "service.memo_misses": (c["memo_misses"] / loops, "1/loop"),
        "service.io_share": ratio(
            tracing.covered_time(
                spans, ("service.fingerprint", "store.load", "store.put", "codec.decode", "codec.encode")
            ),
            request_s,
        ),
        "store.load_ms": ms("store.load"),
        "store.load_self_ms": ms("store.load", own=True),
        "store.load_calls": calls("store.load"),
        "store.hit_ratio": ratio(c["store_hits"], c["store_hits"] + c["store_misses"]),
        "store.put_ms": ms("store.put", fill, workload.fill_loops),
        "store.put_calls": calls("store.put", fill, workload.fill_loops),
        "store.bytes": (workload.store_bytes, "bytes"),
        "codec.decode_ms": ms("codec.decode"),
        "codec.encode_ms": ms("codec.encode", fill, workload.fill_loops),
        "eval.run_requests_ms": ms("eval.run_requests"),
        "eval.chunks": (c["chunks"] / loops, "1/loop"),
        "eval.retries": (c["retries"] / loops, "1/loop"),
        "eval.degraded_chunks": (c["degraded_chunks"] / loops, "1/loop"),
        "eval.worker_cpu_s": (region.worker_cpu / loops, "s/loop"),
        "eval.worker_util": ratio(region.worker_cpu, worker_capacity),
        "schedule.mii_ms": ms("schedule.mii"),
        "schedule.mii_calls": calls("schedule.mii"),
        "schedule.order_ms": ms("schedule.order"),
        "schedule.order_calls": calls("schedule.order"),
        "schedule.engine_ms": ms("schedule.engine"),
        "schedule.engine_self_ms": ms("schedule.engine", own=True),
        "schedule.engine_attempts": calls("schedule.engine"),
        "schedule.engine_success_ratio": ratio(
            region.tracer.counts["schedule.engine.success"], engine_calls
        ),
        "schedule.engine_share": ratio(times.get("schedule.engine", zero).total, request_s),
        "schedule.listsched_fallbacks": calls("schedule.listsched"),
        "schedule.ii_attempts_per_loop": (c["ii_attempts"] / loops, "1/loop"),
        "schedule.spills_per_loop": (c["spills"] / loops, "1/loop"),
        "partition.per_loop": (c["partitions"] / loops, "1/loop"),
        "partition.ms": ms("partition"),
        "partition.self_ms": ms("partition", own=True),
        "partition.calls": calls("partition"),
        "partition.share": ratio(times.get("partition", zero).total, request_s),
        "partition.weights_ms": ms("partition.weights"),
        "partition.coarsen_ms": ms("partition.coarsen"),
        "partition.refine_ms": ms("partition.refine"),
        "partition.refine_self_ms": ms("partition.refine", own=True),
        "partition.refine_calls": calls("partition.refine"),
        "partition.estimate_ms": ms("partition.estimate"),
        "partition.estimate_calls": calls("partition.estimate"),
        "partition.preview_ms": ms("partition.preview"),
        "partition.preview_calls": calls("partition.preview"),
        "trace.overhead_frac": (overhead, "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--loops", type=int, default=0, help="first N loops (or slices) per pass; 0 = all")
    args = parser.parse_args(argv)

    # One CPU for the benchmark process and every process it starts, so
    # the calibration kernel runs where the work runs.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # Host speed around set-up: sampled before it, during the store fill
    # and after it.  Sampling time is taken out of the set-up time.
    calibrator = calibrate.Calibrator()
    calibrator.sample(5)
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: set-up covers the package import)

    import_s = time.perf_counter() - started
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    workload = Workload(args.workload, args.seed, args.loops)
    try:
        filled = workload.fill_store(calibrator) if workload.name == "replay-disk" else []
        requests = workload.requests()
        service = workload.open_session()
        setup_s = time.perf_counter() - STARTED - calibrator.spent
        calibrator.sample(5)
        setup = {
            "setup_s": setup_s * calibrator.overall_scale(),
            "setup_measured_s": setup_s,
            "import_s": import_s,
            "generate_s": workload.generate_s[0],
            "warm_s": workload.warm_s,
        }
        if args.mode == "setup":
            service.close()
            print(json.dumps(setup))
            return 0
        setup_failed = check_fill(workload, filled)
        del filled
        setup_spans = []
        if tracer is not None:
            setup_spans = tracer.take()
            tracer.uninstall()
        region = Region(workload)
        region.run(service, requests, workload.passes(args.seconds))
        if tracer is None:
            region.recheck()
        result = dict(setup, attempted=region.attempted, failed=region.failed + setup_failed)
        result["host"] = {"cpu": cpu, "kernel_ms": statistics.median(region.kernel_s) * 1000}
        result["samples"] = {
            "passes": len(region.passes),
            "requests": sum(len(p.latencies) for p in region.passes),
            "loops": region.loops,
        }
        if tracer is None:
            workers = pool_processes()
            worker_peak = max((hwm for _, hwm in workers.values()), default=0.0)
            result["metrics"], result["measured"] = end_to_end(region, worker_peak)
        else:
            tracer.install()
            traced = Region(workload, tracer)
            traced.run(workload.open_session(), workload.requests(), workload.passes(args.seconds))
            spans = tracer.take()
            tracer.uninstall()
            overhead = 1 - traced.loops_per_s() / region.loops_per_s()
            result["metrics"] = per_layer(workload, traced, setup_spans, spans, overhead)
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["samples"]["traced_passes"] = len(traced.passes)
            result["samples"]["spans"] = len(spans)
            os.makedirs(WORK_DIR, exist_ok=True)
            tracing.write_spans(
                os.path.join(WORK_DIR, f"spans-{workload.name}.tsv"),
                {"setup": setup_spans, "traced": spans},
            )
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def check_fill(workload: Workload, filled) -> int:
    """Validate the store fill; returns how many fill requests failed.

    The fill's outcomes become the replay reference.  At the default seed
    they must also match the GP entries of paper-partitioned's expected file.
    """
    failed = 0
    expected = {}
    if filled and workload.seed == DEFAULT_SEED:
        expected = load_expected("paper-partitioned")
    for key, response in filled:
        outcome = response.outcome
        try:
            if outcome.is_modulo:
                outcome.schedule.validate(full_recheck=True)
            got = [signature(outcome)]
            if expected and expected.get(key) != got:
                raise AssertionError(f"{key}: fill got {got}, expected {expected.get(key)}")
        except Exception as error:  # a failed check must not stop the run
            log(f"fill check failed: {error!r}")
            failed += 1
            continue
        workload.reference[key] = got
    return failed


if __name__ == "__main__":
    sys.exit(main())
