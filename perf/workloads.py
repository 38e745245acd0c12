"""The benchmark's four workloads and the checks on their outputs.

Each workload is a job people run with this repository:

* ``paper``   -- ``examples/reproduce_paper.py --fast -j 2``: the paper
  reproduction.  The cold pass compiles and simulates the grid; the
  warm passes replay the artifact cache it filled and spend their time
  in cache-trace replay.
* ``faults``  -- ``repro faults ... --prune-masked -j 2``: a fault
  campaign.  Warm passes are injection (simulator re-runs) plus the
  static masking oracle, with no compiling.
* ``lint``    -- ``repro lint ackermann --all --json``: every analysis
  tier on both ISAs; the only job dominated by ``repro.analysis``.
* ``service`` -- an open-loop request stream into ``SimulationService``:
  repeat requests hit the store, about 2% are first-time compiles.

Every job runs as its users run it: the batch jobs as fresh
interpreters, the service in this process with its spawned workers.
A traced run wraps the layers' functions (``site/perf_trace.py``) and
reports where the time went instead of end-to-end numbers.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SITE = ROOT / "perf" / "site"
GOLDEN = ROOT / "perf" / "golden"
SRC = ROOT / "src"

sys.path.insert(0, str(SITE))
import perf_trace  # noqa: E402
from hostspeed import EXPONENT, HostSpeed  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Warm passes per run: at least this many, more while they fit in
#: ``--seconds``.
MIN_WARM = 2
#: The compiler's output depends on string-hash order (dhrystone on
#: dlxe/16/2 links to 17174 or 17178 bytes), so every process of a run
#: uses one hash seed and the goldens hold for it.
HASH_SEED = "0"


class BenchError(Exception):
    """The run could not be measured (as opposed to a wrong output)."""


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("failures", []).append(what)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    ``q`` share of the values at or below it.  (The benchmark keeps its
    own statistics rather than measure with the code under test.)"""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------ processes

class Context:
    """Directories, deadline and host-speed probes of one run."""

    def __init__(self, work: Path, deadline: float,
                 speed: HostSpeed | None = None) -> None:
        self.work = work
        self.deadline = deadline
        self.speed = speed
        #: (raw seconds, host slowdown) of every adjusted measurement.
        self.adjustments: list[tuple[float, float]] = []
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self._serial = 0

    def adjust(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at reference host
        speed (unchanged when the run has no probes)."""
        if self.speed is None:
            return seconds
        slowdown = self.speed.slowdown(start, end)
        self.adjustments.append((seconds, slowdown))
        return seconds / slowdown ** EXPONENT

    def interval(self, start: float, end: float) -> float:
        """The length of ``[start, end]`` at reference host speed."""
        return self.adjust(end - start, start, end)

    def fresh(self, stem: str) -> Path:
        self._serial += 1
        path = self.work / f"{stem}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left

    def env(self, cache: Path | None = None,
            trace_dir: Path | None = None) -> dict[str, str]:
        """The environment a job sees: the checkout's sources, a private
        artifact cache, and nothing the caller set for ``repro``."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")
               and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                             perf_trace.ENV_DIR)}
        path = [str(SRC)]
        if trace_dir is not None:
            path.insert(0, str(SITE))
            env[perf_trace.ENV_DIR] = str(trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPYCACHEPREFIX"] = str(self.work.parent / "pycache")
        env["TMPDIR"] = str(self.tmp)
        if cache is not None:
            env["REPRO_CACHE_DIR"] = str(cache)
        return env


@dataclass
class Pass:
    """One finished job process."""

    start: float
    end: float
    stdout: str
    stderr: str
    returncode: int
    pid: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_job(ctx: Context, argv: list[str], env: dict[str, str]) -> Pass:
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=ctx.remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv)} did not finish") from None
    return Pass(start, time.monotonic(), out, err, proc.returncode,
                proc.pid)


#: Python that stops and reaps the ``multiprocessing`` resource tracker
#: (:func:`stop_tracker`, for the set-up probes).
STOP_TRACKER = ("from multiprocessing import resource_tracker\n"
                "resource_tracker._resource_tracker._stop()\n")


def stop_tracker() -> None:
    """Stop the resource tracker and wait for it to end.  Spawning a
    process starts it, and left alone it outlives the process that
    started it, unwaited for.  It restarts if anything spawns again."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def setup_seconds(ctx: Context, code: str, args: list[str] | None = None,
                  ) -> tuple[float, float]:
    """Median (adjusted, wall) time from launching a fresh interpreter
    until ``code`` prints ``ready``."""
    times = []
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *(args or [])], cwd=ROOT,
            env=ctx.env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        line = proc.stdout.readline() if proc.stdout else ""
        end = time.monotonic()
        _out, err = proc.communicate(timeout=ctx.remaining())
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()}")
        walls.append(end - start)
        times.append(ctx.interval(start, end))
    return statistics.median(times), statistics.median(walls)


# ------------------------------------------------------------ batch jobs

@dataclass
class Batch:
    """A job run as a fresh interpreter: cold once, then warm."""

    argv: Callable[[int], list[str]]
    check: Callable[[Pass, int, Result], None]
    #: Python that imports the job's entry modules (``setup_s``).
    probe: str


def _paper_check(job: Pass, seed: int, res: Result) -> None:
    golden = (GOLDEN / "paper.txt").read_text()
    res.check(job.returncode == 0 and strip_paper(job.stdout) == golden,
              "paper: stdout differs from golden/paper.txt")


def strip_paper(stdout: str) -> str:
    """The reproduction's output without its wall-clock line."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("Total reproduction time"))


#: The campaign ignores the run's seed.  Its plan decides which
#: injections hang (4x the golden path) or are pruned, and plans drawn
#: from different seeds changed the campaign's cost by 15-50%, more than
#: any usable bound.  Reordering the cells instead moved peak memory by
#: 15%, because the order decides which worker holds which traces.
FAULTS_ARGV = ["-m", "repro", "faults", "ackermann", "queens", "quicksort",
               "towers", "--targets", "d16,dlxe", "-n", "4", "--seed", "42",
               "-j", "2", "--prune-masked"]


def _faults_check(job: Pass, seed: int, res: Result) -> None:
    golden = json.loads((GOLDEN / "faults-42.json").read_text())
    try:
        report = json.loads(job.stdout)
    except ValueError:
        report = {}
    cells = {(c["bench"], c["target"]): c for c in report.get("cells", [])}
    for cell in golden["cells"]:
        key = (cell["bench"], cell["target"])
        res.check(job.returncode == 0 and cells.get(key) == cell,
                  f"faults: cell {key[0]}/{key[1]} differs from golden")
    rest = {k: v for k, v in golden.items() if k != "cells"}
    res.check({k: report.get(k) for k in rest} == rest,
              "faults: campaign summary differs from golden")
    sites = sum(len(c.get("faults", [])) for c in report.get("cells", []))
    pruned = sum(c.get("pruned", 0) for c in report.get("cells", []))
    res.notes["faults.prune_frac"] = pruned / sites if sites else 0.0


def strip_vuln(report: dict[str, Any]) -> dict[str, Any]:
    """A lint report without the parts ``--vuln-seed`` changes."""
    findings = [f for f in report["findings"]
                if not f["rule"].startswith("VULN")]
    rules = {k: v for k, v in report["rules"].items()
             if not k.startswith("VULN")}
    return {**report, "findings": findings, "rules": rules, "vuln": None,
            "summary": None}


def vuln_consistent(report: dict[str, Any], faults: int = 20) -> bool:
    """Seed-dependent parts of a lint report that must always hold."""
    for cell in report["vuln"]:
        kinds = cell["by_kind"].values()
        if (cell["sites"] != faults
                or sum(k["sites"] for k in kinds) != faults
                or not 0 <= cell["proven_masked"] <= faults
                or len(cell["verdicts"]) != faults):
            return False
    by_rule: dict[str, int] = {}
    for finding in report["findings"]:
        by_rule[finding["rule"]] = by_rule.get(finding["rule"], 0) + 1
    return (report["summary"]["total"] == len(report["findings"])
            and report["summary"]["by_rule"] == by_rule)


def _lint_check(job: Pass, seed: int, res: Result) -> None:
    exact = GOLDEN / f"lint-{seed}.json"
    if exact.exists():
        ok = job.stdout == exact.read_text()
    else:
        golden = json.loads((GOLDEN / "lint-42.json").read_text())
        try:
            report = json.loads(job.stdout)
            ok = (strip_vuln(report) == strip_vuln(golden)
                  and vuln_consistent(report))
        except (ValueError, KeyError, TypeError):
            ok = False
    res.check(job.returncode == 0 and ok,
              f"lint: report differs from golden (seed {seed})")


BATCH: dict[str, Batch] = {
    "paper": Batch(
        argv=lambda seed: ["examples/reproduce_paper.py", "--fast",
                           "-j", "2"],
        check=_paper_check,
        probe="import repro.experiments; print('ready', flush=True)"),
    "faults": Batch(
        argv=lambda seed: FAULTS_ARGV, check=_faults_check,
        probe="import repro.cli, repro.faults; print('ready', flush=True)"),
    "lint": Batch(
        argv=lambda seed: ["-m", "repro", "lint", "ackermann", "--all",
                           "--json", "--vuln-seed", str(seed)],
        check=_lint_check,
        probe="import repro.cli, repro.analysis; "
              "print('ready', flush=True)"),
}


def _warm_copy(ctx: Context, filled: Path) -> Path:
    copy = ctx.fresh("cache")
    shutil.copytree(filled, copy, dirs_exist_ok=True)
    return copy


def run_batch(name: str, seed: int, seconds: float, ctx: Context,
              ) -> Result:
    """setup_s, then a cold pass on an empty artifact cache, then warm
    passes, each on a fresh copy of the cache the cold pass filled."""
    job = BATCH[name]
    res = Result()
    res.metrics["setup_s"], res.notes["setup_wall_s"] = \
        setup_seconds(ctx, job.probe)
    filled = ctx.fresh("cache")
    cold = run_job(ctx, job.argv(seed), ctx.env(cache=filled))
    job.check(cold, seed, res)
    warm: list[Pass] = []
    while len(warm) < MIN_WARM \
            or (len(warm) + 1) * statistics.mean(p.seconds for p in warm) \
            <= seconds:
        cache = _warm_copy(ctx, filled)
        done = run_job(ctx, job.argv(seed), ctx.env(cache=cache))
        shutil.rmtree(cache)
        job.check(done, seed, res)
        warm.append(done)
    res.metrics["cold_s"] = ctx.interval(cold.start, cold.end)
    res.metrics["warm_s"] = statistics.median(ctx.interval(p.start, p.end)
                                           for p in warm)
    res.notes["cold_wall_s"] = cold.seconds
    res.notes["warm_wall_s"] = [p.seconds for p in warm]
    return res


def trace_batch(name: str, seed: int, seconds: float, ctx: Context,
                ) -> Result:
    """A traced cold pass and a traced warm pass, plus an untraced warm
    pass to price the tracing."""
    job = BATCH[name]
    res = Result()
    filled = ctx.fresh("cache")
    passes = []
    for kind in ("cold", "plain", "warm"):
        cache = filled if kind == "cold" else _warm_copy(ctx, filled)
        spans_dir = None if kind == "plain" else ctx.fresh(f"spans-{kind}")
        done = run_job(ctx, job.argv(seed),
                       ctx.env(cache=cache, trace_dir=spans_dir))
        job.check(done, seed, res)
        passes.append((done, spans_dir))
    spans: list[dict[str, Any]] = []
    covered = wall = 0.0
    for done, spans_dir in passes:
        if spans_dir is None:
            continue
        these = perf_trace.load_spans(spans_dir)
        own = perf_trace.self_times(these)
        covered += sum(t for s, t in zip(these, own) if s["pid"] == done.pid)
        wall += done.seconds
        spans.extend(these)
    res.metrics.update(layer_metrics(spans))
    res.metrics["faults.prune_frac"] = res.notes.get("faults.prune_frac", 0.0)
    traced, plain = passes[2][0], passes[1][0]
    res.metrics["trace.overhead"] = (ctx.interval(traced.start, traced.end)
                                     / ctx.interval(plain.start, plain.end))
    res.metrics["trace.coverage"] = covered / wall
    res.notes["passes_s"] = {kind: done.seconds for kind, (done, _d)
                             in zip(("cold", "plain", "warm"), passes)}
    return res


# ------------------------------------------------------------ layers

def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans (all processes)."""
    rows = perf_trace.by_name(spans)

    def get(name: str, column: str) -> float:
        return rows.get(name, {}).get(column, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {f"{span}_s": get(span, "self_s") for span in (
        "cc.parse", "cc.irgen", "cc.opt", "cc.codegen", "asm.assemble",
        "asm.link", "machine.run", "machine.block_compile", "labcache.get",
        "labcache.put", "analysis.lint", "analysis.timing", "analysis.wcet",
        "analysis.icache", "analysis.density", "analysis.xisa",
        "analysis.vuln", "analysis.tv", "analysis.oracle", "faults.plan",
        "faults.inject", "faults.attribute")}
    instructions = get("machine.run", "n")
    refs = get("cache.replay", "n")
    hits = sum(1 for s in spans
               if s["name"] == "labcache.get" and s["key"] == "hit")
    lookups = get("labcache.get", "calls")
    out.update({
        "cc.compiles": get("cc.parse", "calls"),
        "machine.runs": get("machine.run", "calls"),
        "machine.instructions": instructions,
        "machine.minstr_per_s": ratio(instructions,
                                      get("machine.run", "total_s")) / 1e6,
        "machine.traced_runs": sum(1 for s in spans
                                   if s["name"] == "machine.run"
                                   and s["key"] == "traced"),
        "machine.block_compiles": get("machine.block_compile", "calls"),
        "cache.replay_s": get("cache.replay", "self_s")
        + get("cache.grid", "self_s"),
        "cache.refs": refs,
        "cache.mrefs_per_s": ratio(refs, get("cache.replay", "total_s"))
        / 1e6,
        "labcache.hits": hits,
        "labcache.misses": lookups - hits,
        "labcache.hit_frac": ratio(hits, lookups),
        "experiments.grid_s": get("experiments.grid", "total_s"),
        "experiments.self_s": get("experiments.tables", "self_s"),
        "faults.injections": get("faults.inject", "calls"),
        "service.executions": get("service.execute", "calls"),
    })
    return out


# ------------------------------------------------------------ service

QUICK_PROGRAMS = ("ackermann", "bubblesort", "queens", "towers")
QUICK_TARGETS = ("d16", "dlxe")
STREAM_REQUESTS = 1000
#: One first-time compile per block of this many requests (2%): enough
#: misses that p99 (ten samples beyond it) lands on the miss path, few
#: enough that two workers stay about a third busy.
MISS_EVERY = 50
#: Misses recomputed on a cache-free Lab after the timed window.
RECOMPUTED = 8


def prefill_requests() -> list[Any]:
    """The cold batch: compile and run every quick cell."""
    from repro.service import Request

    return [Request(kind=kind, bench=bench, target=target,
                    id=f"p{kind[0]}-{bench}-{target}")
            for kind in ("compile", "run")
            for bench in QUICK_PROGRAMS for target in QUICK_TARGETS]


def miss_cells() -> list[tuple[str, str]]:
    """The cells a stream compiles for the first time: every program on
    ``dlxe/16/2``, then the suite's first programs on ``dlxe/32/2``.

    The set is the same for every seed.  p99 is about the median compile
    of these cells, and seeded cells moved it by 11-15% between seeds.
    """
    from repro.bench import SUITE

    names = [b.name for b in SUITE]
    cells = [(name, "dlxe/16/2") for name in names]
    return cells + [(name, "dlxe/32/2")
                    for name in names[:STREAM_REQUESTS // MISS_EVERY
                                      - len(cells)]]


def stream_requests(seed: int, count: int = STREAM_REQUESTS,
                    ) -> list[tuple[Any, bool]]:
    """(request, first-time?) pairs: repeats of the cold batch's keys,
    with one first-time compile at a seeded offset in every block.  The
    seed draws the repeats, the offsets and the order of the misses."""
    from repro.service import Request

    rng = random.Random(seed)
    misses = miss_cells()
    rng.shuffle(misses)
    repeats = prefill_requests()
    out = []
    for index in range(count):
        block, offset = divmod(index, MISS_EVERY)
        if offset == 0:
            slot = rng.randrange(MISS_EVERY)
        rid = f"s{index:05d}"
        if offset == slot:
            bench, target = misses[block]
            out.append((Request(kind="compile", bench=bench,
                                target=target, id=rid), True))
        else:
            base = rng.choice(repeats)
            out.append((Request(kind=base.kind, bench=base.bench,
                                target=base.target, id=rid), False))
    return out


@dataclass
class Sample:
    """One stream request's timeline (monotonic seconds)."""

    request: Any
    miss: bool
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: Any = None
    #: Set by the done-callback, after ``done`` and ``response``.
    answered: threading.Event = field(default_factory=threading.Event)


def drive(service: Any, stream: list[tuple[Any, bool]], seconds: float,
          clock: Callable[[], float] = time.monotonic,
          sleep: Callable[[float], None] = time.sleep) -> list[Sample]:
    """Open loop: send request ``i`` at ``start + i * seconds / n``
    whether or not earlier ones finished; latency counts from that due
    time, so a stall shows on every request queued behind it."""
    interval = seconds / len(stream)
    start = clock()
    samples = []
    for index, (request, miss) in enumerate(stream):
        sample = Sample(request, miss, start + index * interval)
        delay = sample.due - clock()
        if delay > 0:
            sleep(delay)
        sample.sent = clock()
        future = service.scheduler.submit(request)

        def finished(fut: Any, sample: Sample = sample) -> None:
            sample.done = clock()
            sample.response = fut.result()
            sample.answered.set()

        future.add_done_callback(finished)
        samples.append(sample)
    return samples


def latency(sample: Sample) -> float:
    return sample.done - sample.due


def _cold_batch(service: Any) -> tuple[tuple[float, float], list[Any]]:
    """Submit the prefill at once; returns its (start, end) and answers."""
    requests = prefill_requests()
    start = time.monotonic()
    responses = service.execute(requests)
    return (start, time.monotonic()), responses


def _service(ctx: Context, seed: int, seconds: float, res: Result,
             tracer: Any = None) -> tuple[list[Sample], dict[str, Any]]:
    """Cold batch, stream and output checks on one fresh service."""
    from repro.service import SimulationService

    stream = stream_requests(seed)
    service = SimulationService(ctx.fresh("store"), jobs=2, seed=seed)
    service.start()
    try:
        cold, prefill = _cold_batch(service)
        before = service.stats()
        samples = drive(service, stream, seconds)
        lost = sum(not s.answered.wait(
                       max(0.0, ctx.deadline - time.monotonic()))
                   for s in samples)
        after = service.stats()
        if tracer is not None:
            tracer.close()    # the checks below are not part of the run
        _check_service(service, prefill, samples, seed, res)
    finally:
        service.close()
    delta = {k: after[k] - before[k]
             for k in ("requests", "batches", "coalesced", "cache_hits",
                       "retries", "worker_restarts")}
    return samples, {"cold_batch": cold, "cold_batch_s": cold[1] - cold[0],
                     "lost": lost,
                     **{f"stats.{k}": v for k, v in delta.items()}}


def _check_service(service: Any, prefill: list[Any],
                   samples: list[Sample], seed: int, res: Result) -> None:
    """No request lost or failed, one payload per key, and a seeded
    sample of misses recomputed without any cache."""
    from repro.experiments import Lab
    from repro.service import is_lost
    from repro.service.workers import execute_request

    payloads: dict[str, Any] = {}
    answered = list(zip(prefill_requests(), prefill)) + \
        [(s.request, s.response) for s in samples]
    for request, response in answered:
        payload = response.payload if response is not None else None
        first = payloads.setdefault(service.store.result_key(request),
                                    payload)
        res.check(response is not None and not is_lost(response)
                  and response.ok and payload is not None
                  and payload == first,
                  f"service: {request.id} lost, failed or inconsistent")
    misses = [s for s in samples if s.miss]
    lab = Lab(cache=False)
    for sample in random.Random(seed).sample(misses, RECOMPUTED):
        expected = execute_request(lab, sample.request)
        res.check(sample.response is not None
                  and sample.response.payload == expected,
                  f"service: {sample.request.id} differs when recomputed")


def run_service(seed: int, seconds: float, ctx: Context) -> Result:
    res = Result()
    res.metrics["setup_s"], res.notes["setup_wall_s"] = setup_seconds(
        ctx, "import sys\n"
             "from repro.service import SimulationService\n"
             "service = SimulationService(sys.argv[1], jobs=2)\n"
             "service.start()\n"
             "print('ready', flush=True)\n"
             "service.close()\n" + STOP_TRACKER, [str(ctx.fresh("probe"))])
    samples, notes = _service(ctx, seed, seconds, res)
    times = [latency(s) for s in samples if s.done]
    window = samples[0].due, max(s.done for s in samples)
    res.metrics["cold_s"] = ctx.adjust(percentile(times, 0.99), *window)
    res.metrics["warm_s"] = ctx.adjust(percentile(times, 0.50), *window)
    late = [s.sent - s.due for s in samples]
    res.notes.update(notes, samples=len(times),
                     p50_ms=percentile(times, 0.50) * 1e3,
                     p99_ms=percentile(times, 0.99) * 1e3,
                     miss_p50_ms=percentile(
                         [latency(s) for s in samples if s.miss], 0.5) * 1e3,
                     gen_late_p99_ms=percentile(late, 0.99) * 1e3)
    return res


def trace_service(seed: int, seconds: float, ctx: Context) -> Result:
    """An untraced cold batch to price tracing, then the whole workload
    traced: this process through the wrappers, the spawned workers
    through ``sitecustomize``."""
    from repro.service import SimulationService

    res = Result()
    service = SimulationService(ctx.fresh("store"), jobs=2, seed=seed)
    service.start()
    try:
        plain, _responses = _cold_batch(service)
    finally:
        service.close()
    spans_dir = ctx.fresh("spans")
    os.environ.update({k: v for k, v in ctx.env(trace_dir=spans_dir).items()
                       if k in ("PYTHONPATH", perf_trace.ENV_DIR)})
    tracer = perf_trace.Tracer(spans_dir, flush_on_root=False)
    perf_trace.install(tracer)
    samples, notes = _service(ctx, seed, seconds, res, tracer)
    spans = perf_trace.load_spans(spans_dir)
    res.metrics.update(layer_metrics(spans))
    res.metrics.update(service_stage_metrics(spans, samples, notes))
    res.metrics["trace.overhead"] = (ctx.interval(*notes["cold_batch"])
                                     / ctx.interval(*plain))
    res.notes.update(notes, untraced_cold_batch_s=plain[1] - plain[0])
    return res


def service_stage_metrics(spans: list[dict[str, Any]],
                          samples: list[Sample], notes: dict[str, Any],
                          ) -> dict[str, float]:
    """Where stream requests spent their latency, stage by stage."""
    stream = {s.request.id for s in samples}

    def ms(name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in spans
                if s["name"] == name and (s["key"] in stream or not s["key"])]

    def pct(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    waits = [s["n"] * 1e3 for s in spans
             if s["name"] == "service.batch" and s["key"] in stream]
    out = {"service.submit_ms": pct(ms("service.submit"), 0.5),
           "service.store_get_ms": pct(ms("service.store_get"), 0.5),
           "service.store_commit_ms": pct(ms("service.store_commit"), 0.5)}
    for metric, values in (("queue_wait_ms", waits),
                           ("dispatch_ms", ms("service.dispatch")),
                           ("execute_ms", ms("service.execute"))):
        out[f"service.{metric}.p50"] = pct(values, 0.5)
        out[f"service.{metric}.p99"] = pct(values, 0.99)
    requests = notes["stats.requests"]
    late = [s.sent - s.due for s in samples]
    out.update({
        "service.hit_frac": notes["stats.cache_hits"] / requests,
        "service.coalesced_frac": notes["stats.coalesced"] / requests,
        "service.retries": notes["stats.retries"],
        "service.worker_restarts": notes["stats.worker_restarts"],
        "service.gen_late_p99_ms": percentile(late, 0.99) * 1e3,
        "trace.coverage": request_coverage(spans, samples),
    })
    return out


def request_coverage(spans: list[dict[str, Any]],
                     samples: list[Sample]) -> float:
    """Share of summed stream latency inside a named stage: generator
    lateness plus ``submit`` for every request, then the queue wait and
    batch a first-time request created."""
    submits = {s["key"]: s for s in spans if s["name"] == "service.submit"}
    batches = {s["key"]: s for s in spans if s["name"] == "service.batch"}
    covered = total = 0.0
    for sample in samples:
        total += latency(sample)
        submit = submits.get(sample.request.id)
        if submit is None:
            continue
        covered += submit["end"] - sample.due
        batch = batches.get(sample.request.id)
        if batch is not None:
            covered += min(sample.done, batch["end"]) - submit["end"]
    return covered / total if total else 0.0


# ------------------------------------------------------------ dispatch

WORKLOADS = ("paper", "faults", "lint", "service")


def run(name: str, seed: int, seconds: float, trace: bool, ctx: Context,
        ) -> Result:
    if name == "service":
        return (trace_service if trace else run_service)(seed, seconds, ctx)
    return (trace_batch if trace else run_batch)(name, seed, seconds, ctx)
