"""Shared infrastructure for the paper's experiments.

:class:`Lab` compiles and runs (benchmark, target) pairs once and
memoizes the results, since most experiments slice the same underlying
measurements different ways.  Memoization is two-level: an in-process
dict, backed by the persistent content-addressed artifact cache of
:mod:`repro.labcache` so a *second process* (another pytest run, an
example script) skips compilation and execution entirely.

Grid execution fans out over a process pool when ``jobs > 1``; each
worker compiles and runs one (benchmark, target) cell, publishes the
artifacts into the shared on-disk cache, and returns picklable results
that the parent assembles in deterministic grid order -- parallel
output is byte-identical to sequential output.

:func:`fan_out` is the one fail-soft path, shared by the grid and the
fault campaigns: a cell that raises, or whose worker process dies
after a bounded retry, comes back as a typed :class:`RunError` while
every other cell completes; the simulator's instruction fuel bounds a
hang.  :meth:`Lab.runs` raises the first such error in grid order, and
a fault campaign records it as an error cell.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Literal,
                    Sequence, TypeVar)

from ..bench import Benchmark, check_output, get_benchmark, program_names
from ..cc import build_executable, get_target
from ..cc.target import MAIN_TARGETS
from ..labcache import (ArtifactCache, default_cache, params_fingerprint,
                        source_fingerprint, target_fingerprint)
from ..machine import RunStats, Snapshot, run_executable
from ..machine.pipeline import PipelineParams

if TYPE_CHECKING:
    from ..analysis.absint import AnalysisResult

#: The paper's five compiler configurations (Table 5-7 columns).
PAPER_TARGETS = ("d16", "dlxe/16/2", "dlxe/16/3", "dlxe/32/2", "dlxe")

#: How many times :func:`fan_out` resubmits a cell whose worker process
#: died (an exception raised inside a cell is never retried).
RETRIES = 1

#: Seconds :func:`fan_out` sleeps before each round of resubmissions.
RETRY_DELAY_S = 0.1

_R = TypeVar("_R")


@dataclass
class ProgramRun:
    """One benchmark compiled and executed on one target."""

    bench: Benchmark
    target_name: str
    stats: RunStats
    binary_size: int
    text_size: int

    @property
    def path_length(self) -> int:
        return self.stats.instructions


@dataclass
class TraceRun:
    """A run with full instruction/data address traces captured."""

    run: ProgramRun
    itrace: object        # array('I') of instruction addresses
    dtrace: object        # array('I') of tagged data addresses


@dataclass
class RunError:
    """Typed record for a :func:`fan_out` cell that produced no result.

    ``kind`` is ``"error"`` (the cell raised: lint, miscompare,
    simulator fault, watchdog timeout) or ``"worker-lost"`` (the worker
    process died and retries were exhausted).
    """

    bench: str
    target: str
    kind: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return (f"{self.bench}/{self.target}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.message}")


class ExperimentError(Exception):
    pass


class Lab:
    """Compiles, runs, and caches benchmark executions.

    ``cache`` selects the persistent artifact cache: ``None`` uses the
    environment default (``.repro-cache/``, honouring ``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``), ``False`` disables persistence, and an
    :class:`~repro.labcache.ArtifactCache` uses that store.  ``jobs``
    is the process fan-out of :meth:`runs`.
    """

    def __init__(self, *, params: PipelineParams | None = None,
                 cache: ArtifactCache | Literal[False] | None = None,
                 jobs: int = 1):
        self.params = params or PipelineParams()
        if cache is None:
            cache = default_cache()
        elif cache is False:
            cache = ArtifactCache(enabled=False)
        self.cache: ArtifactCache = cache
        self.jobs = max(1, int(jobs))
        self._runs: dict[tuple[str, str], ProgramRun] = {}
        self._traces: dict[tuple[str, str], TraceRun] = {}
        self._executables: dict[tuple[str, str], object] = {}
        self._checkpoints: dict[tuple[str, str], list[Snapshot]] = {}
        self._images: dict[tuple[str, str], AnalysisResult] = {}

    # ------------------------------------------------------------- keys

    def _cell_material(self, bench: Benchmark, target_name: str) -> dict:
        return {
            "bench": bench.name,
            "source": source_fingerprint(bench.source),
            "target": target_fingerprint(get_target(target_name)),
            "opt_level": 2,
            "runtime": True,
        }

    # ------------------------------------------------------------ access

    def _key(self, kind: str, bench: Benchmark, target_name: str) -> str:
        """The artifact-cache key of one cell's ``kind`` artifact ("exe",
        "run", "trace" or "checkpoints"); all but the image depend on
        the pipeline too."""
        material = self._cell_material(bench, target_name)
        if kind != "exe":
            material["params"] = params_fingerprint(self.params)
        return self.cache.make_key(kind, material)

    def _cached(self, kind: str, bench: Benchmark, target_name: str) -> Any:
        """One cell's ``kind`` artifact from the artifact cache, or None.
        A cached run's output is checked here."""
        payload = self.cache.get(self._key(kind, bench, target_name))
        if payload is not None and kind in ("run", "trace"):
            self._check(bench, target_name, payload["stats"])
        return payload

    def _artifact(self, kind: str, bench: Benchmark, target_name: str,
                  build: Callable[[], Any]) -> Any:
        """One cell's ``kind`` artifact: read from the artifact cache, or
        built and stored.  ``build`` checks a fresh run's output before
        it is stored."""
        payload = self._cached(kind, bench, target_name)
        if payload is None:
            payload = build()
            self.cache.put(self._key(kind, bench, target_name), payload)
        return payload

    def _memoize(self, kind: str, bench: Benchmark, target_name: str,
                 payload: dict[str, Any]) -> None:
        """Hold a "run" or "trace" payload in the in-process memo."""
        run = ProgramRun(bench=bench, target_name=target_name,
                         stats=payload["stats"],
                         binary_size=payload["binary_size"],
                         text_size=payload["text_size"])
        if kind == "run":
            self._runs[bench.name, target_name] = run
        else:
            self._traces[bench.name, target_name] = TraceRun(
                run=run, itrace=payload["itrace"], dtrace=payload["dtrace"])

    def executable(self, bench_name: str, target_name: str):
        key = (bench_name, target_name)
        if key not in self._executables:
            bench = get_benchmark(bench_name)
            target = get_target(target_name)          # validate early
            self._executables[key] = self._artifact(
                "exe", bench, target_name,
                lambda: build_executable(bench.source, target).executable)
        return self._executables[key]

    def image(self, bench_name: str, target_name: str) -> AnalysisResult:
        """The cell's executable as
        :func:`~repro.analysis.absint.resolve_cfg` recovers it (memoized
        in-process), so the image analyses of one Lab recover each cell
        once."""
        key = (bench_name, target_name)
        if key not in self._images:
            from ..analysis.absint import resolve_cfg

            target = get_target(target_name)
            self._images[key] = resolve_cfg(
                self.executable(bench_name, target_name), target.isa,
                target=target)
        return self._images[key]

    def _check(self, bench: Benchmark, target_name: str,
               stats: RunStats) -> None:
        if not check_output(bench, stats.output):
            raise ExperimentError(
                f"{bench.name} on {target_name} produced unexpected "
                f"output: {stats.output!r}")

    def _simulate(self, bench: Benchmark, target_name: str, traced: bool,
                  checkpoints: list[Snapshot] | None = None,
                  ) -> dict[str, Any]:
        """Run one cell and check its output: the payload of a "run"
        (or, ``traced``, a "trace") artifact.  ``checkpoints`` collects
        the run's snapshots (see :func:`run_executable`)."""
        exe = self.executable(bench.name, target_name)
        stats, machine = run_executable(
            exe, params=self.params,
            trace_instructions=traced, trace_data=traced,
            checkpoints=checkpoints)
        self._check(bench, target_name, stats)
        payload = {"stats": stats, "binary_size": exe.binary_size,
                   "text_size": exe.text_size}
        if traced:
            payload["itrace"] = machine.itrace
            payload["dtrace"] = machine.dtrace
        return payload

    def run(self, bench_name: str, target_name: str) -> ProgramRun:
        """Compile and execute (memoized in-process and on disk)."""
        key = (bench_name, target_name)
        if key not in self._runs:
            bench = get_benchmark(bench_name)
            self._memoize("run", bench, target_name, self._artifact(
                "run", bench, target_name,
                lambda: self._simulate(bench, target_name, traced=False)))
        return self._runs[key]

    def trace(self, bench_name: str, target_name: str) -> TraceRun:
        """Execute with address tracing (memoized; memory-heavy)."""
        key = (bench_name, target_name)
        if key not in self._traces:
            bench = get_benchmark(bench_name)
            self._memoize("trace", bench, target_name, self._artifact(
                "trace", bench, target_name,
                lambda: self._simulate(bench, target_name, traced=True)))
        return self._traces[key]

    def checkpoints(self, bench_name: str, target_name: str, *,
                    traced: bool) -> list[Snapshot]:
        """Snapshots of the cell's golden run, one every
        :data:`~repro.machine.cpu.CHECKPOINT_EVERY` retired instructions
        (memoized in-process and on disk).

        A miss simulates the golden run once, pausing at each snapshot,
        and hands the run it simulated to the memo and the cache.  That
        run is traced when ``traced`` and the trace is neither memoized
        nor cached, and untraced otherwise.
        """
        key = (bench_name, target_name)
        if key not in self._checkpoints:
            bench = get_benchmark(bench_name)
            self._checkpoints[key] = self._artifact(
                "checkpoints", bench, target_name,
                lambda: self._golden_checkpoints(bench, target_name,
                                                 traced))
        return self._checkpoints[key]

    def _golden_checkpoints(self, bench: Benchmark, target_name: str,
                            traced: bool) -> list[Snapshot]:
        """Simulate the golden run that :meth:`checkpoints` stores."""
        key = (bench.name, target_name)
        if traced and key not in self._traces:
            cached = self._cached("trace", bench, target_name)
            if cached is not None:
                self._memoize("trace", bench, target_name, cached)
        kind = "trace" if traced and key not in self._traces else "run"
        snapshots: list[Snapshot] = []
        payload = self._simulate(bench, target_name, traced=kind == "trace",
                                 checkpoints=snapshots)
        self.cache.put(self._key(kind, bench, target_name), payload)
        self._memoize(kind, bench, target_name, payload)
        return snapshots

    def runs(self, programs: Iterable[str] | None = None,
             targets: Iterable[str] = MAIN_TARGETS,
             ) -> dict[str, dict[str, ProgramRun]]:
        """Run a program x target grid; returns runs[program][target].

        With ``jobs > 1`` the missing cells are fanned out over a
        process pool; results are assembled in grid order, so the
        returned structure is identical to a sequential run.  The first
        failing cell in grid order raises.
        """
        names = program_names(programs)
        targets = tuple(targets)
        pending = [(name, target) for name in names for target in targets
                   if (name, target) not in self._runs]
        done: dict[tuple[str, str], Any] = {}
        if self.jobs > 1 and len(pending) > 1:
            for name, target in pending:       # validate before forking
                get_benchmark(name)
                get_target(target)
            settings = {"params": self.params, "cache": self.cache}
            done = fan_out(_grid_cell_worker, pending, self.jobs, settings)
        grid: dict[str, dict[str, ProgramRun]] = {}
        for name in names:
            row: dict[str, ProgramRun] = {}
            for target in targets:
                result = done.get((name, target))
                if isinstance(result, RunError):
                    raise ExperimentError(str(result))
                if result is not None:
                    stats, binary_size, text_size = result
                    self._runs[name, target] = ProgramRun(
                        bench=get_benchmark(name), target_name=target,
                        stats=stats, binary_size=binary_size,
                        text_size=text_size)
                row[target] = self.run(name, target)
            grid[name] = row
        return grid


def _grid_cell_worker(bench_name: str, target_name: str,
                      settings: dict[str, Any],
                      ) -> tuple[RunStats, int, int]:
    """Run one (benchmark, target) cell in a worker process, on a lab
    built from the parent's ``settings`` (its constructor arguments)."""
    run = Lab(**settings).run(bench_name, target_name)
    return run.stats, run.binary_size, run.text_size


def fan_out(fn: Callable[..., _R], cells: Sequence[tuple[str, str]],
            jobs: int, *args: Any,
            ) -> dict[tuple[str, str], _R | RunError]:
    """Run ``fn(bench, target, *args)`` for every cell in forked workers.

    Results are collected in submission order.  An exception raised by
    ``fn`` becomes a :class:`RunError` of kind ``error``.  A worker
    that dies breaks the whole pool, so every cell it left without a
    result is retried alone, in a single-worker pool of its own, and
    only a cell whose own worker died :data:`RETRIES` + 1 times becomes
    ``worker-lost``.
    """
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    attempts = dict.fromkeys(cells, 0)
    results: dict[tuple[str, str], _R | RunError] = {}

    def failed(cell: tuple[str, str], kind: str, message: str) -> RunError:
        return RunError(bench=cell[0], target=cell[1], kind=kind,
                        message=message, attempts=attempts[cell])

    rounds = [list(cells)] if cells else []
    while rounds:
        lost: list[tuple[tuple[str, str], BrokenExecutor]] = []
        for batch in rounds:
            with ProcessPoolExecutor(max_workers=min(jobs, len(batch)),
                                     mp_context=fork) as pool:
                futures = {}
                for cell in batch:
                    attempts[cell] += 1
                    try:
                        futures[cell] = pool.submit(fn, *cell, *args)
                    except BrokenExecutor as exc:   # a sibling died
                        lost.append((cell, exc))
                for cell, future in futures.items():
                    try:
                        results[cell] = future.result()
                    except BrokenExecutor as exc:
                        lost.append((cell, exc))
                    except Exception as exc:  # noqa: BLE001 - fail-soft
                        results[cell] = failed(
                            cell, "error", f"{type(exc).__name__}: {exc}")
        rounds = []
        for cell, exc in lost:
            if attempts[cell] <= RETRIES:
                rounds.append([cell])
            else:
                results[cell] = failed(
                    cell, "worker-lost",
                    f"worker process died ({type(exc).__name__}), "
                    f"retries exhausted")
        if rounds:
            _time.sleep(RETRY_DELAY_S)
    return results


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def default_programs(fast: bool = False) -> list[str]:
    """Benchmark subset: everything, or a quick representative set."""
    if fast:
        return ["ackermann", "queens", "dhrystone", "solver"]
    return program_names(None)
