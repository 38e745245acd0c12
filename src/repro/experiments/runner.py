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

The grid is *fail-soft*: bounded retry when a worker process dies, the
simulator's instruction fuel against hangs, and a partial-results mode
(``runs(..., partial=True)``) where a failed cell yields a typed
:class:`RunError` record instead of aborting the whole sweep --
required by adversarial workloads (fault-injection campaigns) where
individual cells are *expected* to hang or crash.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..bench import SUITE, Benchmark, check_output, get_benchmark
from ..cc import build_executable, get_target
from ..labcache import (ArtifactCache, params_fingerprint, resolve_cache,
                        source_fingerprint, target_fingerprint)
from ..machine import DEFAULT_FUEL, RunStats, run_executable
from ..machine.pipeline import PipelineParams

#: The paper's five compiler configurations (Table 5-7 columns).
PAPER_TARGETS = ("d16", "dlxe/16/2", "dlxe/16/3", "dlxe/32/2", "dlxe")

#: Shorthand: the two headline machines.
MAIN_TARGETS = ("d16", "dlxe")

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
    """Typed record for a grid cell that failed to produce a run.

    Returned in place of a :class:`ProgramRun` when ``runs(...,
    partial=True)``; ``kind`` is one of ``"error"`` (deterministic
    failure: lint, miscompare, simulator fault, watchdog timeout) or
    ``"worker-lost"`` (the worker process died and retries were
    exhausted).
    """

    bench: str
    target: str
    kind: str
    message: str
    attempts: int = 1
    backoff_total_s: float = 0.0
    breaker_open: bool = False

    @property
    def ok(self) -> bool:
        return False

    def to_dict(self) -> dict:
        """JSON-ready record for partial-grid reports."""
        return {"bench": self.bench, "target": self.target,
                "ok": False, "kind": self.kind,
                "message": self.message, "attempts": self.attempts,
                "backoff_total_s": round(self.backoff_total_s, 6),
                "breaker_open": self.breaker_open}

    def __str__(self) -> str:
        extra = ""
        if self.backoff_total_s:
            extra = f" (+{self.backoff_total_s:.2f}s backoff)"
        if self.breaker_open:
            extra += " [breaker open]"
        return (f"{self.bench}/{self.target}: {self.kind} after "
                f"{self.attempts} attempt(s){extra}: {self.message}")


class ExperimentError(Exception):
    pass


class Lab:
    """Compiles, runs, and caches benchmark executions.

    ``cache`` selects the persistent artifact cache: ``None`` uses the
    environment default (``.repro-cache/``, honouring ``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``), ``False`` disables persistence, and an
    :class:`~repro.labcache.ArtifactCache` (or a path) uses that store.
    ``jobs`` is the default process fan-out for :meth:`runs`.
    ``preflight_lint`` runs the static-analysis suite (``repro lint``)
    over each (benchmark, target) cell before compiling it and raises
    :class:`ExperimentError` on lint errors — an opt-in guard for
    experiment campaigns whose numbers would silently absorb a
    miscompile.

    Fail-soft knob: ``max_instructions`` is the simulator watchdog
    fuel per run (a hung benchmark raises
    :class:`~repro.machine.MachineTimeout` instead of spinning on the
    2-billion default).
    """

    def __init__(self, *, params: PipelineParams | None = None,
                 cache=None, jobs: int = 1,
                 preflight_lint: bool = False,
                 max_instructions: int = DEFAULT_FUEL):
        self.params = params or PipelineParams()
        self.cache: ArtifactCache = resolve_cache(cache)
        self.jobs = max(1, int(jobs))
        self.preflight_lint = preflight_lint
        self.max_instructions = max_instructions
        self._linted: set[tuple[str, str]] = set()
        self._runs: dict[tuple[str, str], ProgramRun] = {}
        self._traces: dict[tuple[str, str], TraceRun] = {}
        self._executables: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------- keys

    def _cell_material(self, bench: Benchmark, target_name: str) -> dict:
        return {
            "bench": bench.name,
            "source": source_fingerprint(bench.source),
            "target": target_fingerprint(get_target(target_name)),
            "opt_level": 2,
            "runtime": True,
        }

    def _exe_key(self, bench: Benchmark, target_name: str) -> str:
        return self.cache.make_key("exe",
                                   self._cell_material(bench, target_name))

    def _run_material(self, bench: Benchmark, target_name: str) -> dict:
        material = self._cell_material(bench, target_name)
        material["params"] = params_fingerprint(self.params)
        return material

    def _run_key(self, bench: Benchmark, target_name: str) -> str:
        return self.cache.make_key("run",
                                   self._run_material(bench, target_name))

    def _trace_key(self, bench: Benchmark, target_name: str) -> str:
        return self.cache.make_key("trace",
                                   self._run_material(bench, target_name))

    # ------------------------------------------------------------ access

    def _preflight(self, bench: Benchmark, target_name: str) -> None:
        key = (bench.name, target_name)
        if not self.preflight_lint or key in self._linted:
            return
        from ..analysis import has_errors, lint_program, render_text

        findings = lint_program(bench.source, get_target(target_name))
        if has_errors(findings):
            raise ExperimentError(
                f"{bench.name} on {target_name} failed pre-flight "
                f"lint:\n{render_text(findings)}")
        self._linted.add(key)

    def executable(self, bench_name: str, target_name: str):
        key = (bench_name, target_name)
        if key not in self._executables:
            bench = get_benchmark(bench_name)
            get_target(target_name)          # validate early
            self._preflight(bench, target_name)
            cache_key = self._exe_key(bench, target_name)
            exe = self.cache.get(cache_key)
            if exe is None:
                result = build_executable(bench.source,
                                          get_target(target_name))
                exe = result.executable
                self.cache.put(cache_key, exe)
            self._executables[key] = exe
        return self._executables[key]

    def _check(self, bench: Benchmark, target_name: str,
               stats: RunStats) -> None:
        if not check_output(bench, stats.output):
            raise ExperimentError(
                f"{bench.name} on {target_name} produced unexpected "
                f"output: {stats.output!r}")

    def run(self, bench_name: str, target_name: str) -> ProgramRun:
        """Compile and execute (memoized in-process and on disk)."""
        key = (bench_name, target_name)
        if key in self._runs:
            return self._runs[key]
        bench = get_benchmark(bench_name)
        get_target(target_name)              # validate early
        cache_key = self._run_key(bench, target_name)
        payload = self.cache.get(cache_key)
        if payload is None:
            exe = self.executable(bench_name, target_name)
            stats, _machine = run_executable(
                exe, params=self.params,
                max_instructions=self.max_instructions)
            self._check(bench, target_name, stats)
            payload = {"stats": stats, "binary_size": exe.binary_size,
                       "text_size": exe.text_size}
            self.cache.put(cache_key, payload)
        else:
            self._check(bench, target_name, payload["stats"])
        run = ProgramRun(bench=bench, target_name=target_name,
                         stats=payload["stats"],
                         binary_size=payload["binary_size"],
                         text_size=payload["text_size"])
        self._runs[key] = run
        return run

    def validate_icache(self, programs=None,
                        targets: tuple[str, ...] = MAIN_TARGETS, *,
                        sizes=None, block: int = 32, sub_block: int = 8,
                        penalty: int = 8) -> dict:
        """Soundness sweep of the static I-cache analysis.

        Runs the must/may/persistence classification for every
        (program, target) cell across the cache-size grid and replays
        each cell's instruction trace as the oracle; raises
        :class:`ExperimentError` when any always-hit fetch misses in
        simulation, a simulated miss count exceeds its finite static
        bound, or the analysis model diverges from the simulated cache
        (CACHE001/002/004/005 errors).  Returns a summary dict for
        reports and CI assertions.
        """
        from ..analysis import icache_suite, render_text
        from ..analysis.findings import Severity

        reports, results = icache_suite(
            targets, programs, lab=self, sizes=sizes, block=block,
            sub_block=sub_block, penalty=penalty)
        errors = [f for r in reports for f in r.findings
                  if f.severity == Severity.ERROR]
        contradictions = sum(v.contradictions
                             for cell in results.values()
                             for _a, v in cell)
        if errors or contradictions:
            raise ExperimentError(
                f"static I-cache analysis is unsound "
                f"({contradictions} always-hit contradictions):\n"
                f"{render_text(errors)}")
        records = [v for cell in results.values() for _a, v in cell]
        return {
            "cells": len(results),
            "records": len(records),
            "finite_bounds": sum(1 for v in records
                                 if v.miss_ub is not None),
            "contradictions": contradictions,
            "unattributed": sum(v.unattributed for v in records),
            "penalty": penalty,
        }

    def validate_equiv(self, programs=None,
                       targets: tuple[str, ...] = MAIN_TARGETS, *,
                       opt_level: int = 2) -> dict:
        """Translation-validation sweep over the benchmark suite.

        Proves every optimizer pass application equivalent (or records
        an explicit unknown) and matches each binary's observable-effect
        summaries against its IR on every target; raises
        :class:`ExperimentError` on any *proven* divergence (EQ002 or
        EQ004 — the checker never errors on mere incompleteness).
        Returns the aggregate verdict counts for reports and CI locks.
        """
        from ..analysis import render_text, tv_suite
        from ..analysis.findings import Severity

        reports, results = tv_suite(programs, targets=targets,
                                    opt_level=opt_level)
        errors = [f for r in reports for f in r.findings
                  if f.severity == Severity.ERROR]
        if errors:
            raise ExperimentError(
                f"translation validation found proven divergences:\n"
                f"{render_text(errors)}")
        passes = {"proven": 0, "unknown": 0, "divergent": 0}
        binary = {"proven": 0, "unknown": 0, "divergent": 0}
        for tv in results.values():
            for verdict, n in tv.pass_counts().items():
                passes[verdict] += n
            for verdict, n in tv.binary_counts().items():
                binary[verdict] += n
        return {"cells": len(results), "passes": passes,
                "binary": binary}

    def validate_vuln(self, programs=None,
                      targets: tuple[str, ...] = MAIN_TARGETS, *,
                      faults: int = 20, seed: int = 42) -> dict:
        """Soundness sweep of the static fault-vulnerability analysis.

        Statically classifies exactly the fault sites a seeded campaign
        would inject, then executes every one of those sites for real
        and cross-checks: a site the analysis proved masked must be
        observed masked.  Raises :class:`ExperimentError` on any
        VULN001 contradiction (locked to zero in CI).  Returns the
        aggregate site/proven counts for reports and CI assertions.
        """
        from ..analysis import check_soundness, render_text, vuln_suite
        from ..faults.campaign import plan_cell
        from ..faults.inject import run_cache_fault, run_fault
        from ..faults.model import GoldenRun

        _reports, results = vuln_suite(targets, programs, lab=self,
                                       faults=faults, seed=seed)
        contradictions = []
        sites = proven = 0
        by_kind: dict[str, dict[str, int]] = {}
        for (bench_name, target_name), (cell, _waived) \
                in sorted(results.items()):
            run = self.run(bench_name, target_name)
            golden = GoldenRun(instructions=run.stats.instructions,
                               interlocks=run.stats.interlocks,
                               exit_code=run.stats.exit_code,
                               output=run.stats.output)
            exe = self.executable(bench_name, target_name)
            specs = plan_cell(bench_name, target_name, golden, exe,
                              faults=faults, seed=seed)
            itrace = None
            executed = []
            for spec in specs:
                if spec.kind == "cache":
                    if itrace is None:
                        itrace = self.trace(bench_name,
                                            target_name).itrace
                    executed.append(run_cache_fault(itrace, spec))
                else:
                    executed.append(run_fault(exe, spec, golden,
                                              params=self.params))
            contradictions += check_soundness(cell, executed)
            sites += len(cell.verdicts)
            proven += cell.proven_masked
            for kind, counts in cell.by_kind().items():
                agg = by_kind.setdefault(kind, {"sites": 0, "masked": 0})
                agg["sites"] += counts["sites"]
                agg["masked"] += counts["masked"]
        if contradictions:
            raise ExperimentError(
                f"static fault-vulnerability analysis is unsound "
                f"({len(contradictions)} proven-masked contradictions):"
                f"\n{render_text(contradictions)}")
        return {"cells": len(results), "sites": sites, "proven": proven,
                "contradictions": 0,
                "by_kind": dict(sorted(by_kind.items()))}

    def check_consistency(self, bench_name: str,
                          targets: tuple[str, str] = MAIN_TARGETS):
        """Cross-ISA consistency check for one benchmark's source.

        Returns the :class:`~repro.analysis.xisa.CrossIsaReport`;
        raises :class:`ExperimentError` when the two compiled images
        provably disagree (XISA findings are always errors).
        """
        from ..analysis import check_cross_isa, render_text

        bench = get_benchmark(bench_name)
        report = check_cross_isa(bench.source, targets)
        if not report.ok:
            raise ExperimentError(
                f"{bench_name} is inconsistent across "
                f"{'/'.join(targets)}:\n{render_text(report.findings)}")
        return report

    def trace(self, bench_name: str, target_name: str) -> TraceRun:
        """Execute with address tracing (memoized; memory-heavy)."""
        key = (bench_name, target_name)
        if key in self._traces:
            return self._traces[key]
        bench = get_benchmark(bench_name)
        cache_key = self._trace_key(bench, target_name)
        payload = self.cache.get(cache_key)
        if payload is None:
            exe = self.executable(bench_name, target_name)
            stats, machine = run_executable(
                exe, params=self.params,
                trace_instructions=True, trace_data=True,
                max_instructions=self.max_instructions)
            self._check(bench, target_name, stats)
            itrace, dtrace = machine.itrace, machine.dtrace
            self.cache.put(cache_key, {
                "stats": stats, "binary_size": exe.binary_size,
                "text_size": exe.text_size,
                "itrace": itrace.tobytes(), "dtrace": dtrace.tobytes()})
        else:
            self._check(bench, target_name, payload["stats"])
            stats = payload["stats"]
            itrace = array("I")
            itrace.frombytes(payload["itrace"])
            dtrace = array("I")
            dtrace.frombytes(payload["dtrace"])
            exe = None
        run = ProgramRun(
            bench=bench, target_name=target_name, stats=stats,
            binary_size=(exe.binary_size if exe is not None
                         else payload["binary_size"]),
            text_size=(exe.text_size if exe is not None
                       else payload["text_size"]))
        trace = TraceRun(run=run, itrace=itrace, dtrace=dtrace)
        self._traces[key] = trace
        return trace

    def runs(self, programs: Iterable[str] | None = None,
             targets: Iterable[str] = MAIN_TARGETS,
             jobs: int | None = None,
             partial: bool = False,
             ) -> dict[str, dict[str, ProgramRun | RunError]]:
        """Run a program x target grid; returns runs[program][target].

        With ``jobs > 1`` the missing cells are fanned out over a
        process pool; results are assembled in grid order, so the
        returned structure is identical to a sequential run.

        With ``partial=True`` a failing cell does not abort the sweep:
        its grid slot holds a typed :class:`RunError` (kind ``error`` /
        ``worker-lost``) and every other cell still completes.  The
        default (``partial=False``) keeps the historic
        raise-on-first-failure contract.
        """
        names = list(programs) if programs is not None \
            else [bench.name for bench in SUITE]
        targets = tuple(targets)
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        pending = [(name, target) for name in names for target in targets
                   if (name, target) not in self._runs]
        done: dict[tuple[str, str], Any] = {}
        if jobs > 1 and len(pending) > 1:
            for name, target in pending:       # validate before forking
                get_benchmark(name)
                get_target(target)
            settings = {"params": self.params, "cache": self.cache,
                        "preflight_lint": self.preflight_lint,
                        "max_instructions": self.max_instructions}
            done = fan_out(_grid_cell_worker, pending, jobs, settings)
        grid: dict[str, dict[str, ProgramRun | RunError]] = {}
        for name in names:
            row: dict[str, ProgramRun | RunError] = {}
            for target in targets:
                result = done.get((name, target))
                if isinstance(result, RunError):
                    if not partial:     # the first failure in grid order
                        raise ExperimentError(str(result))
                    row[target] = result
                    continue
                if result is not None:
                    stats, binary_size, text_size = result
                    self._runs[name, target] = ProgramRun(
                        bench=get_benchmark(name), target_name=target,
                        stats=stats, binary_size=binary_size,
                        text_size=text_size)
                try:
                    row[target] = self.run(name, target)
                except Exception as exc:  # noqa: BLE001 - fail-soft
                    if not partial:
                        raise
                    row[target] = RunError(
                        bench=name, target=target, kind="error",
                        message=f"{type(exc).__name__}: {exc}")
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
                        message=message, attempts=attempts[cell],
                        backoff_total_s=RETRY_DELAY_S
                        * (attempts[cell] - 1))

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


def grid_records(grid: dict[str, dict[str, ProgramRun | RunError]],
                 ) -> list[dict]:
    """Flatten a (possibly partial) grid into JSON-ready records.

    Successful cells carry their headline statistics; failed cells
    carry the full :class:`RunError` diagnostics (kind, message,
    attempts, accumulated backoff, breaker state), so a degraded sweep
    is diagnosable from the JSON report alone.
    """
    records: list[dict] = []
    for bench_name in sorted(grid):
        row = grid[bench_name]
        for target_name in row:
            cell = row[target_name]
            if isinstance(cell, RunError):
                records.append(cell.to_dict())
                continue
            stats = cell.stats
            records.append({
                "bench": bench_name, "target": target_name, "ok": True,
                "instructions": stats.instructions,
                "interlocks": stats.interlocks,
                "ifetch_words": stats.ifetch_words,
                "exit_code": stats.exit_code,
                "binary_size": cell.binary_size,
                "text_size": cell.text_size})
    return records


def geomean(values: Iterable[float]) -> float:
    """Geometric mean via log-sum, stable for long value lists.

    A raw product over/underflows doubles after a few hundred ratios;
    ``exp(mean(log x))`` stays in range.  Zeros propagate to 0.0 (the
    limit of the product form); negatives are rejected.
    """
    values = list(values)
    if not values:
        return 0.0
    if any(value < 0 for value in values):
        raise ValueError("geomean of negative values is undefined")
    if any(value == 0 for value in values):
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def default_programs(fast: bool = False) -> list[str]:
    """Benchmark subset: everything, or a quick representative set."""
    if fast:
        return ["ackermann", "queens", "dhrystone", "solver"]
    return [bench.name for bench in SUITE]
