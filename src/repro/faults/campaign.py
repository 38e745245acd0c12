"""Seeded fault-injection campaigns over the benchmark x target grid.

A :class:`FaultCampaign` plans every fault up front from a master seed
(per-cell PRNG streams, so planning is independent of execution order),
fans the (benchmark, target) cells out over a process pool exactly
like the experiment Lab, and aggregates the classified outcomes into a
versioned, byte-deterministic JSON report: the same seed and grid
produce the identical report for ``jobs=1`` and ``jobs=N``.

The campaign itself is fail-soft.  A cell whose *golden* run fails
(e.g. a hung benchmark caught by the watchdog) is recorded as a typed
error cell; a worker that dies is retried once and then recorded; and
individual faulty runs can never abort a cell — every simulator
escape is folded into the outcome taxonomy (``crash`` at worst).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..bench import get_benchmark
from ..cc import get_target
from ..experiments.runner import MAIN_TARGETS, Lab, RunError, fan_out
from ..labcache import resolve_cache
from ..machine import DEFAULT_FUEL
from .inject import FunctionMap, run_cache_fault, run_fault
from .model import (DEFAULT_KINDS, OUTCOMES, SCHEMA_VERSION, FaultResult,
                    FaultSpec, GoldenRun)

if TYPE_CHECKING:
    from ..analysis.vuln import SiteVerdict
    from ..asm.objfile import Executable


def plan_cell(bench: str, target: str, golden: GoldenRun,
              exe: "Executable", *, faults: int, seed: int,
              kinds: tuple[str, ...] = DEFAULT_KINDS) -> list[FaultSpec]:
    """Deterministically derive one cell's fault list.

    The PRNG stream is keyed by ``(seed, bench, target)`` only — not by
    execution order, worker identity, or wall clock — which is what
    makes campaign reports byte-identical across ``jobs`` settings.
    """
    rng = random.Random(f"{seed}/{bench}/{target}")
    width_bits = 16 if exe.isa_name == "D16" else 32
    data_len = max(4, len(exe.data))
    specs: list[FaultSpec] = []
    for index in range(faults):
        kind = rng.choice(kinds)
        # Trigger inside the golden path (never at 0: the fault must
        # perturb a *running* program, and never at the very end).
        trigger = rng.randrange(1, max(2, golden.instructions))
        spec = FaultSpec(index=index, bench=bench, target=target,
                         kind=kind, trigger=trigger)
        if kind == "ifetch":
            spec = FaultSpec(**{**spec.__dict__,
                                "bit": rng.randrange(width_bits)})
        elif kind == "reg":
            spec = FaultSpec(**{**spec.__dict__,
                                "reg": rng.randrange(32),
                                "bit": rng.randrange(32)})
        elif kind == "mem":
            spec = FaultSpec(**{**spec.__dict__,
                                "addr": exe.data_base
                                + rng.randrange(data_len),
                                "bit": rng.randrange(8)})
        elif kind == "trap":
            spec = FaultSpec(**{**spec.__dict__,
                                "mode": rng.choice(("getc-eof",
                                                    "sbrk-exhaust"))})
        elif kind == "cache":
            spec = FaultSpec(**{**spec.__dict__,
                                "line": rng.randrange(256),
                                "bit": rng.randrange(32)})
        specs.append(spec)
    return specs


@dataclass
class CellReport:
    """Classified results for one (benchmark, target) cell."""

    bench: str
    target: str
    golden: GoldenRun | None
    results: list[FaultResult] = field(default_factory=list)
    error: str = ""                   # golden run failed (cell skipped)
    #: Injections skipped because the static analysis proved them
    #: masked (``--prune-masked``); their results are still recorded
    #: (outcome ``masked``), so outcome counts match an unpruned run.
    pruned: int = 0
    #: Why the masking oracle could not be built ("Type: message"), in
    #: which case every site of the cell was executed.
    prune_error: str = ""

    def outcome_counts(self) -> dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for result in self.results:
            counts[result.outcome] += 1
        return counts

    def to_dict(self) -> dict[str, object]:
        if self.error:
            return {"bench": self.bench, "target": self.target,
                    "error": self.error}
        counts = self.outcome_counts()
        total = len(self.results)
        failures = total - counts["masked"]
        latencies = [r.latency_cycles for r in self.results
                     if r.latency_cycles is not None]
        functions: dict[str, dict[str, int]] = {}
        for result in self.results:
            if not result.function:
                continue
            per = functions.setdefault(
                result.function, {outcome: 0 for outcome in OUTCOMES})
            per[result.outcome] += 1
        cell: dict[str, object] = {
            "bench": self.bench,
            "target": self.target,
            "golden": {"instructions": self.golden.instructions,
                       "interlocks": self.golden.interlocks,
                       "exit_code": self.golden.exit_code},
            "faults": [r.to_dict() for r in self.results],
            "outcomes": counts,
            "sdc_rate": round(counts["sdc"] / total, 6) if total else 0.0,
            "detected_rate": (round(counts["detected"] / total, 6)
                              if total else 0.0),
            "mean_detection_latency_cycles": (
                round(sum(latencies) / len(latencies), 3)
                if latencies else None),
            # Expected random flips until the first non-masked outcome
            # (geometric estimate from this sample).
            "flips_to_failure": (round(total / failures, 3)
                                 if failures else None),
            "functions": dict(sorted(functions.items())),
            "pruned": self.pruned,
        }
        if self.prune_error:
            cell["prune_error"] = self.prune_error
        return cell


@dataclass
class FaultCampaign:
    """A seeded fault grid: benchmarks x targets x faults-per-cell."""

    benchmarks: tuple[str, ...]
    targets: tuple[str, ...] = MAIN_TARGETS
    faults: int = 20
    seed: int = 1
    kinds: tuple[str, ...] = DEFAULT_KINDS
    #: Map injection sites to functions via the xisa summaries
    #: (adds one static analysis per cell).
    attribute_functions: bool = True
    #: Skip injections the static vulnerability analysis proves masked
    #: (:mod:`repro.analysis.vuln`).  Pruned sites are recorded with
    #: outcome ``masked`` and a ``pruned:`` detail, so outcome counts
    #: are identical to an unpruned run — only the simulations saved.
    prune_masked: bool = False
    max_instructions: int = DEFAULT_FUEL
    cache: object = None              # Lab cache selector

    def run(self, jobs: int = 1) -> dict[str, object]:
        """Execute the campaign; returns the versioned report dict."""
        cells = [(bench, target) for bench in self.benchmarks
                 for target in self.targets]
        for bench, target in cells:   # validate before any work
            get_benchmark(bench)
            get_target(target)
        config: dict[str, Any] = {
            "faults": self.faults, "seed": self.seed,
            "kinds": tuple(self.kinds),
            "attribute": self.attribute_functions,
            "prune_masked": self.prune_masked,
            "max_instructions": self.max_instructions,
            "cache": resolve_cache(self.cache)}
        jobs = max(1, int(jobs))
        if jobs > 1 and len(cells) > 1:
            results = fan_out(_campaign_cell, cells, jobs, config)
        else:
            results = {cell: _campaign_cell(*cell, config)
                       for cell in cells}
        reports: dict[tuple[str, str], CellReport] = {}
        for (bench, target), result in results.items():
            if isinstance(result, RunError):
                result = CellReport(bench=bench, target=target,
                                    golden=None, error=result.message)
            reports[bench, target] = result
        return self._report(reports)

    # ------------------------------------------------------- internals

    def _report(self, reports: dict[tuple[str, str], CellReport],
                ) -> dict[str, object]:
        cells = [reports[cell].to_dict()
                 for cell in sorted(reports)]
        by_target: dict[str, dict[str, object]] = {}
        for target in self.targets:
            totals = {outcome: 0 for outcome in OUTCOMES}
            faults = 0
            for cell in cells:
                if cell["target"] != target or "error" in cell:
                    continue
                for outcome, count in cell["outcomes"].items():
                    totals[outcome] += count
                faults += sum(cell["outcomes"].values())
            failures = faults - totals["masked"]
            by_target[target] = {
                "faults": faults,
                "outcomes": totals,
                "sdc_rate": (round(totals["sdc"] / faults, 6)
                             if faults else 0.0),
                "detected_rate": (round(totals["detected"] / faults, 6)
                                  if faults else 0.0),
                "flips_to_failure": (round(faults / failures, 3)
                                     if failures else None),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "fault-campaign",
            "seed": self.seed,
            "faults_per_cell": self.faults,
            "fault_kinds": list(self.kinds),
            "benchmarks": list(self.benchmarks),
            "targets": list(self.targets),
            "cells": cells,
            "summary": by_target,
        }


def render_report(report: dict[str, object]) -> str:
    """Serialize a campaign report (byte-deterministic)."""
    return json.dumps(report, indent=2, sort_keys=True)


def _campaign_cell(bench_name: str, target: str, config: dict[str, Any],
                   ) -> CellReport:
    """Plan and execute every fault of one cell (any process)."""
    lab = Lab(cache=config["cache"],
              max_instructions=config["max_instructions"])
    bench = get_benchmark(bench_name)
    # The masking oracle and cache faults replay the golden path's
    # address trace; a cell that needs it takes the traced run as its
    # golden run instead of simulating the same path twice.
    prune = bool(config.get("prune_masked"))
    itrace = None
    try:
        if prune or "cache" in config["kinds"]:
            trace = lab.trace(bench_name, target)
            itrace = trace.itrace
            golden_run = trace.run
        else:
            golden_run = lab.run(bench_name, target)
        exe = lab.executable(bench_name, target)
    except Exception as exc:  # noqa: BLE001 - golden run is untrusted
        return CellReport(bench=bench_name, target=target, golden=None,
                          error=f"golden run failed: "
                                f"{type(exc).__name__}: {exc}")
    stats = golden_run.stats
    golden = GoldenRun(instructions=stats.instructions,
                       interlocks=stats.interlocks,
                       exit_code=stats.exit_code, output=stats.output)
    specs = plan_cell(bench_name, target, golden, exe,
                      faults=config["faults"], seed=config["seed"],
                      kinds=config["kinds"])

    functions = None
    if config["attribute"] and any(s.kind != "cache" for s in specs):
        try:
            functions = FunctionMap.for_source(bench.source, target)
        except Exception:  # noqa: BLE001 - attribution is best-effort
            functions = None
    # Static masking verdicts gate execution under --prune-masked; the
    # oracle is an optimization, so an analysis failure disables
    # pruning for the cell, and the report says why.
    report = CellReport(bench=bench_name, target=target, golden=golden)
    verdicts: dict[int, "SiteVerdict"] = {}
    if prune:
        try:
            from ..analysis.vuln import build_oracle
            from ..cc.target import TARGETS

            oracle = build_oracle(exe, TARGETS[target], itrace)
            verdicts = {spec.index: oracle.classify(spec)
                        for spec in specs}
        except Exception as exc:  # noqa: BLE001 - pruning is best-effort
            report.prune_error = f"{type(exc).__name__}: {exc}"

    for spec in specs:
        verdict = verdicts.get(spec.index)
        if verdict is not None and verdict.masked:
            pc = verdict.pc
            function = functions.function_at(pc) \
                if functions is not None and pc is not None else ""
            report.results.append(FaultResult(
                spec=spec, outcome="masked", function=function,
                detail=f"pruned: {verdict.reason}"))
            report.pruned += 1
            continue
        if spec.kind == "cache":
            report.results.append(run_cache_fault(itrace, spec))
        else:
            report.results.append(
                run_fault(exe, spec, golden, params=lab.params,
                          functions=functions))
    return report
