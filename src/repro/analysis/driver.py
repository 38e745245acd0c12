"""Lint orchestration: run every analysis layer over compiled programs.

:func:`lint_program` takes one minic source through the full pipeline —
IR verification between optimizer passes, assembly-level encoding
checks, binary-level lint, and abstract interpretation of the linked
image — and returns the accumulated findings.  :func:`lint_suite` fans
that out over benchmark programs and targets, producing one
:class:`LintReport` per cell; it runs the target-independent front end
(parse, lower, verified optimization) once per program and generates
code for each target from a clone of the optimized module.

The image modes behind ``repro lint --timing`` / ``--wcet`` /
``--icache`` / ``--density`` / ``--vuln`` read a linked image, not its
source: static cycle-bound cross-validation against the simulator,
whole-program [BCET, WCET] interval composition, static I-cache
classification, D16-compressibility estimation of DLXe images, and
liveness plus static fault classification.  Each mode has one
per-cell function (:func:`timing_cell`, :func:`wcet_cell`,
:func:`icache_cell`, :func:`density_cell`, :func:`vuln_cell`) that
takes the image :func:`~repro.analysis.absint.resolve_cfg` recovered.
Its ``*_suite`` loop recovers each
:class:`~repro.experiments.runner.Lab` image once per cell, and
``repro lint FILE`` recovers the file's one image once for every mode.
:func:`cross_isa_suite` and :func:`tv_suite` read source instead:
D16-vs-DLXe consistency checking, and per-pass + IR-vs-binary
translation validation.  ``repro lint --all`` runs every mode in one
invocation and merges the reports under the shared exit-code contract.

Exit-code semantics (:func:`exit_code`): ``0`` when every finding is a
warning or less, ``1`` when any error-severity finding exists, ``2``
when the analysis itself failed (unparsable source, internal crash) —
so CI can distinguish "the program is bad" from "the linter is broken".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..asm import AsmError, Assembler, link
from ..asm.objfile import text_labels
from ..bench import get_benchmark, program_names
from ..cc import TargetSpec, get_target
from ..cc.target import MAIN_TARGETS
from ..cc.codegen import generate_assembly
from ..cc.ir import Module
from ..cc.irgen import lower_program
from ..cc.opt import PassVerificationError, optimize_module
from ..cc.parser import parse
from ..cc.runtime import with_runtime
from ..machine.perf import DEFAULT_MISS_PENALTY
from ..machine.pipeline import PipelineParams
from ..machine.stats import RunStats
from .absint import AnalysisResult, analyze_executable
from .binlint import lint_assembly, lint_executable
from .cfg import build_cfg
from .density import ProgramDensity, analyze_density
from .findings import Finding, finding, has_errors, render_text
from .icache import (ICacheAnalysis, ICacheValidation, analyze_icache,
                     validate_icache)
from .irverify import verify_module
from .timing import TimingValidation, static_bounds, validate_run
from .wcet import (DEFAULT_SLACK, ProgramWcet, WcetValidation, analyze_wcet,
                   validate_wcet)
from .xisa import check_cross_isa

if TYPE_CHECKING:
    from ..experiments.runner import Lab
    from .vuln import CellVulnerability

#: Process exit codes for ``repro lint`` (locked by tests).
EXIT_OK = 0           # no findings, or warnings/info only
EXIT_ERRORS = 1       # at least one error-severity finding
EXIT_INTERNAL = 2     # the analysis itself failed


def exit_code(reports: Iterable[LintReport]) -> int:
    """Map lint reports to the process exit code (0/1 — never 2).

    ``EXIT_INTERNAL`` is reserved for exceptions escaping the analysis;
    callers (the CLI) translate those separately.
    """
    return EXIT_ERRORS if any(not r.ok for r in reports) else EXIT_OK


@dataclass
class LintReport:
    """All findings for one (program, target) cell."""

    program: str
    target: str
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)


def lint_program(source: str, target: TargetSpec | str, *,
                 opt_level: int = 2,
                 include_runtime: bool = True) -> list[Finding]:
    """Run all three lint layers over one program; returns findings.

    Layers run in dependency order and later layers are skipped once an
    earlier one reports errors (broken IR produces garbage assembly;
    unencodable assembly cannot be linked).
    """
    if isinstance(target, str):
        target = get_target(target)
    module, findings = _lint_front_end(source, opt_level, include_runtime)
    if module is None:
        return findings
    return findings + _lint_back_end(module, target, opt_level)


def _lint_front_end(source: str, opt_level: int, include_runtime: bool,
                    ) -> tuple[Module | None, list[Finding]]:
    """Parse, lower and optimize ``source`` under the IR verifier.

    Returns the optimized module and the IR findings, or ``None`` in
    place of the module when those findings hold errors.  Nothing here
    depends on the target, so a suite lints each source once.
    """
    module = lower_program(parse(with_runtime(source, include_runtime)))

    # Per-pass verification localizes errors to the offending pass;
    # the post-optimization sweep adds the warning-level rules (the
    # *initial* IR legitimately holds unreachable blocks that irgen
    # emits for simplify_cfg to collect — not worth reporting).
    try:
        optimize_module(module, level=opt_level, verify=True)
    except PassVerificationError as exc:
        return None, [finding(f.rule, f.location,
                              f"after pass '{exc.pass_name}': {f.message}")
                      for f in exc.findings]
    findings = verify_module(module)
    return (None if has_errors(findings) else module), findings


def _lint_back_end(module: Module, target: TargetSpec,
                   opt_level: int) -> list[Finding]:
    """Assembly, binary and abstract-interpretation lint of one target.

    Code generation rewrites ``module`` in place, so each target needs
    its own copy.
    """
    assembly = generate_assembly(module, target, opt_level=opt_level)
    findings = lint_assembly(assembly, target.isa)
    if has_errors(findings):
        return findings

    try:
        obj = Assembler(target.isa).assemble(assembly)
        exe = link([obj])
    except AsmError as exc:
        findings.append(finding(
            "ENC001", f"{target.isa.name}:line {exc.line_no}", str(exc)))
        return findings
    # The plain sweep over the object file's full label map: the binary
    # lint checks exactly what the labels make reachable.
    cfg = build_cfg(exe, target.isa, symbols=text_labels(obj, exe))
    findings.extend(lint_executable(cfg, target=target))
    findings.extend(analyze_executable(cfg, target=target).findings)
    return findings


def lint_suite(targets: Iterable[str] = MAIN_TARGETS,
               programs: Iterable[str] | None = None, *,
               opt_level: int = 2) -> list[LintReport]:
    """Lint benchmark programs on each target; one report per cell.

    Each program's front end runs once; every target generates code
    from its own clone of the optimized module.
    """
    names = program_names(programs)
    reports = []
    for name in names:
        module, front = _lint_front_end(get_benchmark(name).source,
                                        opt_level, include_runtime=True)
        for target_name in targets:
            findings = list(front)
            if module is not None:
                findings += _lint_back_end(
                    module.clone(), get_target(target_name), opt_level)
            reports.append(LintReport(program=name, target=target_name,
                                      findings=findings))
    return reports


# --------------------------------------------------------- image modes
#
# One function per mode checks one cell: an image recovered by
# :func:`~repro.analysis.absint.resolve_cfg`, or for --wcet and
# --icache its whole-program interval.  Each returns ``(result,
# findings)``.  A Lab image's symbol table keeps only globals, so its
# recovery resolves D16's pool-loaded calls by value-analysis feedback;
# ``repro lint FILE`` recovers its image from the object file's labels.


def timing_cell(image: AnalysisResult, stats: RunStats, *,
                params: PipelineParams | None = None,
                ) -> tuple[TimingValidation, list[Finding]]:
    """Validate one image's static cycle bounds against its run: the
    simulator's interlock total must land inside the CFG-aggregated
    per-block [lower, upper] stall bounds (TIM001 on violation, TIM002
    on a coverage gap)."""
    validation = validate_run(static_bounds(image.cfg, model=params), stats)
    return validation, validation.findings


def wcet_cell(program: ProgramWcet, stats: RunStats, *,
              slack: float | None = DEFAULT_SLACK,
              ) -> tuple[WcetValidation, list[Finding]]:
    """Bracket one run's cycle count with the whole-program static
    interval of :func:`~repro.analysis.wcet.analyze_wcet` (TIM003 when
    the simulated cycles escape the interval, LOOP001/TIM004/TIM005 for
    the soundness caveats)."""
    validation = validate_wcet(program, stats, slack=slack)
    return validation, validation.findings


def icache_cell(program: ProgramWcet, stats: RunStats,
                itrace: Sequence[int], *,
                sizes: Iterable[int] | None = None,
                penalty: int = DEFAULT_MISS_PENALTY,
                ) -> tuple[list[tuple[ICacheAnalysis, ICacheValidation]],
                           list[Finding]]:
    """Classify one image's fetches for each cache size and replay its
    trace as the soundness oracle: must/may/persistence classification,
    composed miss upper bounds, CACHE001-005.  Every cache has the
    figures' 32-byte blocks of 8-byte sub-blocks.  The result holds one
    ``(analysis, validation)`` pair per size.  Analysis findings repeat
    identically across sizes (boundability is a structural property),
    so the findings are deduplicated."""
    from ..cache.cache import CacheConfig
    from ..experiments.cacheperf import CACHE_SIZES, FIGURE_BLOCK, SUB_BLOCK

    pairs = []
    findings: list[Finding] = []
    seen: set[tuple[str, str, str]] = set()
    for size in CACHE_SIZES if sizes is None else sizes:
        analysis = analyze_icache(program, CacheConfig(
            size=size, block=FIGURE_BLOCK, sub_block=SUB_BLOCK))
        validation = validate_icache(analysis, itrace, stats,
                                     penalty=penalty)
        pairs.append((analysis, validation))
        for f in analysis.findings + validation.findings:
            key = (f.rule, f.location, f.message)
            if key not in seen:
                seen.add(key)
                findings.append(f)
    return pairs, findings


def density_cell(image: AnalysisResult,
                 ) -> tuple[ProgramDensity, list[Finding]]:
    """Estimate the D16 compressibility of one 32-bit image (DEN001)."""
    density = analyze_density(image.cfg)
    return density, density.findings


def vuln_cell(program: str, target_name: str, image: AnalysisResult,
              stats: RunStats, itrace: Sequence[int], *,
              faults: int, seed: int,
              ) -> tuple[tuple[CellVulnerability, list[tuple[str, str]]],
                         list[Finding]]:
    """Liveness lint plus static fault classification of one cell.

    Runs the backward liveness fixpoint (LIV001/LIV002 dead-code
    findings, ABI-convention sites waived), then statically classifies
    exactly the fault sites the seeded campaign would inject into
    ``program`` on ``target_name`` (same planner PRNG stream) and
    summarizes the register-file exposure (VULN002).  The result is
    ``(CellVulnerability, waived)``.
    """
    from .liveness import liveness_findings
    from .vuln import build_oracle, classify_cell, vuln_findings

    oracle = build_oracle(image, itrace)
    live_findings, waived = liveness_findings(oracle.liveness, image.target)
    cell = classify_cell(program, target_name, oracle, stats.instructions,
                         faults=faults, seed=seed)
    return (cell, waived), live_findings + vuln_findings(cell)


def _suite(targets: Iterable[str], programs: Iterable[str] | None,
           lab: Lab | None,
           check: Callable[[Lab, str, str, AnalysisResult],
                           tuple[Any, list[Finding]]],
           ) -> tuple[list[LintReport], dict]:
    """Run ``check(lab, program, target, image)`` on every cell.

    ``image`` is the cell's :meth:`~repro.experiments.runner.Lab.image`,
    which every suite run on one Lab shares.  Returns one report per
    cell and the results keyed by ``(program, target)``.  Images and
    runs come from ``lab`` (a fresh Lab when ``None``), so repeated
    invocations ride its persistent artifact cache and skip simulation.
    """
    from ..experiments.runner import Lab

    lab = lab or Lab()
    names = program_names(programs)
    targets = tuple(targets)
    reports: list[LintReport] = []
    results: dict[tuple[str, str], Any] = {}
    for name in names:
        for target_name in targets:
            result, findings = check(lab, name, target_name,
                                     lab.image(name, target_name))
            results[(name, target_name)] = result
            reports.append(LintReport(program=name, target=target_name,
                                      findings=findings))
    return reports, results


def timing_suite(targets: Iterable[str] = MAIN_TARGETS,
                 programs: Iterable[str] | None = None, *,
                 lab: Lab | None = None,
                 ) -> tuple[list[LintReport], dict]:
    """Cross-validate static bounds on the benchmark suite.

    Returns ``(reports, validations)`` where ``validations`` maps
    ``(program, target)`` to the :class:`TimingValidation` — the
    tightness numbers feed EXPERIMENTS.md.
    """
    return _suite(targets, programs, lab, lambda lab, name, t, image:
                  timing_cell(image, lab.run(name, t).stats,
                              params=lab.params))


def wcet_suite(targets: Iterable[str] = MAIN_TARGETS,
               programs: Iterable[str] | None = None, *,
               lab: Lab | None = None,
               slack: float | None = DEFAULT_SLACK,
               ) -> tuple[list[LintReport], dict]:
    """Bracket every benchmark cell with the whole-program interval.

    Returns ``(reports, validations)`` where ``validations`` maps
    ``(program, target)`` to the :class:`WcetValidation` — the
    per-function bound records and BCET ratios feed EXPERIMENTS.md and
    the ``--json`` report.
    """
    return _suite(targets, programs, lab, lambda lab, name, t, image:
                  wcet_cell(analyze_wcet(image, model=lab.params),
                            lab.run(name, t).stats, slack=slack))


def icache_suite(targets: Iterable[str] = MAIN_TARGETS,
                 programs: Iterable[str] | None = None, *,
                 lab: Lab | None = None,
                 sizes: Iterable[int] | None = None,
                 penalty: int = DEFAULT_MISS_PENALTY,
                 ) -> tuple[list[LintReport], dict]:
    """Validate the static I-cache classification over the suite.

    Returns ``(reports, results)`` where ``results`` maps ``(program,
    target)`` to the per-config ``(analysis, validation)`` pairs -- the
    static-vs-simulated miss numbers feed EXPERIMENTS.md and the
    ``--json`` report.
    """
    sizes = tuple(sizes) if sizes is not None else None

    def check(lab: Lab, name: str, t: str, image: AnalysisResult,
              ) -> tuple[list[tuple[ICacheAnalysis, ICacheValidation]],
                         list[Finding]]:
        trace = lab.trace(name, t)
        return icache_cell(analyze_wcet(image, model=lab.params),
                           trace.run.stats, trace.itrace, sizes=sizes,
                           penalty=penalty)

    return _suite(targets, programs, lab, check)


def density_suite(programs: Iterable[str] | None = None, *,
                  target: str = "dlxe", lab: Lab | None = None,
                  ) -> tuple[list[LintReport], dict]:
    """Estimate D16 compressibility of every DLXe benchmark image.

    Returns ``(reports, densities)`` where ``densities`` maps
    ``(program, target)`` to its :class:`ProgramDensity`.  Density is a
    property of the 32-bit encoding, so the suite runs one target
    (DLXe by default); reports carry the DEN001 INFO findings.
    """
    return _suite((target,), programs, lab,
                  lambda lab, name, t, image: density_cell(image))


def vuln_suite(targets: Iterable[str] = MAIN_TARGETS,
               programs: Iterable[str] | None = None, *,
               lab: Lab | None = None,
               faults: int, seed: int,
               ) -> tuple[list[LintReport], dict]:
    """Liveness lint plus static fault classification over the suite.

    Returns ``(reports, results)`` where ``results`` maps ``(program,
    target)`` to ``(CellVulnerability, waived)`` — the cross-ISA AVF
    numbers feed EXPERIMENTS.md and the ``--json`` report.
    """
    def check(lab: Lab, name: str, t: str, image: AnalysisResult,
              ) -> tuple[tuple[CellVulnerability, list[tuple[str, str]]],
                         list[Finding]]:
        trace = lab.trace(name, t)
        return vuln_cell(name, t, image, trace.run.stats, trace.itrace,
                         faults=faults, seed=seed)

    return _suite(targets, programs, lab, check)


def validate_vuln(lab: Lab, *, seed: int) -> dict:
    """Soundness sweep of the static fault-vulnerability analysis.

    Runs :func:`vuln_suite` over the suite on ``lab``, then executes
    every classified fault site for real and cross-checks: a site the
    analysis proved masked must be observed masked.  Raises
    :class:`~repro.experiments.runner.ExperimentError` on any VULN001
    contradiction (locked to zero in CI).  Returns the aggregate
    site/proven counts for reports and CI assertions.
    """
    from ..experiments.runner import ExperimentError
    from ..faults.campaign import run_cell
    from ..faults.model import FAULT_KINDS, FAULTS_PER_CELL
    from .vuln import check_soundness

    _reports, results = vuln_suite(lab=lab, faults=FAULTS_PER_CELL,
                                   seed=seed)
    contradictions: list[Finding] = []
    sites = proven = 0
    by_kind: dict[str, dict[str, int]] = {}
    for (name, target_name), (cell, _waived) in sorted(results.items()):
        executed = run_cell(lab, name, target_name,
                            faults=len(cell.verdicts), seed=seed,
                            kinds=FAULT_KINDS, prune=False)
        contradictions += check_soundness(cell, executed.results)
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


def tv_suite(programs: Iterable[str] | None = None, *,
             targets: tuple[str, ...] = MAIN_TARGETS,
             opt_level: int = 2,
             ) -> tuple[list[LintReport], dict]:
    """Translation-validate the benchmark suite (``repro lint --tv``).

    Runs both layers per program — symbolic equivalence of every
    optimizer pass application and IR-vs-binary observable-effect
    summaries on each target — and returns ``(reports, results)``
    where ``results`` maps the program name to its
    :class:`~repro.analysis.equiv.TvReport`.  Pass-level validation is
    a property of the IR pipeline, so (like the cross-ISA mode) each
    program gets one report whose target column carries the pair.
    """
    from .equiv import tv_program

    names = program_names(programs)
    pair = "+".join(targets)
    reports: list[LintReport] = []
    results: dict[str, object] = {}
    for name in names:
        bench = get_benchmark(name)
        report = tv_program(bench.source, name, targets=targets,
                            opt_level=opt_level)
        results[name] = report
        reports.append(LintReport(program=name, target=pair,
                                  findings=report.findings))
    return reports, results


def cross_isa_suite(programs: Iterable[str] | None = None, *,
                    targets: tuple[str, str] = MAIN_TARGETS,
                    opt_level: int = 2) -> list[LintReport]:
    """Cross-ISA consistency check over the benchmark suite.

    One report per program; the report's target column carries both
    ISA names since each finding is a *pairwise* fact.
    """
    names = program_names(programs)
    pair = "+".join(targets)
    reports = []
    for name in names:
        bench = get_benchmark(name)
        report = check_cross_isa(bench.source, targets,
                                 opt_level=opt_level)
        reports.append(LintReport(program=name, target=pair,
                                  findings=report.findings))
    return reports
