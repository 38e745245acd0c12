"""Cross-ISA consistency checking of compiled binaries.

The paper's central comparison — the same minic source compiled for the
16-bit D16 and the 32-bit DLXe — is only meaningful if the two binaries
*compute the same thing*.  This module checks that mechanically, from
the binaries alone: the abstract interpreter
(:mod:`repro.analysis.absint`) summarizes each image per function, and
:func:`compare_analyses` cross-checks the summaries:

======= ==========================================================
XISA001 call-graph shape differs: a function exists on one side
        only, or the sequence of resolved callees (in call-site
        address order, i.e. source evaluation order) disagrees
XISA002 trap/IO behaviour differs: the per-function sequence of
        statically-known trap codes disagrees
XISA003 provable return values differ: both sides prove a function
        returns a constant, and the constants are not equal
======= ==========================================================

Every rule errs on the side of silence: a comparison is skipped
whenever either side could not prove the fact (unresolved indirect
calls, non-constant return value), so only *provable* divergence is
reported — a code-generation or ISA-model bug, never optimization
noise.

:func:`check_cross_isa` is the one-call harness: compile one source
for each target, analyze both images, and compare.  It also runs a
*semantic* tier: every function whose machine-code observable-effect
summary is symbolically proven against the shared IR on both targets
(:func:`repro.analysis.equiv.check_binary_program`) is semantically
consistent across the ISAs by transitivity — count-consistency
upgraded to behavior, with proven divergence surfaced as EQ004.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm import AsmError, Assembler, link
from ..asm.objfile import text_labels
from ..cc import TargetSpec, get_target
from ..cc.target import MAIN_TARGETS
from ..cc.codegen import generate_assembly
from ..cc.irgen import lower_program
from ..cc.opt import optimize_module
from ..cc.parser import parse
from ..cc.runtime import with_runtime
from .absint import AnalysisResult, FunctionSummary, resolve_cfg
from .findings import Finding, finding


@dataclass
class CrossIsaReport:
    """Outcome of one cross-ISA comparison."""

    targets: tuple[str, str]
    results: dict[str, AnalysisResult]
    findings: list[Finding] = field(default_factory=list)
    #: Functions whose facts were actually compared (had provable
    #: summaries on both sides) — coverage evidence for the docs.
    compared: list[str] = field(default_factory=list)
    #: Per-function semantic verdicts from the translation-validation
    #: tier: "proven" when the machine-code observable-effect summary
    #: matched the shared IR on *every* target (the IR is the hub —
    #: segment layouts differ between ISAs, so binaries are never
    #: compared address-for-address), "unknown" when any side refused
    #: (loops, non-comparable signature), "divergent" on a proven
    #: mismatch (also surfaced as an EQ004 error finding).
    semantic: dict[str, str] = field(default_factory=dict)


def _comparable_callees(summary: FunctionSummary) -> list[str] | None:
    """Callee sequence, or None when not fully resolved."""
    if summary.unresolved_calls:
        return None
    if any(name.startswith("<") for name in summary.callees):
        return None
    return summary.callees


def _is_address(result: AnalysisResult, value: int) -> bool:
    """True when ``value`` points into the image's text or data.

    A function returning the address of a global returns a *different*
    constant on each ISA (segment layout differs with instruction
    width), so address-valued constants are never comparable across
    images.
    """
    exe = result.cfg.exe
    if exe.text_base <= value < exe.text_base + len(exe.text):
        return True
    data_end = exe.symbols.get("__data_end",
                               exe.data_base + len(exe.data))
    return exe.data_base <= value < data_end


def compare_analyses(results: dict[str, AnalysisResult],
                     ) -> CrossIsaReport:
    """Cross-check per-function facts of two analyzed images.

    ``results`` maps exactly two target names to their
    :class:`~repro.analysis.absint.AnalysisResult`.
    """
    if len(results) != 2:
        raise ValueError(f"need exactly two analyses to compare, "
                         f"got {sorted(results)}")
    (name_a, res_a), (name_b, res_b) = sorted(results.items())
    report = CrossIsaReport(targets=(name_a, name_b), results=results)
    out = report.findings

    funcs_a, funcs_b = set(res_a.functions), set(res_b.functions)
    for missing in sorted(funcs_a ^ funcs_b):
        present = name_a if missing in funcs_a else name_b
        absent = name_b if missing in funcs_a else name_a
        out.append(finding(
            "XISA001", f"xisa:{missing}",
            f"function exists on {present} but not on {absent}"))

    for fname in sorted(funcs_a & funcs_b):
        sa, sb = res_a.functions[fname], res_b.functions[fname]
        compared = False

        ca, cb = _comparable_callees(sa), _comparable_callees(sb)
        if ca is not None and cb is not None:
            compared = True
            if ca != cb:
                out.append(finding(
                    "XISA001", f"xisa:{fname}",
                    f"callee sequences differ: {name_a} calls {ca}, "
                    f"{name_b} calls {cb}"))

        if ca is not None and cb is not None:
            # Trap sequences are only comparable when the whole call
            # chain is resolved on both sides (an unresolved call could
            # hide traps behind it on one side only).
            if sa.traps != sb.traps:
                out.append(finding(
                    "XISA002", f"xisa:{fname}",
                    f"trap sequences differ: {name_a} issues "
                    f"{sa.traps}, {name_b} issues {sb.traps}"))

        ra = res_a.returned_constant(fname)
        rb = res_b.returned_constant(fname)
        if ra is not None and rb is not None \
                and not _is_address(res_a, ra) \
                and not _is_address(res_b, rb):
            compared = True
            if ra != rb:
                out.append(finding(
                    "XISA003", f"xisa:{fname}",
                    f"provable return values differ: {name_a} returns "
                    f"{ra:#x}, {name_b} returns {rb:#x}"))

        if compared:
            report.compared.append(fname)
    return report


def analyze_source(source: str, target: TargetSpec | str, *,
                   opt_level: int = 2,
                   include_runtime: bool = True) -> AnalysisResult:
    """Compile one minic source and recover its image.

    Mirrors the lint driver's layering (full label map from the object
    file, so every function is a named reachability root); the image is
    recovered by :func:`~repro.analysis.absint.resolve_cfg`.
    """
    if isinstance(target, str):
        target = get_target(target)
    module = lower_program(parse(with_runtime(source, include_runtime)))
    optimize_module(module, level=opt_level)
    assembly = generate_assembly(module, target, opt_level=opt_level)
    try:
        obj = Assembler(target.isa).assemble(assembly)
        exe = link([obj])
    except AsmError as exc:
        raise ValueError(
            f"{target.isa.name}: source does not assemble "
            f"(line {exc.line_no}): {exc}") from exc
    return resolve_cfg(exe, target.isa, symbols=text_labels(obj, exe),
                       target=target)


def check_cross_isa(source: str,
                    targets: tuple[str, str] = MAIN_TARGETS, *,
                    opt_level: int = 2,
                    include_runtime: bool = True) -> CrossIsaReport:
    """Compile ``source`` for both targets, analyze, and cross-check.

    The count-based XISA comparison is upgraded with the
    translation-validation tier: each binary's observable-effect
    summaries are symbolically matched against the shared IR, and a
    function whose summaries are proven on every target is
    semantically consistent across the ISAs by transitivity.
    Only *proven* divergence adds findings (EQ004); incompleteness is
    recorded in :attr:`CrossIsaReport.semantic`, never reported as an
    error — the same erring-on-silence contract as the XISA rules.
    """
    results = {
        name: analyze_source(source, name, opt_level=opt_level,
                             include_runtime=include_runtime)
        for name in targets}
    report = compare_analyses(results)
    from .equiv import (BinaryCheck, DIVERGENT, PROVEN,
                        check_binary_program)

    checks = check_binary_program(source, targets, opt_level=opt_level,
                                  include_runtime=include_runtime)
    by_fn: dict[str, list[BinaryCheck]] = {}
    for check in checks:
        by_fn.setdefault(check.function, []).append(check)
    for fname, cell in sorted(by_fn.items()):
        if any(c.verdict == DIVERGENT for c in cell):
            report.semantic[fname] = DIVERGENT
            for check in cell:
                if check.verdict == DIVERGENT:
                    report.findings.append(finding(
                        "EQ004", f"xisa:{check.location}", check.reason
                        or "observable behavior diverges from the IR"))
        elif all(c.verdict == PROVEN for c in cell) \
                and len(cell) == len(targets):
            report.semantic[fname] = PROVEN
            if fname not in report.compared:
                report.compared.append(fname)
        else:
            report.semantic[fname] = "unknown"
    return report
