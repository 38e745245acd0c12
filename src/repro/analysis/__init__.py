"""Static analysis: IR verifier, linter, abstract interpreter, timing.

Several layers keep the density/path-length experiments honest:

* :mod:`~repro.analysis.irverify` — compiler IR invariants (CFG shape,
  def-before-use dataflow, register classes, stack slots), also run
  between optimizer passes under ``--verify-ir``;
* :mod:`~repro.analysis.binlint` — encoding limits, round-trip
  byte-equality, control-flow targets, unreachable code, and
  calling-convention discipline of linked images;
* :mod:`~repro.analysis.absint` — abstract interpretation over the
  recovered CFG (:mod:`~repro.analysis.cfg`): constant/range/stack
  analysis behind the ABS rules and the per-function summaries;
* :mod:`~repro.analysis.timing` — static per-block cycle/stall bounds
  from the shared pipeline model, cross-validated against the
  simulator (TIM001/TIM002);
* :mod:`~repro.analysis.loops` + :mod:`~repro.analysis.wcet` —
  dominator-based loop recovery, loop-bound inference over a symbolic
  one-iteration domain, and interprocedural [BCET, WCET] composition
  bracketing whole runs (LOOP001, TIM003-005);
* :mod:`~repro.analysis.icache` — must/may/persistence abstract
  interpretation of the direct-mapped sub-blocked I-cache, composed
  into cache-aware miss/cycle bounds and validated against simulated
  replay (CACHE001-005);
* :mod:`~repro.analysis.density` — static D16-compressibility
  estimate of DLXe images, instruction by instruction (DEN001);
* :mod:`~repro.analysis.xisa` — cross-ISA consistency of the same
  source compiled for D16 and DLXe (XISA rules);
* :mod:`~repro.analysis.symex` + :mod:`~repro.analysis.equiv` —
  solver-free symbolic execution over the compiler IR and both
  machine ISAs, driving per-pass translation validation of the
  optimizer and IR-vs-binary observable-effect matching (EQ rules);

with :mod:`~repro.analysis.driver` orchestrating them over programs
and benchmark suites, feeding ``repro lint``.
"""

from ..machine.perf import DEFAULT_MISS_PENALTY
from .absint import (AnalysisResult, FunctionSummary, Interval, SPRel,
                     ValueDomain, analyze_executable, resolve_cfg, solve)
from .binlint import lint_assembly, lint_executable
from .cfg import BasicBlock, BinaryCFG, build_cfg
from .density import (FunctionDensity, ProgramDensity, analyze_density,
                      estimate_halfwords, fused_constant_pair)
from .driver import (EXIT_ERRORS, EXIT_INTERNAL, EXIT_OK, LintReport,
                     cross_isa_suite, density_cell, density_suite,
                     exit_code, icache_cell, icache_suite, lint_program,
                     lint_suite, timing_cell, timing_suite, tv_suite,
                     validate_vuln, vuln_cell, vuln_suite, wcet_cell,
                     wcet_suite)
from .equiv import (BinaryCheck, MutantResult, PassCheck, TvReport,
                    check_binary_program, check_pass, mutation_campaign,
                    tv_program, validate_passes)
from .findings import (Finding, RULES, Rule, SCHEMA_VERSION, Severity,
                       finding, has_errors, render_json, render_text,
                       rule_doc_url, summarize)
from .icache import (FetchSite, ICacheAnalysis, ICacheValidation,
                     SiteClass, analyze_icache, validate_icache)
from .irverify import verify_function, verify_module
from .liveness import (DeadStore, DeadWrite, FunctionLiveness, LoadSite,
                       LivenessAnalysis, analyze_liveness,
                       liveness_findings)
from .vuln import (CellVulnerability, MaskingOracle, SiteVerdict,
                   VulnSummary, avf_summary, build_oracle,
                   check_soundness, classify_cell, vuln_findings)
from .loops import DomTree, Loop, LoopForest, dominator_tree, find_loops
from .timing import (BlockBounds, StaticBounds, TimingValidation,
                     block_stall_bounds, exit_seed, static_bounds,
                     validate_run)
from .wcet import (DEFAULT_SLACK, FunctionTiming, LoopBound, ProgramWcet,
                   WcetValidation, analyze_wcet, infer_loop_bound,
                   validate_wcet)
from .symex import (Leaf, Term, Unknown, explore_region, ground_leaves,
                    is_ground, single_def_terms,
                    summarize_binary_function, summarize_ir_function)
from .xisa import (CrossIsaReport, analyze_source, check_cross_isa,
                   compare_analyses)

__all__ = [
    "AnalysisResult", "BasicBlock", "BinaryCFG", "BinaryCheck",
    "BlockBounds", "CellVulnerability",
    "CrossIsaReport", "DEFAULT_MISS_PENALTY", "DEFAULT_SLACK",
    "DeadStore", "DeadWrite", "DomTree",
    "EXIT_ERRORS", "EXIT_INTERNAL", "EXIT_OK", "FetchSite", "Finding",
    "FunctionDensity", "FunctionLiveness", "FunctionSummary",
    "FunctionTiming",
    "ICacheAnalysis", "ICacheValidation", "Interval", "Leaf",
    "LintReport", "LivenessAnalysis", "LoadSite", "Loop", "LoopBound",
    "LoopForest", "MaskingOracle", "MutantResult",
    "PassCheck", "ProgramDensity",
    "ProgramWcet", "RULES", "Rule", "SCHEMA_VERSION", "SPRel",
    "Severity", "SiteClass", "SiteVerdict", "StaticBounds", "Term",
    "TimingValidation", "TvReport", "Unknown",
    "ValueDomain", "VulnSummary",
    "WcetValidation", "analyze_density", "analyze_executable",
    "analyze_icache", "analyze_liveness",
    "analyze_source", "analyze_wcet", "avf_summary",
    "block_stall_bounds", "build_cfg", "build_oracle",
    "check_binary_program", "check_cross_isa", "check_pass",
    "check_soundness",
    "classify_cell", "compare_analyses",
    "cross_isa_suite", "density_cell", "density_suite",
    "dominator_tree",
    "estimate_halfwords", "exit_code", "exit_seed", "explore_region",
    "find_loops",
    "finding", "fused_constant_pair", "ground_leaves", "has_errors",
    "icache_cell", "icache_suite", "infer_loop_bound", "is_ground",
    "lint_assembly", "lint_executable", "lint_program", "lint_suite",
    "liveness_findings", "mutation_campaign",
    "render_json", "render_text", "resolve_cfg",
    "rule_doc_url", "single_def_terms", "solve", "static_bounds",
    "summarize", "summarize_binary_function", "summarize_ir_function",
    "timing_cell", "timing_suite", "tv_program", "tv_suite",
    "validate_icache", "validate_passes", "validate_run",
    "validate_vuln", "validate_wcet",
    "verify_function", "verify_module", "vuln_cell", "vuln_findings",
    "vuln_suite", "wcet_cell", "wcet_suite",
]
