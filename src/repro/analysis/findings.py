"""Structured findings shared by every static-analysis layer.

A :class:`Finding` is one diagnostic: a stable rule id (catalogued in
:data:`RULES`), a severity, a human-readable location, and a message.
Findings render as text (one line each) or JSON so that CI, the
experiment runner, and humans can all consume the same output.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Rule:
    """One catalogued lint rule."""

    id: str
    severity: Severity
    title: str


#: The rule catalog.  Ids are stable; docs/linting.md documents each one.
RULES: dict[str, Rule] = {r.id: r for r in (
    # IR verifier (repro.analysis.irverify)
    Rule("IR001", Severity.ERROR, "block has no terminator"),
    Rule("IR002", Severity.ERROR, "terminator in the middle of a block"),
    Rule("IR003", Severity.ERROR, "branch target does not exist"),
    Rule("IR004", Severity.ERROR, "duplicate block label"),
    Rule("IR005", Severity.WARNING, "block unreachable from entry"),
    Rule("IR006", Severity.ERROR, "virtual register used before definition"),
    Rule("IR007", Severity.ERROR, "virtual register id reused inconsistently"),
    Rule("IR008", Severity.ERROR, "operand register class mismatch"),
    Rule("IR009", Severity.ERROR, "stack slot not registered with function"),
    Rule("IR010", Severity.WARNING, "memory access outside stack slot bounds"),
    # Assembly linter (repro.analysis.binlint.lint_assembly)
    Rule("ENC001", Severity.ERROR, "instruction not encodable on target ISA"),
    # Binary linter (repro.analysis.binlint.lint_executable)
    Rule("BIN001", Severity.ERROR, "encode/decode round-trip mismatch"),
    Rule("BIN002", Severity.ERROR, "reachable word does not decode"),
    Rule("BIN003", Severity.ERROR, "control-flow target outside text segment"),
    Rule("BIN004", Severity.ERROR, "control-flow target lands in pool data"),
    Rule("BIN005", Severity.WARNING, "unreachable code in text segment"),
    Rule("CC001", Severity.ERROR, "callee-saved register clobbered "
                                  "without spill"),
    Rule("CC002", Severity.ERROR, "link register not saved across calls"),
    # Abstract interpretation (repro.analysis.absint)
    Rule("ABS001", Severity.ERROR, "stack height mismatch at join "
                                   "or return"),
    Rule("ABS002", Severity.ERROR, "memory access provably invalid"),
    Rule("ABS003", Severity.ERROR, "indirect jump to provably "
                                   "non-code target"),
    Rule("ABS004", Severity.WARNING, "conditional branch provably "
                                     "always or never taken"),
    # Static cycle bounds (repro.analysis.timing)
    Rule("TIM001", Severity.ERROR, "simulated cycles outside static "
                                   "bounds"),
    Rule("TIM002", Severity.WARNING, "execution profile not covered "
                                     "by the static CFG"),
    # Whole-program cycle bounds (repro.analysis.loops / wcet)
    Rule("LOOP001", Severity.WARNING, "loop bound not provable "
                                      "(unbounded or irreducible)"),
    Rule("TIM003", Severity.ERROR, "simulated cycles escape the static "
                                   "whole-program interval"),
    Rule("TIM004", Severity.WARNING, "call-graph recursion blocks "
                                     "worst-case composition"),
    Rule("TIM005", Severity.WARNING, "whole-program interval wider "
                                     "than the slack factor"),
    # Static code density (repro.analysis.density)
    Rule("DEN001", Severity.INFO, "adjacent DLXe pair encodable as "
                                  "one D16 instruction"),
    # Cross-ISA consistency (repro.analysis.xisa)
    Rule("XISA001", Severity.ERROR, "call-graph shape differs "
                                    "between ISAs"),
    Rule("XISA002", Severity.ERROR, "trap/IO sequence differs "
                                    "between ISAs"),
    Rule("XISA003", Severity.ERROR, "returned constant differs "
                                    "between ISAs"),
    # Static I-cache analysis (repro.analysis.icache)
    Rule("CACHE001", Severity.ERROR, "always-hit classification "
                                     "contradicted (unsound)"),
    Rule("CACHE002", Severity.ERROR, "simulation escapes the static "
                                     "I-cache miss/cycle bound"),
    Rule("CACHE003", Severity.WARNING, "instruction-fetch misses not "
                                       "statically boundable"),
    Rule("CACHE004", Severity.ERROR, "cache configuration mismatch "
                                     "between analysis and replay"),
    Rule("CACHE005", Severity.ERROR, "prefetch model diverges from "
                                     "the simulated cache"),
    # Translation validation (repro.analysis.equiv / symex)
    Rule("EQ001", Severity.WARNING, "optimizer pass application not "
                                    "proven equivalent"),
    Rule("EQ002", Severity.ERROR, "optimizer pass application provably "
                                  "changes behavior"),
    Rule("EQ003", Severity.WARNING, "binary summary not proven against "
                                    "the IR"),
    Rule("EQ004", Severity.ERROR, "binary observable behavior diverges "
                                  "from the IR"),
    Rule("EQ005", Severity.INFO, "translation-validation statistics"),
    # Liveness / dead code (repro.analysis.liveness)
    Rule("LIV001", Severity.WARNING, "frame store provably dead "
                                     "(never loaded back)"),
    Rule("LIV002", Severity.WARNING, "register write provably dead "
                                     "(overwritten before any use)"),
    # Static fault vulnerability (repro.analysis.vuln)
    Rule("VULN001", Severity.ERROR, "statically-proven-masked fault "
                                    "site observed as non-masked"),
    Rule("VULN002", Severity.INFO, "static fault-vulnerability "
                                   "statistics"),
)}

#: Version of the JSON report layout produced by :func:`render_json`.
#: Bump on any backwards-incompatible change to the payload shape.
#: Version 2 added the loop/WCET rules (LOOP001, TIM003-005, DEN001)
#: to the ``rules`` metadata and the per-function ``bounds`` records
#: emitted by ``repro lint --wcet --json``.  Version 3 added the
#: I-cache rules (CACHE001-005) and the per-cell ``icache`` records
#: emitted by ``repro lint --icache --json``.  Version 4 added the
#: translation-validation rules (EQ001-005), the per-cell ``tv``
#: records emitted by ``repro lint --tv --json``, and the aggregate
#: ``modes`` map emitted by ``repro lint --all --json``.  Version 5
#: added the liveness/vulnerability rules (LIV001-002, VULN001-002)
#: and the per-cell ``vuln`` records emitted by ``repro lint --vuln
#: --json``; docs/linting.md documents every migration.
SCHEMA_VERSION = 5


def rule_doc_url(rule_id: str) -> str:
    """Stable documentation anchor for a rule id."""
    return f"docs/linting.md#{rule_id.lower()}"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint layer."""

    rule: str
    severity: Severity
    location: str
    message: str

    def format(self) -> str:
        return f"{self.severity.value}: {self.rule} {self.location}: " \
               f"{self.message}"

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity.value,
                "location": self.location, "message": self.message}


def finding(rule_id: str, location: str, message: str) -> Finding:
    """Build a finding at its rule's catalog severity."""
    return Finding(rule=rule_id, severity=RULES[rule_id].severity,
                   location=location, message=message)


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == Severity.ERROR for f in findings)


def summarize(findings: Iterable[Finding]) -> dict:
    """Counts by severity and by rule (for ``repro lint --stats``)."""
    by_rule: dict[str, int] = {}
    by_severity: dict[str, int] = {}
    total = 0
    for f in findings:
        total += 1
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        by_severity[f.severity.value] = \
            by_severity.get(f.severity.value, 0) + 1
    return {"total": total, "by_rule": dict(sorted(by_rule.items())),
            "by_severity": dict(sorted(by_severity.items()))}


def render_text(findings: Iterable[Finding]) -> str:
    return "\n".join(f.format() for f in findings)


def render_json(findings: Iterable[Finding], **extra: object) -> str:
    """Machine-readable report (schema locked by ``SCHEMA_VERSION``).

    Top-level keys: ``schema_version``, ``findings`` (list of finding
    dicts), ``summary`` (counts), and ``rules`` — catalog metadata
    (severity, title, documentation URL) for every rule referenced by
    the findings, so consumers need not hard-code the catalog.
    """
    findings = list(findings)
    rules = {f.rule: {"severity": RULES[f.rule].severity.value,
                      "title": RULES[f.rule].title,
                      "doc": rule_doc_url(f.rule)}
             for f in findings if f.rule in RULES}
    payload = {"schema_version": SCHEMA_VERSION,
               "findings": [f.to_dict() for f in findings],
               "summary": summarize(findings),
               "rules": dict(sorted(rules.items()))}
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
