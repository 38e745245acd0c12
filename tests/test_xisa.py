"""Tests for cross-ISA consistency checking (XISA rules).

Seeded divergences are built from pairs of hand-crafted images whose
function summaries provably differ (missing function, reordered call
sequence, extra trap, different returned constant); the skip rules are
exercised with address-valued constants, and the end-to-end harness is
checked on real compiler output for both ISAs.
"""

from __future__ import annotations

import pytest

from repro.analysis import (check_cross_isa, compare_analyses,
                            cross_isa_suite, resolve_cfg)
from repro.isa import DLXE, Instr, Op

from .test_analysis import _raw_exe, _rules


def _analyzed(instrs, symbols=None):
    exe = _raw_exe(DLXE, instrs, symbols=symbols)
    return resolve_cfg(exe, DLXE)


def _call_return_image(ret_value, *, trap_in_f=None):
    """_start calls f; f (optionally traps and) returns ``ret_value``."""
    instrs = [
        Instr(op=Op.JLD, imm=0x1008),               # 0x1000  call f
        Instr(op=Op.TRAP, imm=0),                   # 0x1004
    ]
    if trap_in_f is not None:                       # 0x1008  f
        instrs.append(Instr(op=Op.TRAP, imm=trap_in_f))
    instrs += [
        Instr(op=Op.MVI, rd=2, imm=ret_value),
        Instr(op=Op.J, rs1=1),
    ]
    return _analyzed(instrs, symbols={"f": 0x8})


class TestCompareAnalyses:
    def test_identical_images_are_consistent(self):
        report = compare_analyses({"a": _call_return_image(7),
                                   "b": _call_return_image(7)})
        assert report.findings == []
        assert "f" in report.compared and "_start" in report.compared

    def test_requires_exactly_two_analyses(self):
        with pytest.raises(ValueError, match="exactly two"):
            compare_analyses({"a": _call_return_image(7)})

    def test_missing_function_xisa001(self):
        stripped = _analyzed([
            Instr(op=Op.JLD, imm=0x1008),
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.MVI, rd=2, imm=7),
            Instr(op=Op.J, rs1=1),
        ])                                          # no 'f' label
        report = compare_analyses({"a": _call_return_image(7),
                                   "b": stripped})
        findings = [f for f in report.findings if f.rule == "XISA001"]
        assert findings and "exists on a but not on b" in \
            findings[0].message

    def test_callee_sequence_mismatch_xisa001(self):
        def image(first, second):
            return _analyzed([
                Instr(op=Op.JLD, imm=first),        # 0x1000
                Instr(op=Op.JLD, imm=second),       # 0x1004
                Instr(op=Op.TRAP, imm=0),           # 0x1008
                Instr(op=Op.J, rs1=1),              # 0x100c  f
                Instr(op=Op.J, rs1=1),              # 0x1010  g
            ], symbols={"f": 0xC, "g": 0x10})

        report = compare_analyses({"a": image(0x100C, 0x1010),
                                   "b": image(0x1010, 0x100C)})
        findings = [f for f in report.findings if f.rule == "XISA001"]
        assert findings and "_start" in findings[0].location
        assert "['f', 'g']" in findings[0].message

    def test_trap_sequence_mismatch_xisa002(self):
        report = compare_analyses({
            "a": _call_return_image(7, trap_in_f=1),
            "b": _call_return_image(7)})
        findings = [f for f in report.findings if f.rule == "XISA002"]
        assert findings and "xisa:f" == findings[0].location

    def test_return_constant_mismatch_xisa003(self):
        report = compare_analyses({"a": _call_return_image(1),
                                   "b": _call_return_image(2)})
        findings = [f for f in report.findings if f.rule == "XISA003"]
        assert findings
        assert "0x1" in findings[0].message and "0x2" in \
            findings[0].message

    def test_address_valued_returns_are_skipped(self):
        # 0x1000 vs 0x1004 both point into text: layout-dependent
        # constants (a function returning &global) are incomparable
        # across ISAs and must not raise XISA003.
        report = compare_analyses({"a": _call_return_image(0x1000),
                                   "b": _call_return_image(0x1004)})
        assert "XISA003" not in _rules(report.findings)

    def test_unresolved_calls_suppress_comparison(self):
        def image(extra_trap):
            instrs = [
                Instr(op=Op.JL, rs1=9),             # unresolvable call
            ]
            if extra_trap:
                instrs.append(Instr(op=Op.TRAP, imm=1))
            instrs.append(Instr(op=Op.TRAP, imm=0))
            return _analyzed(instrs)

        # Trap sequences differ, but behind an unresolved call either
        # side could hide anything -- the rule must stay silent.
        report = compare_analyses({"a": image(True), "b": image(False)})
        assert "XISA002" not in _rules(report.findings)
        assert "_start" not in report.compared


class TestCheckCrossIsa:
    def test_small_program_is_consistent(self):
        report = check_cross_isa("int main() { return 21; }")
        assert report.targets == ("d16", "dlxe")
        assert report.findings == []
        assert "main" in report.compared
        assert sorted(report.results) == ["d16", "dlxe"]

    def test_suite_subset_is_consistent(self):
        reports = cross_isa_suite(["queens"])
        assert len(reports) == 1
        assert reports[0].target == "d16+dlxe"
        assert reports[0].findings == []
