"""Tests for the abstract interpreter behind the ABS rules.

Three layers of evidence:

* **solver** — the generic worklist engine terminates on self-loops and
  irreducible regions, with widening cutting off diverging chains;
* **domain** — interval/condition algebra units and the DLXe ``r0``
  pinning, call-clobber, and branch-edge refinement behaviours;
* **rules** — one deliberately broken image per ABS rule must fire, a
  clean loop must stay silent, and :func:`resolve_cfg` must recover
  functions reachable only through register-indirect calls.
"""

from __future__ import annotations

import pytest

from repro.analysis import (ValueDomain, analyze_executable,
                            analyze_source, build_cfg, resolve_cfg,
                            solve)
from repro.analysis.absint import U32_MAX, Interval, const, eval_cond
from repro.bench import SUITE
from repro.cc import build_executable, get_target
from repro.isa import D16, DLXE, Cond, Instr, Op

from .test_analysis import _raw_exe, _rules

# --------------------------------------------------- interval algebra


class TestIntervalLogic:
    def test_const_wraps_to_u32(self):
        assert const(5) == Interval(5, 5)
        assert const(5).is_const
        assert const(-1) == Interval(U32_MAX, U32_MAX)

    def test_eval_cond_constants(self):
        assert eval_cond(Cond.LT, const(3), const(5)) is True
        assert eval_cond(Cond.EQ, const(3), const(3)) is True
        assert eval_cond(Cond.NE, const(3), const(3)) is False

    def test_eval_cond_disjoint_ranges(self):
        low, high = Interval(0, 10), Interval(20, 30)
        assert eval_cond(Cond.LT, low, high) is True
        assert eval_cond(Cond.GE, low, high) is False
        assert eval_cond(Cond.EQ, low, high) is False
        assert eval_cond(Cond.NE, low, high) is True

    def test_eval_cond_overlap_is_unprovable(self):
        assert eval_cond(Cond.LT, Interval(0, 25), Interval(20, 30)) is None
        assert eval_cond(Cond.EQ, Interval(0, 5), Interval(5, 9)) is None

    def test_eval_cond_signed_vs_unsigned(self):
        minus_one, zero = const(-1), const(0)
        assert eval_cond(Cond.LT, minus_one, zero) is True    # signed
        assert eval_cond(Cond.LTU, minus_one, zero) is False  # unsigned

    def test_sign_straddling_range_only_provable_unsigned(self):
        straddle = Interval(0x7FFFFFFF, 0x80000000)
        assert eval_cond(Cond.LT, straddle, const(0)) is None
        assert eval_cond(Cond.GEU, straddle, const(0)) is True


# --------------------------------------------------- worklist solver


class _CountingDomain:
    """Integer domain whose chains diverge unless widening cuts in."""

    CAP = 10 ** 9                    # far beyond any tolerable iteration

    def __init__(self):
        self.transfers = 0

    def entry_state(self):
        return 0

    def transfer(self, block, state):
        self.transfers += 1
        return min(state + 1, self.CAP)

    def edge_state(self, block, succ, out):
        return out

    def join(self, old, new, at):
        return max(old, new)

    def widen(self, old, joined, at):
        return self.CAP


class _FakeBlock:
    def __init__(self, start, succs):
        self.start = start
        self.succs = succs


def _solve_shape(edges, entry=0):
    blocks = {s: _FakeBlock(s, succs) for s, succs in edges.items()}
    domain = _CountingDomain()
    states = solve(blocks, entry, domain)
    return domain, states


class TestWorklistSolver:
    def test_terminates_on_self_loop(self):
        domain, states = _solve_shape({0: (0,)})
        assert states[0] == _CountingDomain.CAP
        assert domain.transfers < 50

    def test_terminates_on_irreducible_region(self):
        # 0 branches into a two-headed loop 1 <-> 2 where neither head
        # dominates the other -- the classic irreducible shape.
        domain, states = _solve_shape({0: (1, 2), 1: (2,), 2: (1,)})
        assert states[1] == states[2] == _CountingDomain.CAP
        assert domain.transfers < 100

    def test_terminates_on_nested_loops(self):
        domain, states = _solve_shape(
            {0: (1,), 1: (2,), 2: (1, 3), 3: (1, 4), 4: ()})
        assert states[4] == _CountingDomain.CAP
        assert domain.transfers < 200

    def test_missing_entry_yields_empty_solution(self):
        assert solve({}, 0x1000, _CountingDomain()) == {}

    def test_unreachable_successors_are_skipped(self):
        _domain, states = _solve_shape({0: (1, 99), 1: ()})
        assert 99 not in states


class TestValueWidening:
    def _domain(self):
        exe = _raw_exe(DLXE, [Instr(op=Op.TRAP, imm=0)])
        cfg = build_cfg(exe, DLXE)
        return ValueDomain(cfg, preserved=frozenset(range(10, 14)))

    def test_widen_pushes_unstable_bounds(self):
        domain = self._domain()
        old = {3: Interval(0, 3), 4: Interval(5, 9), 5: Interval(1, 2)}
        joined = {3: Interval(0, 4), 4: Interval(4, 9), 5: Interval(1, 2)}
        widened = domain.widen(old, joined, at=0)
        assert widened[3] == Interval(0, U32_MAX)   # growing hi -> max
        assert widened[4] == Interval(0, 9)         # shrinking lo -> 0
        assert widened[5] == Interval(1, 2)         # stable -> untouched

    def test_infinite_counting_loop_terminates(self):
        # r3 increments forever; the fixpoint must still be reached
        # (widening blows the range open, the increment overflows it to
        # TOP, and the state stabilizes with r3 unknown).
        exe = _raw_exe(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=0),
            Instr(op=Op.ADDI, rd=3, rs1=3, imm=1),
            Instr(op=Op.BR, imm=-4),
        ])
        cfg = build_cfg(exe, DLXE)
        blocks = {b.start: b for b in cfg.function_blocks(0x1000)}
        domain = ValueDomain(cfg, preserved=frozenset(range(10, 14)))
        states = solve(blocks, 0x1000, domain)
        assert 0x1004 in states
        assert states[0x1004].get(3) is None        # widened out to TOP


# ------------------------------------------------------ seeded defects


def _analyze_raw(isa, instrs, **kwargs):
    return resolve_cfg(_raw_exe(isa, instrs, **kwargs), isa)


class TestAbsRules:
    def test_unbalanced_frame_at_return_abs001(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.ADDI, rd=15, rs1=15, imm=-8),
            Instr(op=Op.J, rs1=1),
        ])
        assert "ABS001" in _rules(result.findings)
        assert not result.functions["_start"].stack_balanced

    def test_balanced_frame_is_clean(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.SUBI, rd=15, rs1=15, imm=16),
            Instr(op=Op.ADDI, rd=15, rs1=15, imm=16),
            Instr(op=Op.J, rs1=1),
        ])
        assert result.findings == []
        assert result.functions["_start"].stack_balanced

    def test_out_of_memory_access_abs002(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVHI, rd=3, imm=0x10),      # 0x100000: first
            Instr(op=Op.LD, rd=2, rs1=3, imm=0),    # byte past memory
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS002"]
        assert findings and "outside" in findings[0].message

    def test_misaligned_access_abs002(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=6),
            Instr(op=Op.LD, rd=2, rs1=3, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS002"]
        assert findings and "misaligned" in findings[0].message

    def test_indirect_jump_to_non_code_abs003(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=0x40),       # below text_base
            Instr(op=Op.J, rs1=3),
        ])
        assert "ABS003" in _rules(result.findings)

    def test_branch_never_taken_abs004(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=0),
            Instr(op=Op.BNZ, rs1=3, imm=8),
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS004"]
        assert findings and "never" in findings[0].message

    def test_branch_always_taken_abs004(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=7),
            Instr(op=Op.BNZ, rs1=3, imm=8),
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS004"]
        assert findings and "always" in findings[0].message

    def test_counted_loop_is_clean(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.MVI, rd=3, imm=10),
            Instr(op=Op.SUBI, rd=3, rs1=3, imm=1),
            Instr(op=Op.BNZ, rs1=3, imm=-4),
            Instr(op=Op.TRAP, imm=0),
        ])
        assert result.findings == []

    def test_dlxe_r0_is_pinned_to_zero(self):
        result = _analyze_raw(DLXE, [
            Instr(op=Op.ADDI, rd=0, rs1=0, imm=5),  # write is discarded
            Instr(op=Op.BNZ, rs1=0, imm=8),         # so r0 is still 0
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS004"]
        assert findings and "never" in findings[0].message

    def test_d16_r0_is_a_real_register(self):
        result = _analyze_raw(D16, [
            Instr(op=Op.MVI, rd=0, imm=3),
            Instr(op=Op.BNZ, rs1=0, imm=4),
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS004"]
        assert findings and "always" in findings[0].message

    def test_zero_edge_refinement(self):
        # The taken edge of `bz` proves the test register is zero, so
        # a second `bz` on the same register is provably taken -- but
        # only the second one is reportable.
        result = _analyze_raw(DLXE, [
            Instr(op=Op.BZ, rs1=3, imm=8),          # unknown: silent
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.BZ, rs1=3, imm=8),          # r3 == 0: always
            Instr(op=Op.TRAP, imm=0),
            Instr(op=Op.TRAP, imm=0),
        ])
        findings = [f for f in result.findings if f.rule == "ABS004"]
        assert len(findings) == 1
        assert "always" in findings[0].message
        assert "0x1008" in findings[0].location


# ------------------------------------------- calls, summaries, recovery


def _call_program(reg):
    """_start zeroes ``reg``, calls f, then branches on ``reg``."""
    return [
        Instr(op=Op.MVI, rd=reg, imm=0),            # 0x1000
        Instr(op=Op.JLD, imm=0x1014),               # 0x1004  call f
        Instr(op=Op.BNZ, rs1=reg, imm=8),           # 0x1008
        Instr(op=Op.TRAP, imm=0),                   # 0x100c
        Instr(op=Op.TRAP, imm=0),                   # 0x1010
        Instr(op=Op.MVI, rd=4, imm=1),              # 0x1014  f
        Instr(op=Op.J, rs1=1),                      # 0x1018
    ]


class TestCallEffects:
    def test_callee_saved_register_survives_call(self):
        exe = _raw_exe(DLXE, _call_program(10), symbols={"f": 0x14})
        result = resolve_cfg(exe, DLXE)
        # r10 is assumed preserved: still provably zero after the call.
        assert "ABS004" in _rules(result.findings)

    def test_scratch_register_is_clobbered_by_call(self):
        exe = _raw_exe(DLXE, _call_program(5), symbols={"f": 0x14})
        result = resolve_cfg(exe, DLXE)
        assert "ABS004" not in _rules(result.findings)

    def test_function_summary_facts(self):
        exe = _raw_exe(DLXE, [
            Instr(op=Op.JLD, imm=0x1010),           # 0x1000  call f
            Instr(op=Op.TRAP, imm=1),               # 0x1004  putc
            Instr(op=Op.TRAP, imm=0),               # 0x1008  exit
            Instr(op=Op.NOP),                       # 0x100c  padding
            Instr(op=Op.MVI, rd=2, imm=42),         # 0x1010  f
            Instr(op=Op.J, rs1=1),                  # 0x1014
        ], symbols={"f": 0x10})
        result = resolve_cfg(exe, DLXE)
        start = result.functions["_start"]
        assert start.callees == ["f"]
        assert start.unresolved_calls == 0
        assert start.traps == [1, 0]
        assert result.returned_constant("f") == 42
        assert result.returned_constant("_start") is None


class TestResolveCfg:
    def test_recovers_indirectly_called_function(self):
        # The callee is reachable only through a register-indirect call
        # and has no symbol -- the plain sweep misses it, the
        # value-analysis feedback loop finds it.
        instrs = [
            Instr(op=Op.MVI, rd=3, imm=0x100C),     # 0x1000
            Instr(op=Op.JL, rs1=3),                 # 0x1004
            Instr(op=Op.TRAP, imm=0),               # 0x1008
            Instr(op=Op.MVI, rd=2, imm=7),          # 0x100c  hidden f
            Instr(op=Op.J, rs1=1),                  # 0x1010
        ]
        exe = _raw_exe(DLXE, instrs)
        plain = build_cfg(exe, DLXE)
        assert 0x100C not in plain.visited
        result = resolve_cfg(exe, DLXE)
        assert 0x100C in result.cfg.visited
        assert "fn_100c" in result.functions
        assert result.functions["_start"].callees == ["fn_100c"]
        assert result.returned_constant("fn_100c") == 7
        assert result.findings == []

    def test_unresolvable_call_is_counted_not_invented(self):
        exe = _raw_exe(DLXE, [
            Instr(op=Op.JL, rs1=9),                 # target unknown
            Instr(op=Op.TRAP, imm=0),
        ])
        result = resolve_cfg(exe, DLXE)
        assert result.functions["_start"].unresolved_calls == 1
        assert result.functions["_start"].callees == []


def _two_step_recovery(exe, isa, symbols, target):
    """Reference recovery: the value-feedback loop without direct-call
    promotion, then one round that makes every ``jld`` target that
    starts no function a root -- how images were recovered before
    :func:`resolve_cfg` promoted direct calls itself."""
    extra = {}
    for _round in range(64):
        cfg = build_cfg(exe, isa, symbols=symbols,
                        extra_funcs=extra or None)
        result = analyze_executable(cfg, target=target)
        new = sorted(t for t in result.resolved_targets
                     if t not in cfg.visited)
        if not new:
            break
        for t in new:
            extra[t] = f"fn_{t:x}"
    extra = {}
    for block in cfg.blocks.values():
        if not block.is_call:
            continue
        _pc, term = block.terminator
        if term.op != Op.JLD:
            continue
        tgt = term.imm
        fo = cfg.func_of(tgt)
        if fo is None or fo[0] != tgt:
            extra[tgt] = f"fn_{tgt:x}"
    if not extra:
        return cfg, result
    extra.update({addr: name for addr, name in cfg.funcs})
    cfg = build_cfg(exe, isa, symbols=symbols, extra_funcs=extra)
    result = analyze_executable(cfg, target=target)
    return cfg, result


def _block_shapes(cfg):
    return {start: ([pc for pc, _instr in block.instrs], block.succs,
                    block.indirect, block.is_call, block.is_return,
                    block.is_halt)
            for start, block in cfg.blocks.items()}


def _assert_recovery_matches(exe, target, labels, where):
    result = resolve_cfg(exe, target.isa, symbols=labels, target=target)
    cfg = result.cfg
    ref_cfg, ref_result = _two_step_recovery(exe, target.isa, labels,
                                             target)
    assert cfg.funcs == ref_cfg.funcs, where
    assert _block_shapes(cfg) == _block_shapes(ref_cfg), where
    assert result.functions == ref_result.functions, where
    assert result.findings == ref_result.findings, where
    for block in cfg.blocks.values():
        _pc, term = block.terminator
        if term.op == Op.JLD:
            assert cfg.func_of(term.imm)[0] == term.imm, where


class TestRecoveryReference:
    """:func:`resolve_cfg` against the two-step reference on toolchain
    images: Lab images keep only global symbols (D16 calls resolve
    through the value analysis, DLXe calls through promotion), file
    images carry every label."""

    @pytest.mark.parametrize("target_name", ["d16", "dlxe"])
    def test_lab_images(self, lab, target_name):
        target = get_target(target_name)
        for bench in SUITE:
            _assert_recovery_matches(
                lab.executable(bench.name, target_name), target, None,
                (bench.name, target_name))

    @pytest.mark.parametrize("target_name", ["d16", "dlxe"])
    def test_labelled_images(self, target_name):
        for bench in SUITE:
            built = build_executable(bench.source, target_name)
            _assert_recovery_matches(built.executable, built.target,
                                     built.labels,
                                     (bench.name, target_name))

    def test_direct_call_target_becomes_a_function(self):
        # No symbol names the callee: only the jld makes it a root.
        instrs = [
            Instr(op=Op.JLD, imm=0x100C),           # 0x1000
            Instr(op=Op.TRAP, imm=0),               # 0x1004
            Instr(op=Op.NOP),                       # 0x1008
            Instr(op=Op.MVI, rd=2, imm=7),          # 0x100c  hidden f
            Instr(op=Op.J, rs1=1),                  # 0x1010
        ]
        exe = _raw_exe(DLXE, instrs)
        assert build_cfg(exe, DLXE).funcs == [(0x1000, "_start")]
        result = resolve_cfg(exe, DLXE)
        assert (0x100C, "fn_100c") in result.cfg.funcs
        assert result.functions["_start"].callees == ["fn_100c"]
        assert result.returned_constant("fn_100c") == 7


# ----------------------------------------------- real toolchain output


@pytest.mark.parametrize("target", ["d16", "dlxe"])
def test_compiled_program_analyzes_clean(target):
    result = analyze_source("int main() { return 5; }", target)
    assert result.findings == []
    assert "main" in result.functions
    assert result.returned_constant("main") == 5
