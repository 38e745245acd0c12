"""Hypothesis strategies for generating valid machine instructions."""

from __future__ import annotations

from hypothesis import assume, strategies as st

from repro.isa import D16, DLXE, Instr, OP_INFO, Op
from repro.isa.operations import Cond, D16_CONDS, fp_pair_error

_D16_REG = st.integers(min_value=0, max_value=15)
_DLXE_REG = st.integers(min_value=0, max_value=31)


def _imm_strategy_d16(op: Op):
    if op in (Op.LD, Op.ST):
        return st.integers(0, 31).map(lambda w: w * 4)
    if op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU, Op.STH, Op.STB):
        return st.just(0)
    if op in (Op.ADDI, Op.SUBI, Op.SHRAI, Op.SHRI, Op.SHLI, Op.TRAP):
        return st.integers(0, 31)
    if op == Op.MVI:
        return st.integers(-256, 255)
    if op in (Op.BR, Op.BZ, Op.BNZ):
        return st.integers(-512, 511).map(lambda h: h * 2)
    if op == Op.LDC:
        return st.integers(-64, 63).map(lambda w: w * 4)
    return st.just(0)


def _imm_strategy_dlxe(op: Op):
    if op in (Op.BZ, Op.BNZ):
        return st.integers(-(1 << 15), (1 << 15) - 1).map(lambda w: w * 4)
    if op == Op.BR:
        return st.integers(-(1 << 23), (1 << 23) - 1).map(lambda w: w * 4)
    if op in (Op.JD, Op.JLD):
        return st.integers(0, (1 << 20) - 1).map(lambda w: w * 4)
    if op in (Op.MVHI, Op.TRAP):
        return st.integers(0, 0xFFFF)
    return st.integers(-32768, 32767)


def _build(op: Op, reg, imm_strategy, conds):
    info = OP_INFO[op]
    parts = {}
    if "cond" in info.signature:
        parts["cond"] = st.sampled_from(sorted(conds, key=lambda c: c.value))
    for field in ("rd", "rs1", "rs2"):
        if field in info.signature:
            parts[field] = reg
    if "imm" in info.signature:
        parts["imm"] = imm_strategy(op)
    return st.fixed_dictionaries(parts).map(lambda kv: Instr(op=op, **kv))


def _constrain_d16(instr: Instr) -> Instr:
    """Rewrite a random instruction to satisfy D16's structural rules."""
    op = instr.op
    updates = {}
    if op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHRA, Op.SHR,
              Op.SHL, Op.MUL, Op.DIV, Op.REM, Op.ADD_SF, Op.SUB_SF,
              Op.MUL_SF, Op.DIV_SF, Op.ADD_DF, Op.SUB_DF, Op.MUL_DF,
              Op.DIV_DF, Op.ADDI, Op.SUBI, Op.SHRAI, Op.SHRI, Op.SHLI):
        if instr.rs1 is not None:
            updates["rs1"] = instr.rd
    if op == Op.CMP:
        updates["rd"] = 0
    if op in (Op.BZ, Op.BNZ):
        updates["rs1"] = 0
    if updates:
        return Instr(op=instr.op, rd=updates.get("rd", instr.rd),
                     rs1=updates.get("rs1", instr.rs1), rs2=instr.rs2,
                     imm=instr.imm, cond=instr.cond)
    return instr


def _d16_op_list():
    from repro.isa.d16 import UNSUPPORTED_OPS
    return sorted((op for op in Op if op not in UNSUPPORTED_OPS),
                  key=lambda o: o.value)


def _dlxe_op_list():
    from repro.isa.dlxe import UNSUPPORTED_OPS

    # Canonicalization rewrites these r0-based synonyms onto base ops.
    pseudo_ops = {Op.MV, Op.MVI, Op.NEG, Op.INV}
    return sorted((op for op in Op
                   if op not in UNSUPPORTED_OPS and op not in pseudo_ops),
                  key=lambda o: o.value)


@st.composite
def d16_instructions(draw):
    """A random instruction valid under the D16 encoding."""
    op = draw(st.sampled_from(_d16_op_list()))
    instr = draw(_build(op, _D16_REG, _imm_strategy_d16, D16_CONDS))
    instr = _constrain_d16(instr)
    # A double-precision pair may not start at the last FP register.
    assume(fp_pair_error(instr, D16.num_fregs) is None)
    reason = D16.supports(instr)
    if reason is not None:  # pragma: no cover - strategy bug guard
        raise AssertionError(f"strategy produced invalid D16: {reason}")
    return instr


@st.composite
def dlxe_instructions(draw):
    """A random instruction valid under the DLXe encoding."""
    op = draw(st.sampled_from(_dlxe_op_list()))
    instr = draw(_build(op, _DLXE_REG, _imm_strategy_dlxe, set(Cond)))
    assume(fp_pair_error(instr, DLXE.num_fregs) is None)
    reason = DLXE.supports(instr)
    if reason is not None:  # pragma: no cover
        raise AssertionError(f"strategy produced invalid DLXe: {reason}")
    return instr
