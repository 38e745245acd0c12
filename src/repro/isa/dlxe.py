"""DLXe: the 32-bit instruction encoding (paper Figure 2, Table 1).

DLXe is the paper's variant of DLX [HP90]: three formats, 32 general and 32
floating-point registers, 16-bit immediates for every addressing mode, and
full three-address ALU operations.

====== ============================================== ====================
format layout (msb .. lsb)                             used by
====== ============================================== ====================
I-type ``op6 rs1_5 rd5 imm16``                         loads/stores, ALU-imm,
                                                       cmpi, bz/bnz, mvhi, trap
R-type ``op6=0 rs1_5 rs2_5 rd5 func11``                three-address ALU, cmp,
                                                       jumps, FP, conversions
J-type ``op6 offset26``                                br, jd, jld
====== ============================================== ====================

All I-type immediates are *signed* 16 bits (including the logical
immediates — this is what makes the paper's "``inv`` is unneeded" claim
work: ``inv rd, rs`` is ``xori rd, rs, -1``).  Branch and BR offsets are
word-scaled.  ``jd``/``jld`` carry word-scaled absolute addresses.

Pseudo-operations with no DLXe opcode (``mv``, ``mvi``, ``neg``, ``inv``)
are canonicalized onto the base ISA by :func:`canonicalize`, which
:func:`encode` applies automatically — exactly the r0-based synonyms the
paper describes.
"""

from __future__ import annotations

from .common import (EncodingError, DecodingError, fits_signed,
                     fits_unsigned, sign_extend)
from .instruction import Instr
from .operations import Cond, Op, fp_pair_error

WIDTH_BYTES = 4
NUM_GREGS = 32
NUM_FREGS = 32

IMM_BITS = 16
BR_OFF_BITS = 16       # word-scaled, signed: +/- 128 KiB
J_OFF_BITS = 26

BR_RANGE = (-(1 << (BR_OFF_BITS - 1)) * 4, ((1 << (BR_OFF_BITS - 1)) - 1) * 4)

_COND_ORDER = (Cond.LT, Cond.LTU, Cond.LE, Cond.LEU, Cond.EQ, Cond.NE,
               Cond.GT, Cond.GTU, Cond.GE, Cond.GEU)

# I-type opcode map (op -> 6-bit major opcode; 0 is reserved for R-type).
_I_OPS: dict[object, int] = {}
# J-type opcode map.
_J_OPS: dict[Op, int] = {}
# R-type func map (op or (op, cond) -> 11-bit func).
_R_FUNCS: dict[object, int] = {}


def _assign() -> None:
    code = 1

    def i_op(key):
        nonlocal code
        _I_OPS[key] = code
        code += 1

    for op in (Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU,
               Op.ST, Op.STH, Op.STB,
               Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI,
               Op.SHRAI, Op.SHRI, Op.SHLI,
               Op.MVHI, Op.BZ, Op.BNZ, Op.TRAP):
        i_op(op)
    for cond in _COND_ORDER:
        i_op((Op.CMPI, cond))
    for op in (Op.BR, Op.JD, Op.JLD):
        _J_OPS[op] = code
        code += 1
    if code > 64:
        raise AssertionError(f"DLXe major opcode overflow: {code}")

    func = 0

    def r_op(key):
        nonlocal func
        _R_FUNCS[key] = func
        func += 1

    for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
               Op.SHRA, Op.SHR, Op.SHL, Op.MUL, Op.DIV, Op.REM):
        r_op(op)
    for cond in _COND_ORDER:
        r_op((Op.CMP, cond))
    for op in (Op.J, Op.JZ, Op.JNZ, Op.JL):
        r_op(op)
    for op in (Op.ADD_SF, Op.SUB_SF, Op.MUL_SF, Op.DIV_SF, Op.NEG_SF,
               Op.ADD_DF, Op.SUB_DF, Op.MUL_DF, Op.DIV_DF, Op.NEG_DF):
        r_op(op)
    for cond in _COND_ORDER:
        r_op((Op.CMP_SF, cond))
    for cond in _COND_ORDER:
        r_op((Op.CMP_DF, cond))
    for op in (Op.SI2SF, Op.SI2DF, Op.SF2SI, Op.DF2SI, Op.SF2DF, Op.DF2SF,
               Op.MV_SF, Op.MV_DF, Op.MVIF, Op.MVFI, Op.RDSR, Op.NOP):
        r_op(op)


_assign()
_I_DECODE = {v: k for k, v in _I_OPS.items()}
_J_DECODE = {v: k for k, v in _J_OPS.items()}
_R_DECODE = {v: k for k, v in _R_FUNCS.items()}

#: Ops with no DLXe encoding even after canonicalization.
UNSUPPORTED_OPS = frozenset({Op.LDC})


def canonicalize(instr: Instr) -> Instr:
    """Rewrite pseudo-ops onto base DLXe operations using r0 == 0."""
    op = instr.op
    if op == Op.MV:
        return Instr(Op.ADD, rd=instr.rd, rs1=instr.rs1, rs2=0)
    if op == Op.MVI:
        return Instr(Op.ADDI, rd=instr.rd, rs1=0, imm=instr.imm)
    if op == Op.NEG:
        return Instr(Op.SUB, rd=instr.rd, rs1=0, rs2=instr.rs1)
    if op == Op.INV:
        return Instr(Op.XORI, rd=instr.rd, rs1=instr.rs1, imm=-1)
    return instr


def supports(instr: Instr) -> str | None:
    """Return None if ``instr`` is DLXe-encodable, else a reason string."""
    instr = canonicalize(instr)
    op = instr.op
    if op in UNSUPPORTED_OPS:
        return f"{op.value} has no DLXe encoding"
    for _field, _cls, index in instr.reg_operands():
        if not 0 <= index < 32:
            return f"register {index} exceeds DLXe's 32-register file"
    pair = fp_pair_error(instr, NUM_FREGS)
    if pair is not None:
        return pair
    if op in _I_OPS or (op == Op.CMPI):
        imm = instr.imm
        if op in (Op.MVHI, Op.TRAP):
            if not fits_unsigned(imm, IMM_BITS):
                return f"immediate {imm} exceeds unsigned 16 bits"
        elif op in (Op.BZ, Op.BNZ):
            if imm % 4 or not BR_RANGE[0] <= imm <= BR_RANGE[1]:
                return f"branch offset {imm} outside DLXe range {BR_RANGE}"
        elif not fits_signed(imm, IMM_BITS):
            return f"immediate {imm} exceeds signed 16 bits"
    elif op == Op.BR:
        if instr.imm % 4 or not fits_signed(instr.imm // 4, J_OFF_BITS):
            return f"br offset {instr.imm} outside DLXe J-type range"
    elif op in (Op.JD, Op.JLD):
        if instr.imm % 4 or not fits_unsigned(instr.imm // 4, J_OFF_BITS):
            return f"jump target {instr.imm:#x} outside DLXe J-type range"
    return None


def encode(instr: Instr) -> int:
    """Encode ``instr`` into a 32-bit word, or raise :class:`EncodingError`."""
    instr = canonicalize(instr)
    reason = supports(instr)
    if reason is not None:
        raise EncodingError(reason)
    op = instr.op

    if op == Op.CMPI:
        major = _I_OPS[(Op.CMPI, instr.cond)]
        return (major << 26 | instr.rs1 << 21 | instr.rd << 16
                | (instr.imm & 0xFFFF))
    if op in _I_OPS:
        major = _I_OPS[op]
        rs1 = instr.rs1 or 0
        imm = instr.imm
        if op in (Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
            rd = instr.rd
        elif op in (Op.ST, Op.STH, Op.STB):
            rd = instr.rs2
        elif op in (Op.BZ, Op.BNZ):
            rd, imm = 0, instr.imm // 4
        elif op in (Op.MVHI,):
            rd = instr.rd
        elif op == Op.TRAP:
            rd = 0
        else:
            rd = instr.rd
        return major << 26 | rs1 << 21 | rd << 16 | (imm & 0xFFFF)

    if op in _J_OPS:
        off = instr.imm // 4
        return _J_OPS[op] << 26 | (off & 0x3FFFFFF)

    key = (op, instr.cond) if instr.cond is not None else op
    if key not in _R_FUNCS:
        raise EncodingError(f"{op.value} has no DLXe func code")
    rs1 = instr.rs1 or 0
    rs2 = instr.rs2 or 0
    rd = instr.rd or 0
    if op in (Op.CMP_SF, Op.CMP_DF):
        rd = 0
    return rs1 << 21 | rs2 << 16 | rd << 11 | _R_FUNCS[key]


def decode(word: int) -> Instr:
    """Decode a 32-bit word back into an :class:`Instr`."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise DecodingError(f"not a 32-bit word: {word:#x}")
    major = word >> 26

    if major == 0:
        func = word & 0x7FF
        key = _R_DECODE.get(func)
        if key is None:
            raise DecodingError(f"bad DLXe func {func} in {word:#010x}")
        op, cond = key if isinstance(key, tuple) else (key, None)
        rs1 = (word >> 21) & 0x1F
        rs2 = (word >> 16) & 0x1F
        rd = (word >> 11) & 0x1F
        instr = _r_decode(op, cond, rd, rs1, rs2)
        pair = fp_pair_error(instr, NUM_FREGS)
        if pair is not None:
            raise DecodingError(f"{pair}: {word:#010x}")
        return instr

    if major in _J_DECODE:
        op = _J_DECODE[major]
        off = word & 0x3FFFFFF
        if op == Op.BR:
            return Instr(op, imm=sign_extend(off, J_OFF_BITS) * 4)
        return Instr(op, imm=off * 4)

    key = _I_DECODE.get(major)
    if key is None:
        raise DecodingError(f"bad DLXe opcode {major} in {word:#010x}")
    rs1 = (word >> 21) & 0x1F
    rd = (word >> 16) & 0x1F
    imm = word & 0xFFFF
    simm = sign_extend(imm, IMM_BITS)
    if isinstance(key, tuple):
        op, cond = key
        return Instr(op, cond=cond, rd=rd, rs1=rs1, imm=simm)
    op = key
    if op in (Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
        return Instr(op, rd=rd, rs1=rs1, imm=simm)
    if op in (Op.ST, Op.STH, Op.STB):
        return Instr(op, rs2=rd, rs1=rs1, imm=simm)
    if op in (Op.BZ, Op.BNZ):
        if rd:
            raise DecodingError(
                f"junk in DLXe {op.value} rd slot: {word:#010x}")
        return Instr(op, rs1=rs1, imm=simm * 4)
    if op == Op.MVHI:
        if rs1:
            raise DecodingError(
                f"junk in DLXe mvhi rs1 slot: {word:#010x}")
        return Instr(op, rd=rd, imm=imm)
    if op == Op.TRAP:
        if rs1 or rd:
            raise DecodingError(
                f"junk in DLXe trap register slots: {word:#010x}")
        return Instr(op, imm=imm)
    return Instr(op, rd=rd, rs1=rs1, imm=simm)


def _r_decode(op: Op, cond, rd: int, rs1: int, rs2: int) -> Instr:
    def strict(**unused):
        junk = {name: value for name, value in unused.items() if value}
        if junk:
            raise DecodingError(
                f"junk in DLXe {op.value} unused register slots: {junk}")

    if op == Op.CMP:
        return Instr(op, cond=cond, rd=rd, rs1=rs1, rs2=rs2)
    if op in (Op.CMP_SF, Op.CMP_DF):
        strict(rd=rd)
        return Instr(op, cond=cond, rs1=rs1, rs2=rs2)
    if op in (Op.J, Op.JL):
        strict(rs2=rs2, rd=rd)
        return Instr(op, rs1=rs1)
    if op in (Op.JZ, Op.JNZ):
        strict(rd=rd)
        return Instr(op, rs1=rs1, rs2=rs2)
    if op in (Op.NEG_SF, Op.NEG_DF, Op.SI2SF, Op.SI2DF, Op.SF2SI,
              Op.DF2SI, Op.SF2DF, Op.DF2SF, Op.MV_SF, Op.MV_DF,
              Op.MVIF, Op.MVFI):
        strict(rs2=rs2)
        return Instr(op, rd=rd, rs1=rs1)
    if op == Op.RDSR:
        strict(rs1=rs1, rs2=rs2)
        return Instr(op, rd=rd)
    if op == Op.NOP:
        strict(rd=rd, rs1=rs1, rs2=rs2)
        return Instr(op)
    return Instr(op, rd=rd, rs1=rs1, rs2=rs2)
