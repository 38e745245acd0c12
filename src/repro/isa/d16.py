"""D16: the 16-bit instruction encoding (paper Figure 1, Table 1).

Formats (our concrete bit assignment; the paper's figure fixes the field
*widths* and semantic limits, which we honour, but not every prefix bit):

====== ================================================== =================
format layout (msb .. lsb)                                 payload
====== ================================================== =================
MEM    ``1  op2  off5  ry4  rx4``                          ld/st, word offset
RI     ``1  10   op4   imm5 rx4``                          addi/subi/shifts/trap
RR     ``01 op6  ry4   rx4``                               everything 2-address
MVI    ``001 imm9 rx4``                                    move immediate
BR     ``0001 op2 off10``                                  br/bz/bnz, PC-relative
LDC    ``00001 off7 rx4``                                  PC-relative pool load
====== ================================================== =================

Semantic limits per the paper:

* load/store word offsets are word-scaled 5-bit unsigned (0..124 bytes);
  subword modes are not offsettable (encoded in RR with implicit offset 0);
* ALU immediates (addi/subi/shifts) are unsigned 5 bits;
* mvi immediates are signed 9 bits;
* branches reach signed 10-bit halfword offsets (±1 KiB);
* compares write the implicit destination r0 and support only
  lt/ltu/le/leu/eq/neq;
* three-operand forms require ``rd == rs1`` (two-address).

Deviation (documented in DESIGN.md): our LDC reaches ±512 bytes of
PC-relative constant pool rather than the paper's -4096; the code generator
places literal pools close to their uses, exactly as Thumb compilers do.
"""

from __future__ import annotations

from .common import (EncodingError, DecodingError, fits_signed,
                     fits_unsigned, sign_extend)
from .instruction import Instr
from .operations import Cond, D16_CONDS, Op, fp_pair_error

WIDTH_BYTES = 2
NUM_GREGS = 16
NUM_FREGS = 16

MEM_OFF_BITS = 5       # word-scaled, unsigned
RI_IMM_BITS = 5        # unsigned
MVI_IMM_BITS = 9       # signed
BR_OFF_BITS = 10       # halfword-scaled, signed
LDC_OFF_BITS = 7       # word-scaled, signed

MAX_MEM_OFFSET = ((1 << MEM_OFF_BITS) - 1) * 4          # 124 bytes
MAX_RI_IMM = (1 << RI_IMM_BITS) - 1                     # 31
BR_RANGE = (-(1 << (BR_OFF_BITS - 1)) * 2,              # -1024 bytes
            ((1 << (BR_OFF_BITS - 1)) - 1) * 2)         # +1022 bytes
LDC_RANGE = (-(1 << (LDC_OFF_BITS - 1)) * 4,            # -512 bytes
             ((1 << (LDC_OFF_BITS - 1)) - 1) * 4)       # +508 bytes

_RI_OPS = {Op.ADDI: 0, Op.SUBI: 1, Op.SHRAI: 2, Op.SHRI: 3, Op.SHLI: 4,
           Op.TRAP: 5}
_RI_DECODE = {v: k for k, v in _RI_OPS.items()}

_BR_OPS = {Op.BR: 0, Op.BZ: 1, Op.BNZ: 2}
_BR_DECODE = {v: k for k, v in _BR_OPS.items()}

_COND_ORDER = (Cond.LT, Cond.LTU, Cond.LE, Cond.LEU, Cond.EQ, Cond.NE)

# RR opcode map.  Each entry: op (or (op, cond)) -> 6-bit opcode.
_RR_OPS: dict[object, int] = {}


def _assign_rr() -> None:
    code = 0

    def nxt(key):
        nonlocal code
        _RR_OPS[key] = code
        code += 1

    for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NEG, Op.INV,
               Op.SHRA, Op.SHR, Op.SHL, Op.MV):
        nxt(op)
    for cond in _COND_ORDER:
        nxt((Op.CMP, cond))
    for op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU, Op.STH, Op.STB):
        nxt(op)
    for op in (Op.J, Op.JZ, Op.JNZ, Op.JL):
        nxt(op)
    for op in (Op.MUL, Op.DIV, Op.REM):
        nxt(op)
    for op in (Op.ADD_SF, Op.SUB_SF, Op.MUL_SF, Op.DIV_SF, Op.NEG_SF,
               Op.ADD_DF, Op.SUB_DF, Op.MUL_DF, Op.DIV_DF, Op.NEG_DF):
        nxt(op)
    for cond in _COND_ORDER:
        nxt((Op.CMP_SF, cond))
    for cond in _COND_ORDER:
        nxt((Op.CMP_DF, cond))
    for op in (Op.SI2SF, Op.SI2DF, Op.SF2SI, Op.DF2SI, Op.SF2DF, Op.DF2SF,
               Op.MV_SF, Op.MV_DF, Op.MVIF, Op.MVFI, Op.RDSR, Op.NOP):
        nxt(op)
    if code > 64:
        raise AssertionError(f"D16 RR opcode space overflow: {code} > 64")


_assign_rr()
_RR_DECODE = {v: k for k, v in _RR_OPS.items()}

#: Ops with no D16 encoding at all.
UNSUPPORTED_OPS = frozenset({
    Op.JD, Op.JLD, Op.CMPI, Op.ANDI, Op.ORI, Op.XORI, Op.MVHI,
})


def _check_reg(value: int | None, what: str) -> int:
    if value is None or not 0 <= value < 16:
        raise EncodingError(f"D16 {what} register out of range: {value}")
    return value


def supports(instr: Instr) -> str | None:
    """Return None if ``instr`` is D16-encodable, else a reason string."""
    op = instr.op
    if op in UNSUPPORTED_OPS:
        return f"{op.value} has no D16 encoding"
    for _field, _cls, index in instr.reg_operands():
        if not 0 <= index < 16:
            return f"register {index} exceeds D16's 16-register file"
    pair = fp_pair_error(instr, NUM_FREGS)
    if pair is not None:
        return pair
    if op in (Op.LD, Op.ST):
        if instr.imm % 4 != 0 or not 0 <= instr.imm <= MAX_MEM_OFFSET:
            return (f"word offset {instr.imm} outside D16 range "
                    f"0..{MAX_MEM_OFFSET} (word-aligned)")
    elif op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU, Op.STH, Op.STB):
        if instr.imm != 0:
            return "D16 subword addressing modes are not offsettable"
    elif op in (Op.ADDI, Op.SUBI, Op.SHRAI, Op.SHRI, Op.SHLI, Op.TRAP):
        if not fits_unsigned(instr.imm, RI_IMM_BITS):
            return f"immediate {instr.imm} exceeds D16's unsigned 5 bits"
        if op != Op.TRAP and instr.rd != instr.rs1:
            return "D16 immediate ops are two-address (rd must equal rs1)"
    elif op == Op.MVI:
        if not fits_signed(instr.imm, MVI_IMM_BITS):
            return f"immediate {instr.imm} exceeds D16's signed 9 bits"
    elif op in (Op.BZ, Op.BNZ):
        if instr.rs1 != 0:
            return "D16 conditional branches test the implicit register r0"
        if not BR_RANGE[0] <= instr.imm <= BR_RANGE[1] or instr.imm % 2:
            return f"branch offset {instr.imm} outside D16 range {BR_RANGE}"
    elif op == Op.BR:
        if not BR_RANGE[0] <= instr.imm <= BR_RANGE[1] or instr.imm % 2:
            return f"branch offset {instr.imm} outside D16 range {BR_RANGE}"
    elif op == Op.LDC:
        if not LDC_RANGE[0] <= instr.imm <= LDC_RANGE[1] or instr.imm % 4:
            return f"ldc offset {instr.imm} outside D16 range {LDC_RANGE}"
    elif op in (Op.CMP, Op.CMP_SF, Op.CMP_DF):
        if instr.cond not in D16_CONDS:
            return f"D16 compares do not implement {instr.cond.value}"
        if op == Op.CMP and instr.rd != 0:
            return "D16 integer compares write the implicit destination r0"
    elif op.value in ("add", "sub", "and", "or", "xor", "shra", "shr", "shl",
                      "mul", "div", "rem", "add.sf", "sub.sf", "mul.sf",
                      "div.sf", "add.df", "sub.df", "mul.df", "div.df"):
        if instr.rd != instr.rs1:
            return "D16 three-operand ops are two-address (rd must equal rs1)"
    return None


def encode(instr: Instr) -> int:
    """Encode ``instr`` into a 16-bit word, or raise :class:`EncodingError`."""
    reason = supports(instr)
    if reason is not None:
        raise EncodingError(reason)
    op = instr.op

    if op in (Op.LD, Op.ST):
        op2 = 0 if op == Op.LD else 1
        data = instr.rd if op == Op.LD else instr.rs2
        return (1 << 15 | op2 << 13 | (instr.imm // 4) << 8
                | _check_reg(instr.rs1, "base") << 4 | _check_reg(data, "data"))

    if op in _RI_OPS:
        rx = 0 if op == Op.TRAP else _check_reg(instr.rd, "rd")
        return (1 << 15 | 2 << 13 | _RI_OPS[op] << 9
                | (instr.imm & 0x1F) << 4 | rx)

    if op == Op.MVI:
        return (1 << 13 | (instr.imm & 0x1FF) << 4
                | _check_reg(instr.rd, "rd"))

    if op in _BR_OPS:
        return 1 << 12 | _BR_OPS[op] << 10 | ((instr.imm // 2) & 0x3FF)

    if op == Op.LDC:
        return (1 << 11 | ((instr.imm // 4) & 0x7F) << 4
                | _check_reg(instr.rd, "rd"))

    # Everything else lives in the RR format.
    key = (op, instr.cond) if instr.cond is not None else op
    if key not in _RR_OPS:
        raise EncodingError(f"{op.value} has no D16 RR opcode")
    rx, ry = _rr_fields(instr)
    return 1 << 14 | _RR_OPS[key] << 8 | ry << 4 | rx


def _rr_fields(instr: Instr) -> tuple[int, int]:
    """Map instruction fields onto the RR (rx, ry) slots."""
    op = instr.op
    if op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHRA, Op.SHR, Op.SHL,
              Op.MUL, Op.DIV, Op.REM, Op.ADD_SF, Op.SUB_SF, Op.MUL_SF,
              Op.DIV_SF, Op.ADD_DF, Op.SUB_DF, Op.MUL_DF, Op.DIV_DF):
        return _check_reg(instr.rd, "rd"), _check_reg(instr.rs2, "rs2")
    if op in (Op.NEG, Op.INV, Op.MV, Op.NEG_SF, Op.NEG_DF, Op.SI2SF,
              Op.SI2DF, Op.SF2SI, Op.DF2SI, Op.SF2DF, Op.DF2SF,
              Op.MV_SF, Op.MV_DF, Op.MVIF, Op.MVFI):
        return _check_reg(instr.rd, "rd"), _check_reg(instr.rs1, "rs1")
    if op in (Op.CMP, Op.CMP_SF, Op.CMP_DF):
        return _check_reg(instr.rs1, "rs1"), _check_reg(instr.rs2, "rs2")
    if op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
        return _check_reg(instr.rd, "rd"), _check_reg(instr.rs1, "base")
    if op in (Op.STH, Op.STB):
        return _check_reg(instr.rs2, "data"), _check_reg(instr.rs1, "base")
    if op in (Op.J, Op.JL):
        return _check_reg(instr.rs1, "target"), 0
    if op in (Op.JZ, Op.JNZ):
        return _check_reg(instr.rs1, "target"), _check_reg(instr.rs2, "test")
    if op == Op.RDSR:
        return _check_reg(instr.rd, "rd"), 0
    if op == Op.NOP:
        return 0, 0
    raise EncodingError(f"no RR field mapping for {op.value}")


def decode(word: int) -> Instr:
    """Decode a 16-bit word back into an :class:`Instr`."""
    if not 0 <= word <= 0xFFFF:
        raise DecodingError(f"not a 16-bit word: {word:#x}")

    if word >> 15:                              # MEM / RI page
        page = (word >> 13) & 0x3
        if page == 0:
            return Instr(Op.LD, rd=word & 0xF, rs1=(word >> 4) & 0xF,
                         imm=((word >> 8) & 0x1F) * 4)
        if page == 1:
            return Instr(Op.ST, rs2=word & 0xF, rs1=(word >> 4) & 0xF,
                         imm=((word >> 8) & 0x1F) * 4)
        if page == 2:
            code = (word >> 9) & 0xF
            if code not in _RI_DECODE:
                raise DecodingError(f"bad D16 RI opcode {code}")
            op = _RI_DECODE[code]
            imm = (word >> 4) & 0x1F
            if op == Op.TRAP:
                if word & 0xF:
                    raise DecodingError(
                        f"junk in D16 trap register field: {word:#06x}")
                return Instr(op, imm=imm)
            rx = word & 0xF
            return Instr(op, rd=rx, rs1=rx, imm=imm)
        raise DecodingError(f"reserved D16 MEM page in {word:#06x}")

    if word >> 14:                              # RR
        key = _RR_DECODE.get((word >> 8) & 0x3F)
        if key is None:
            raise DecodingError(f"bad D16 RR opcode in {word:#06x}")
        op, cond = key if isinstance(key, tuple) else (key, None)
        rx, ry = word & 0xF, (word >> 4) & 0xF
        instr = _rr_decode(op, cond, rx, ry)
        pair = fp_pair_error(instr, NUM_FREGS)
        if pair is not None:
            raise DecodingError(f"{pair}: {word:#06x}")
        return instr

    if word >> 13:                              # MVI
        return Instr(Op.MVI, rd=word & 0xF,
                     imm=sign_extend(word >> 4, MVI_IMM_BITS))

    if word >> 12:                              # BR
        code = (word >> 10) & 0x3
        if code not in _BR_DECODE:
            raise DecodingError(f"bad D16 branch opcode in {word:#06x}")
        op = _BR_DECODE[code]
        imm = sign_extend(word, BR_OFF_BITS) * 2
        if op == Op.BR:
            return Instr(op, imm=imm)
        return Instr(op, rs1=0, imm=imm)

    if word >> 11:                              # LDC
        return Instr(Op.LDC, rd=word & 0xF,
                     imm=sign_extend(word >> 4, LDC_OFF_BITS) * 4)

    raise DecodingError(f"reserved D16 encoding {word:#06x}")


def _rr_decode(op: Op, cond: Cond | None, rx: int, ry: int) -> Instr:
    if op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHRA, Op.SHR, Op.SHL,
              Op.MUL, Op.DIV, Op.REM, Op.ADD_SF, Op.SUB_SF, Op.MUL_SF,
              Op.DIV_SF, Op.ADD_DF, Op.SUB_DF, Op.MUL_DF, Op.DIV_DF):
        return Instr(op, rd=rx, rs1=rx, rs2=ry)
    if op in (Op.NEG, Op.INV, Op.MV, Op.NEG_SF, Op.NEG_DF, Op.SI2SF,
              Op.SI2DF, Op.SF2SI, Op.DF2SI, Op.SF2DF, Op.DF2SF,
              Op.MV_SF, Op.MV_DF, Op.MVIF, Op.MVFI):
        return Instr(op, rd=rx, rs1=ry)
    if op == Op.CMP:
        return Instr(op, cond=cond, rd=0, rs1=rx, rs2=ry)
    if op in (Op.CMP_SF, Op.CMP_DF):
        return Instr(op, cond=cond, rs1=rx, rs2=ry)
    if op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
        return Instr(op, rd=rx, rs1=ry, imm=0)
    if op in (Op.STH, Op.STB):
        return Instr(op, rs2=rx, rs1=ry, imm=0)
    if op in (Op.J, Op.JL):
        if ry:
            raise DecodingError(f"junk in D16 {op.value} ry field: {ry}")
        return Instr(op, rs1=rx)
    if op in (Op.JZ, Op.JNZ):
        return Instr(op, rs1=rx, rs2=ry)
    if op == Op.RDSR:
        if ry:
            raise DecodingError(f"junk in D16 rdsr ry field: {ry}")
        return Instr(op, rd=rx)
    if op == Op.NOP:
        if rx or ry:
            raise DecodingError(f"junk in D16 nop register fields: "
                                f"rx={rx} ry={ry}")
        return Instr(op)
    raise DecodingError(f"unhandled RR op {op.value}")
