"""The shared operation vocabulary of the D16 and DLXe instruction sets.

The paper's central experimental control is that both encodings drive the
*same* pipeline with the *same* operation repertoire (its Table 1).  We
therefore define one semantic operation set here; ``d16.py`` and ``dlxe.py``
only decide how (and whether) each operation can be *encoded*.

Operand-field conventions used throughout the package:

* ``rd``  — destination register
* ``rs1`` — first source register (also the jump target register)
* ``rs2`` — second source register (also the store data / jump test register)
* ``imm`` — immediate or offset
* ``cond``— comparison condition

Whether a register field names a general register or a floating-point
register is given by the op's :class:`OpInfo` (``reg_class``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .instruction import Instr


class Op(enum.Enum):
    """Semantic operations executed by the shared pipeline."""

    # Memory (Table 1, row 1).
    LD = "ld"
    LDH = "ldh"
    LDHU = "ldhu"
    LDB = "ldb"
    LDBU = "ldbu"
    ST = "st"
    STH = "sth"
    STB = "stb"
    LDC = "ldc"          # D16-only PC-relative constant-pool load

    # Control transfer (Table 1, rows 2-3).
    BR = "br"            # PC-relative unconditional
    BZ = "bz"            # PC-relative if rs1 == 0 (D16: rs1 must be r0)
    BNZ = "bnz"          # PC-relative if rs1 != 0
    J = "j"              # absolute, target in rs1
    JZ = "jz"            # absolute if rs2 == 0, target in rs1
    JNZ = "jnz"          # absolute if rs2 != 0, target in rs1
    JL = "jl"            # absolute call, link in r1
    JD = "jd"            # DLXe-only direct (J-type) jump
    JLD = "jld"          # DLXe-only direct (J-type) call

    # Integer compare (Table 1, row 4).
    CMP = "cmp"          # rd = (rs1 cond rs2); D16: rd fixed to r0
    CMPI = "cmpi"        # DLXe-only immediate comparand

    # Integer ALU (Table 1, rows 5-8).
    ADD = "add"
    ADDI = "addi"
    SUB = "sub"
    SUBI = "subi"
    AND = "and"
    OR = "or"
    XOR = "xor"
    ANDI = "andi"        # DLXe-only
    ORI = "ori"          # DLXe-only
    XORI = "xori"        # DLXe-only
    NEG = "neg"          # D16-only encoding (DLXe uses sub rd,r0,rs)
    INV = "inv"          # D16-only encoding (DLXe uses xori rd,rs,-1)
    SHRA = "shra"
    SHRAI = "shrai"
    SHR = "shr"
    SHRI = "shri"
    SHL = "shl"
    SHLI = "shli"
    MV = "mv"
    MVI = "mvi"          # D16: signed 9-bit; DLXe encodes as addi rd,r0,imm
    MVHI = "mvhi"        # DLXe-only: rd = imm << 16

    # Integer multiply/divide, executed by the math unit (see DESIGN.md).
    MUL = "mul"
    DIV = "div"
    REM = "rem"

    # Floating point (Table 1, rows 9-10).  ``_SF`` = single, ``_DF`` = double.
    ADD_SF = "add.sf"
    SUB_SF = "sub.sf"
    MUL_SF = "mul.sf"
    DIV_SF = "div.sf"
    NEG_SF = "neg.sf"
    CMP_SF = "cmp.sf"    # sets the FP status register (read with rdsr)
    ADD_DF = "add.df"
    SUB_DF = "sub.df"
    MUL_DF = "mul.df"
    DIV_DF = "div.df"
    NEG_DF = "neg.df"
    CMP_DF = "cmp.df"

    # Mode conversions (Table 1, row 11).  All operate FPR -> FPR; integers
    # reach the FPU through mvif/mvfi because neither ISA has direct FP
    # loads/stores (the paper's stated DLXe restriction).
    SI2SF = "si2sf"
    SI2DF = "si2df"
    SF2SI = "sf2si"
    DF2SI = "df2si"
    SF2DF = "sf2df"
    DF2SF = "df2sf"

    # FP register moves (DLX's MOVF/MOVD equivalents).
    MV_SF = "mv.sf"
    MV_DF = "mv.df"

    # GPR <-> FPR bit moves (the FPU interface).
    MVIF = "mvif"        # fpr[rd] = gpr[rs1] (raw bits)
    MVFI = "mvfi"        # gpr[rd] = fpr[rs1] (raw bits)

    # Special (Table 1, row 12).
    TRAP = "trap"
    RDSR = "rdsr"        # rd = FP status register; D16: rd fixed to r0
    NOP = "nop"


class Cond(enum.Enum):
    """Comparison conditions.

    D16 hardware implements only the first six; the rest are DLXe-only
    (Table 1: "DLXe allows ... also gt, gtu, ge, geu").
    """

    LT = "lt"
    LTU = "ltu"
    LE = "le"
    LEU = "leu"
    EQ = "eq"
    NE = "neq"
    GT = "gt"
    GTU = "gtu"
    GE = "ge"
    GEU = "geu"


#: Conditions encodable by D16 compare instructions.
D16_CONDS = frozenset({Cond.LT, Cond.LTU, Cond.LE, Cond.LEU, Cond.EQ, Cond.NE})

#: Negation map, used by code generators to flip branch senses.
COND_NEGATE = {
    Cond.LT: Cond.GE, Cond.GE: Cond.LT,
    Cond.LTU: Cond.GEU, Cond.GEU: Cond.LTU,
    Cond.LE: Cond.GT, Cond.GT: Cond.LE,
    Cond.LEU: Cond.GTU, Cond.GTU: Cond.LEU,
    Cond.EQ: Cond.NE, Cond.NE: Cond.EQ,
}

#: Swap map: ``a cond b`` == ``b COND_SWAP[cond] a``.
COND_SWAP = {
    Cond.LT: Cond.GT, Cond.GT: Cond.LT,
    Cond.LTU: Cond.GTU, Cond.GTU: Cond.LTU,
    Cond.LE: Cond.GE, Cond.GE: Cond.LE,
    Cond.LEU: Cond.GEU, Cond.GEU: Cond.LEU,
    Cond.EQ: Cond.EQ, Cond.NE: Cond.NE,
}


class OpKind(enum.Enum):
    """Coarse operation class, used by the pipeline timing model."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"    # PC-relative control transfer
    JUMP = "jump"        # register-indirect or direct control transfer
    MATH = "math"        # multi-cycle math-unit operation (int mul/div, FP)
    MISC = "misc"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one semantic operation.

    ``signature`` lists operand fields in assembly order; ``reg_class`` maps
    each register field to ``"g"`` (general) or ``"f"`` (floating point).
    ``reads``/``writes`` name the register fields the op reads and writes.
    ``math_class`` selects a math-unit latency class for MATH ops.
    """

    op: Op
    kind: OpKind
    signature: tuple[str, ...]
    reg_class: dict[str, str]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    math_class: str | None = None
    sets_fp_status: bool = False


def _info(op, kind, signature, *, fp=(), reads=(), writes=(),
          math_class=None, sets_fp_status=False):
    reg_fields = [f for f in signature if f in ("rd", "rs1", "rs2")]
    reg_class = {f: ("f" if f in fp else "g") for f in reg_fields}
    return OpInfo(op=op, kind=kind, signature=tuple(signature),
                  reg_class=reg_class, reads=tuple(reads),
                  writes=tuple(writes), math_class=math_class,
                  sets_fp_status=sets_fp_status)


def _build_table() -> dict[Op, OpInfo]:
    t: dict[Op, OpInfo] = {}

    def add(op, kind, signature, **kw):
        t[op] = _info(op, kind, signature, **kw)

    # Loads: rd <- mem[rs1 + imm].
    for op in (Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
        add(op, OpKind.LOAD, ("rd", "imm", "rs1"),
            reads=("rs1",), writes=("rd",))
    # Stores: mem[rs1 + imm] <- rs2.
    for op in (Op.ST, Op.STH, Op.STB):
        add(op, OpKind.STORE, ("rs2", "imm", "rs1"), reads=("rs1", "rs2"))
    # Constant-pool load: rd <- mem[align4(pc) + imm*4].
    add(Op.LDC, OpKind.LOAD, ("rd", "imm"), writes=("rd",))

    add(Op.BR, OpKind.BRANCH, ("imm",))
    add(Op.BZ, OpKind.BRANCH, ("rs1", "imm"), reads=("rs1",))
    add(Op.BNZ, OpKind.BRANCH, ("rs1", "imm"), reads=("rs1",))
    add(Op.J, OpKind.JUMP, ("rs1",), reads=("rs1",))
    add(Op.JZ, OpKind.JUMP, ("rs1", "rs2"), reads=("rs1", "rs2"))
    add(Op.JNZ, OpKind.JUMP, ("rs1", "rs2"), reads=("rs1", "rs2"))
    add(Op.JL, OpKind.JUMP, ("rs1",), reads=("rs1",))
    add(Op.JD, OpKind.JUMP, ("imm",))
    add(Op.JLD, OpKind.JUMP, ("imm",))

    add(Op.CMP, OpKind.ALU, ("cond", "rd", "rs1", "rs2"),
        reads=("rs1", "rs2"), writes=("rd",))
    add(Op.CMPI, OpKind.ALU, ("cond", "rd", "rs1", "imm"),
        reads=("rs1",), writes=("rd",))

    for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
               Op.SHRA, Op.SHR, Op.SHL):
        add(op, OpKind.ALU, ("rd", "rs1", "rs2"),
            reads=("rs1", "rs2"), writes=("rd",))
    for op in (Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI,
               Op.SHRAI, Op.SHRI, Op.SHLI):
        add(op, OpKind.ALU, ("rd", "rs1", "imm"),
            reads=("rs1",), writes=("rd",))
    add(Op.NEG, OpKind.ALU, ("rd", "rs1"), reads=("rs1",), writes=("rd",))
    add(Op.INV, OpKind.ALU, ("rd", "rs1"), reads=("rs1",), writes=("rd",))
    add(Op.MV, OpKind.ALU, ("rd", "rs1"), reads=("rs1",), writes=("rd",))
    add(Op.MVI, OpKind.ALU, ("rd", "imm"), writes=("rd",))
    add(Op.MVHI, OpKind.ALU, ("rd", "imm"), writes=("rd",))

    for op, mc in ((Op.MUL, "imul"), (Op.DIV, "idiv"), (Op.REM, "idiv")):
        add(op, OpKind.MATH, ("rd", "rs1", "rs2"),
            reads=("rs1", "rs2"), writes=("rd",), math_class=mc)

    fp3 = {"rd", "rs1", "rs2"}
    for op, mc in ((Op.ADD_SF, "fadd"), (Op.SUB_SF, "fadd"),
                   (Op.MUL_SF, "fmul"), (Op.DIV_SF, "fdiv"),
                   (Op.ADD_DF, "fadd"), (Op.SUB_DF, "fadd"),
                   (Op.MUL_DF, "fmul"), (Op.DIV_DF, "fdiv")):
        add(op, OpKind.MATH, ("rd", "rs1", "rs2"), fp=fp3,
            reads=("rs1", "rs2"), writes=("rd",), math_class=mc)
    for op in (Op.NEG_SF, Op.NEG_DF):
        add(op, OpKind.MATH, ("rd", "rs1"), fp=fp3,
            reads=("rs1",), writes=("rd",), math_class="fmove")
    for op in (Op.CMP_SF, Op.CMP_DF):
        add(op, OpKind.MATH, ("cond", "rs1", "rs2"), fp=fp3,
            reads=("rs1", "rs2"), math_class="fcmp", sets_fp_status=True)
    for op in (Op.SI2SF, Op.SI2DF, Op.SF2SI, Op.DF2SI, Op.SF2DF, Op.DF2SF):
        add(op, OpKind.MATH, ("rd", "rs1"), fp=fp3,
            reads=("rs1",), writes=("rd",), math_class="fcvt")

    for op in (Op.MV_SF, Op.MV_DF):
        add(op, OpKind.ALU, ("rd", "rs1"), fp=fp3,
            reads=("rs1",), writes=("rd",))
    add(Op.MVIF, OpKind.ALU, ("rd", "rs1"), fp={"rd"},
        reads=("rs1",), writes=("rd",))
    add(Op.MVFI, OpKind.ALU, ("rd", "rs1"), fp={"rs1"},
        reads=("rs1",), writes=("rd",))

    add(Op.TRAP, OpKind.MISC, ("imm",))
    add(Op.RDSR, OpKind.MISC, ("rd",), writes=("rd",))
    add(Op.NOP, OpKind.MISC, ())
    return t


#: Op -> OpInfo for every semantic operation.
OP_INFO: dict[Op, OpInfo] = _build_table()

#: Every data load and store: the bytes it moves, and whether a load
#: sign-extends them (False for stores).  ``ldc`` reads the constant
#: pool, not data, and is not listed.  The simulator engines keep their
#: own tables: each is the other's oracle.
DATA_ACCESS: dict[Op, tuple[int, bool]] = {
    Op.LD: (4, True), Op.LDH: (2, True), Op.LDHU: (2, False),
    Op.LDB: (1, True), Op.LDBU: (1, False),
    Op.ST: (4, False), Op.STH: (2, False), Op.STB: (1, False),
}
DATA_LOADS = tuple(op for op in DATA_ACCESS
                   if OP_INFO[op].kind is OpKind.LOAD)
DATA_STORES = tuple(op for op in DATA_ACCESS if op not in DATA_LOADS)

#: Ops that transfer control (end a basic block).
CONTROL_OPS = frozenset(
    op for op, info in OP_INFO.items()
    if info.kind in (OpKind.BRANCH, OpKind.JUMP)
)

#: The register fields a double-precision op names as the first of an
#: FP register pair ``(fN, fN+1)``.
FP_PAIR_FIELDS: dict[Op, tuple[str, ...]] = {
    **dict.fromkeys((Op.ADD_DF, Op.SUB_DF, Op.MUL_DF, Op.DIV_DF),
                    ("rd", "rs1", "rs2")),
    **dict.fromkeys((Op.NEG_DF, Op.MV_DF), ("rd", "rs1")),
    Op.CMP_DF: ("rs1", "rs2"),
    Op.SI2DF: ("rd",), Op.SF2DF: ("rd",),
    Op.DF2SI: ("rs1",), Op.DF2SF: ("rs1",),
}


def fp_pair_error(instr: "Instr", num_fregs: int) -> str | None:
    """Why ``instr`` names a register pair that runs past the end of a
    ``num_fregs``-register FP file (None when it does not).

    Both encodings reject such an instruction: encoding it is an
    :class:`EncodingError`, decoding it a :class:`DecodingError`.
    """
    for field in FP_PAIR_FIELDS.get(instr.op, ()):
        if getattr(instr, field) == num_fregs - 1:
            return (f"{instr.op.value} pairs f{num_fregs - 1} with "
                    f"f{num_fregs}, past the {num_fregs}-register FP file")
    return None


#: Mnemonic -> Op lookup for the assembler.
MNEMONIC_TO_OP: dict[str, Op] = {op.value: op for op in Op}
