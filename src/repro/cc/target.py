"""Target descriptions: the knobs the paper's experiments turn.

A :class:`TargetSpec` couples an instruction encoding with the *code
generator restrictions* the paper studies (Section 3.3):

* ``num_gregs`` / ``num_fregs`` — visible register file size (Figure 6/7:
  DLXe restricted to 16 registers);
* ``three_address`` — whether ALU results may target a third register
  (Figure 8/9: DLXe restricted to two-address code);
* ``wide_immediates`` — 16-bit immediates, immediate compares, immediate
  logical ops and large displacements (Figure 10 / Table 4; always off
  for D16, normally on for DLXe).

Register conventions (both ISAs, so the comparison stays level)::

    r0   DLXe: hardwired zero.  D16: compare result / branch test
    r1   link register (jl)
    r2   return value, first argument
    r2-r5   integer arguments (then the stack)
    r2-r7   caller-saved
    r8   secondary scratch (FP transfer data during fixups)
    r9   assembler temporary (AT) for emission-time fixups
    r10-r13 callee-saved
    r14  gp (global pointer = start of the data segment)
    r15  sp
    r16-r31 (DLXe-32 only) callee-saved
    f0:f1   FP return value and FP scratch pair
    f2-f8   caller-saved FP argument pairs (f2, f4, f6, f8)
    f10-f14 callee-saved FP pairs (plus f16.. on 32-register files)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import D16 as D16_ISA
from ..isa import DLXE as DLXE_ISA
from ..isa import IsaSpec
from ..isa.common import WORD_BITS, fits_signed
from ..isa.d16 import MAX_MEM_OFFSET, MAX_RI_IMM, MVI_IMM_BITS
from ..isa.dlxe import IMM_BITS

REG_LINK = 1
REG_RET = 2
REG_AT2 = 8
REG_AT = 9
REG_GP = 14
REG_SP = 15
INT_ARG_REGS = (2, 3, 4, 5)
FP_ARG_PAIRS = (2, 4)           # even FPR index of each argument pair
FP_RET_PAIR = 0


@dataclass(frozen=True)
class TargetSpec:
    """One compiler configuration of the baseline processor."""

    name: str
    isa: IsaSpec
    num_gregs: int
    num_fregs: int
    three_address: bool
    wide_immediates: bool

    # ------------------------------------------------------ register sets

    @property
    def allocatable_int(self) -> tuple[int, ...]:
        regs = [2, 3, 4, 5, 6, 7, 10, 11, 12, 13]
        if self.num_gregs > 16:
            regs.extend(range(16, self.num_gregs))
        return tuple(regs)

    @property
    def callee_saved_int(self) -> frozenset[int]:
        saved = set(range(10, 14))
        if self.num_gregs > 16:
            saved.update(range(16, self.num_gregs))
        return frozenset(saved)

    @property
    def allocatable_fp_pairs(self) -> tuple[int, ...]:
        pairs = [2, 4, 6, 8, 10, 12, 14]
        if self.num_fregs > 16:
            pairs.extend(range(16, self.num_fregs, 2))
        return tuple(pairs)

    @property
    def callee_saved_fp_pairs(self) -> frozenset[int]:
        # f2/f4 are argument pairs; roughly half of the rest is
        # callee-saved, like the MIPS-era conventions the paper assumes.
        saved = {6, 8, 10, 12, 14}
        if self.num_fregs > 16:
            saved.update(range(22, self.num_fregs, 2))
        return frozenset(saved)

    # --------------------------------------------------- immediate ranges
    # Each limit comes from the ISA modules' field widths: DLXe's when
    # ``wide_immediates`` is set, D16's otherwise.

    def alu_imm_ok(self, op: str, value: int) -> bool:
        """Can ``op``'s second operand be this immediate?"""
        if op in ("shl", "shr", "shra"):
            return 0 <= value < WORD_BITS
        if self.wide_immediates:
            return op in ("add", "sub", "and", "or", "xor") \
                and fits_signed(value, IMM_BITS)
        # D16-sized: unsigned addi or subi, and no logical immediates.
        return op in ("add", "sub") and abs(value) <= MAX_RI_IMM

    def cmp_imm_ok(self, value: int) -> bool:
        return self.wide_immediates and fits_signed(value, IMM_BITS)

    def mem_offset_ok(self, size: int, offset: int) -> bool:
        """Can a load/store of ``size`` bytes use this displacement?"""
        if self.wide_immediates:
            return fits_signed(offset, IMM_BITS)
        if size == 4:
            return 0 <= offset <= MAX_MEM_OFFSET and offset % 4 == 0
        return offset == 0      # D16 subword modes are not offsettable

    def mvi_ok(self, value: int) -> bool:
        return fits_signed(value, IMM_BITS if self.wide_immediates
                           else MVI_IMM_BITS)


D16_TARGET = TargetSpec(
    name="d16",
    isa=D16_ISA,
    num_gregs=16,
    num_fregs=16,
    three_address=False,
    wide_immediates=False,
)

DLXE_TARGET = TargetSpec(
    name="dlxe",
    isa=DLXE_ISA,
    num_gregs=32,
    num_fregs=32,
    three_address=True,
    wide_immediates=True,
)

#: The paper's ablation corners (Table 5-7 column labels).
DLXE_16_2 = TargetSpec("dlxe/16/2", DLXE_ISA, 16, 16, False, True)
DLXE_16_3 = TargetSpec("dlxe/16/3", DLXE_ISA, 16, 16, True, True)
DLXE_32_2 = TargetSpec("dlxe/32/2", DLXE_ISA, 32, 32, False, True)

#: Extension ablation: DLXe encoding restricted to D16-sized immediates.
DLXE_NARROW = TargetSpec("dlxe/narrow", DLXE_ISA, 16, 16, False, False)

TARGETS = {
    "d16": D16_TARGET,
    "dlxe": DLXE_TARGET,
    "dlxe/16/2": DLXE_16_2,
    "dlxe/16/3": DLXE_16_3,
    "dlxe/32/2": DLXE_32_2,
    "dlxe/32/3": DLXE_TARGET,
    "dlxe/narrow": DLXE_NARROW,
}

#: The paper's two headline machines, in report order: the default
#: targets of the experiments, the linter and the fault campaigns.
MAIN_TARGETS = ("d16", "dlxe")


def get_target(name: str) -> TargetSpec:
    try:
        return TARGETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; "
            f"expected one of {sorted(TARGETS)}") from None
