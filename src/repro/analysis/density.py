"""Static code-density analysis: D16 compressibility of DLXe images.

The paper's 1.5x density headline (Table 5) compares linked image
sizes; this module explains *where* that factor comes from, one
instruction at a time, without recompiling.  It walks a DLXe image's
recovered CFG and estimates, for every reachable instruction, how many
16-bit halfwords the D16 encoding of the same operation would need —
grounded in the real encoder limits of :mod:`repro.isa.d16`
(two-address forms, 5-bit unsigned immediates, 16 registers, constant
pools), not in a hand-waved ratio.

It also implements **DEN001**, a macro-op-fusion-style rule in the
spirit of Celio et al.'s RISC-V density analysis: adjacent DLXe pairs
that a 16-bit ISA swallows as *one* instruction.  The flagship pattern
is the 32-bit constant build ``mvhi rd, hi ; addi/ori/xori rd, rd, lo``,
which D16 replaces with a single ``ldc`` (one halfword of code plus a
shared pool word).  Each fused pair is reported as an INFO finding and
folded into the per-function compressibility estimate.

The estimate is a *model*, not a compilation: branch and pool
displacement limits are ignored (layout shifts when everything
shrinks), and register pressure beyond the r16+ penalty is not
simulated.  Its value is relative — which functions compress well,
which idioms resist — and as a static cross-check of the measured
density ratio in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cc.target import D16_TARGET
from ..isa import COND_NEGATE, D16_CONDS, Instr, Op
from ..isa.d16 import UNSUPPORTED_OPS
from ..isa.operations import DATA_ACCESS
from .cfg import BinaryCFG
from .findings import Finding, finding

#: Operations whose operands commute, so ``rd == rs2`` is as good as
#: ``rd == rs1`` for D16's two-address forms.
_COMMUTATIVE = frozenset({Op.ADD, Op.AND, Op.OR, Op.XOR, Op.MUL,
                          Op.ADD_SF, Op.MUL_SF, Op.ADD_DF, Op.MUL_DF})

#: The constant-build second halves fusable with a leading ``mvhi``.
_FUSE_LOW_OPS = frozenset({Op.ADDI, Op.ORI, Op.XORI})

#: D16's two-address immediate ops, by the operator they apply.
_TWO_ADDRESS_IMM = {Op.ADDI: "add", Op.SUBI: "sub", Op.SHRAI: "shra",
                    Op.SHRI: "shr", Op.SHLI: "shl"}
_LOGIC_IMM = (Op.ANDI, Op.ORI, Op.XORI)


def _reg_penalty(instr: Instr) -> int:
    """One extra halfword whenever an operand lives above r15: the
    value must be shuffled through D16's 16-register file."""
    return 1 if any(index >= 16
                    for _f, cls, index in instr.reg_operands()
                    if cls == "g") else 0


def estimate_halfwords(instr: Instr) -> int:
    """Estimated 16-bit code units for the D16 form of one DLXe
    instruction (constant-pool words included, branch/pool reach
    ignored)."""
    op = instr.op
    penalty = _reg_penalty(instr)

    if op == Op.JD:
        return 1                      # same-reach direct jump (br/j)
    if op == Op.JLD:
        return 3 + penalty            # ldc rt, =target ; jl rt ; pool
    if op == Op.MVHI:
        return 3 + penalty            # ldc + pool word
    if op == Op.CMPI or op in _LOGIC_IMM:
        base = 1 if D16_TARGET.mvi_ok(instr.imm) else 3
        return base + 1 + penalty     # materialize imm, then cmp or op
    if op in UNSUPPORTED_OPS:         # defensive: all handled above
        return 2 + penalty

    if op == Op.MVI:
        return (1 if D16_TARGET.mvi_ok(instr.imm) else 3) + penalty
    if op in DATA_ACCESS:
        ok = D16_TARGET.mem_offset_ok(DATA_ACCESS[op][0], instr.imm)
        return (1 if ok else 2) + penalty
    if op in _TWO_ADDRESS_IMM:
        cost = 1
        if instr.rd != instr.rs1:
            cost += 1                 # mv rd, rs1 first
        # The fields are unsigned: a negative immediate is materialized
        # (the model does not flip addi and subi).
        if instr.imm < 0 or not D16_TARGET.alu_imm_ok(
                _TWO_ADDRESS_IMM[op], instr.imm):
            cost += 1 if D16_TARGET.mvi_ok(instr.imm) else 2
        return cost + penalty
    if op == Op.CMP:
        # D16 compares write the implicit r0 (the branch then tests r0
        # for free); missing conditions negate or swap at no code cost,
        # except the strict signed/unsigned 'greater' forms which need
        # an operand shuffle when the negation is taken elsewhere.
        return (1 if instr.cond in D16_CONDS
                or COND_NEGATE[instr.cond] in D16_CONDS else 2) + penalty
    info = instr.info
    if info.reads and "rs2" in info.signature and "rd" in info.signature:
        # Three-operand register form: free when it is already
        # two-address (or commutes into it), else a leading mv.
        two_address = instr.rd == instr.rs1 or \
            (op in _COMMUTATIVE and instr.rd == instr.rs2)
        return (1 if two_address else 2) + penalty
    return 1 + penalty


def fused_constant_pair(first: Instr, second: Instr) -> bool:
    """True for ``mvhi rd, hi`` + ``addi/ori/xori rd, rd, lo``: one
    D16 ``ldc`` builds the same 32-bit constant."""
    return (first.op == Op.MVHI
            and second.op in _FUSE_LOW_OPS
            and second.rd == first.rd
            and second.rs1 == first.rd)


@dataclass
class FunctionDensity:
    """Static D16-compressibility estimate of one DLXe function."""

    name: str
    start: int
    n_instrs: int = 0
    dlxe_bytes: int = 0
    est_d16_bytes: int = 0
    fused_pairs: int = 0

    @property
    def ratio(self) -> float:
        """DLXe bytes per estimated D16 byte (paper headline ~1.5)."""
        return self.dlxe_bytes / self.est_d16_bytes \
            if self.est_d16_bytes else 1.0

    def to_record(self) -> dict[str, object]:
        return {"name": self.name, "start": self.start,
                "instrs": self.n_instrs, "dlxe_bytes": self.dlxe_bytes,
                "est_d16_bytes": self.est_d16_bytes,
                "fused_pairs": self.fused_pairs,
                "ratio": round(self.ratio, 4)}


@dataclass
class ProgramDensity:
    """Whole-image density estimate plus the DEN001 findings."""

    cfg: BinaryCFG
    functions: dict[int, FunctionDensity]
    findings: list[Finding] = field(default_factory=list)

    @property
    def dlxe_bytes(self) -> int:
        return sum(f.dlxe_bytes for f in self.functions.values())

    @property
    def est_d16_bytes(self) -> int:
        return sum(f.est_d16_bytes for f in self.functions.values())

    @property
    def fused_pairs(self) -> int:
        return sum(f.fused_pairs for f in self.functions.values())

    @property
    def ratio(self) -> float:
        return self.dlxe_bytes / self.est_d16_bytes \
            if self.est_d16_bytes else 1.0

    def function_records(self) -> list[dict[str, object]]:
        return [self.functions[start].to_record()
                for start in sorted(self.functions)]


def analyze_density(cfg: BinaryCFG) -> ProgramDensity:
    """Estimate the D16 compressibility of a DLXe image's functions.

    ``cfg`` is the CFG of an image that
    :func:`~repro.analysis.absint.resolve_cfg` recovered.  Only 32-bit
    images are meaningful input: a D16 image is already in its densest
    form, so the analysis returns an empty report for one rather than
    inventing numbers.
    """
    report = ProgramDensity(cfg=cfg, functions={})
    if cfg.isa.name != "DLXe":
        return report

    for fstart, name in cfg.funcs:
        blocks = cfg.function_blocks(fstart)
        if not blocks:
            continue
        fd = FunctionDensity(name=name, start=fstart)
        for block in blocks:
            instrs = block.instrs
            i = 0
            while i < len(instrs):
                pc, instr = instrs[i]
                if i + 1 < len(instrs) \
                        and fused_constant_pair(instr, instrs[i + 1][1]):
                    lo_pc, lo = instrs[i + 1]
                    value = ((instr.imm << 16) + lo.imm) & 0xFFFFFFFF \
                        if lo.op == Op.ADDI \
                        else ((instr.imm << 16) | (lo.imm & 0xFFFF))
                    report.findings.append(finding(
                        "DEN001", cfg.describe(pc),
                        f"'{instr}' + '{lo}' build the constant "
                        f"{value:#x}: one D16 'ldc r{instr.rd}' "
                        f"(2 bytes + shared pool word) replaces both"))
                    fd.n_instrs += 2
                    fd.dlxe_bytes += 8
                    fd.est_d16_bytes += 2 * (3 + _reg_penalty(instr))
                    fd.fused_pairs += 1
                    i += 2
                    continue
                fd.n_instrs += 1
                fd.dlxe_bytes += 4
                fd.est_d16_bytes += 2 * estimate_halfwords(instr)
                i += 1
        report.functions[fstart] = fd
    report.findings.sort(key=lambda f: (f.location, f.rule))
    return report
