"""Pipeline timing parameters and the reference hazard model.

Both instruction sets execute on the same five-stage pipeline (paper
Figure 3): IF, D, EX, MEM, WB, issuing at most one instruction per cycle.
The paper's performance model charges, on top of one cycle per
instruction:

* **delayed-load interlocks** — a load's value is available one cycle
  late; a consumer in the very next issue slot stalls one cycle;
* **math-unit interlocks** — integer multiply/divide and all FP operations
  execute in a multi-cycle, non-pipelined math unit; consumers of the
  result (and subsequent math-unit ops) stall until it completes;
* **memory latency** — charged separately per fetch/data transaction via
  the formulas in :mod:`repro.machine.perf`.

Control transfers are charged through the instruction-fetch stream (the
redirect discards buffered instructions, raising traffic), matching how
the paper accounts for them.

:class:`HazardModel` is the *reference* implementation of the interlock
rules, processing one retired instruction at a time.  The rules live in
two places, here and inline in the stepping loop of
:meth:`repro.machine.cpu.Machine.run`, and tests cross-check the two on
real programs.  The block compiler (:mod:`repro.machine.blocks`) and
the static bounds (:mod:`repro.analysis.timing`) run this model rather
than restate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import Instr, OpInfo, OpKind
from ..isa.operations import FP_PAIR_FIELDS

#: Pseudo-register index for the FP status word (set by cmp.sf/cmp.df,
#: read by rdsr) in the 0..63 general/FP register ready-time vector.
FP_STATUS_REG = 64


@dataclass(frozen=True)
class PipelineParams:
    """The introspectable latency table of the execution pipeline.

    One source of truth for every timing rule: the reference
    :class:`HazardModel` (which the block compiler and the static
    cycle-bound analyzer in :mod:`repro.analysis.timing` run), and the
    stepping loop in :mod:`repro.machine.cpu` all read their numbers
    from here, so a latency change propagates to simulator and analyzer
    together.

    ``result_latency`` is the number of cycles after issue until an
    instruction's written registers become usable (1 for single-cycle
    ALU results, ``1 + load_delay`` for loads, the math-class latency
    for math-unit ops).  ``occupancy`` is how long the non-pipelined
    math unit stays busy (0 for everything else).
    """

    load_delay: int = 1
    math_latency: dict[str, int] = field(default_factory=lambda: {
        "imul": 3,
        "idiv": 12,
        "fadd": 2,
        "fmul": 4,
        "fdiv": 12,
        "fcvt": 2,
        "fcmp": 2,
        "fmove": 1,
    })

    def latency_of(self, math_class: str) -> int:
        return self.math_latency[math_class]

    def result_latency(self, info: OpInfo) -> int:
        """Cycles after issue until ``info``'s results are usable."""
        if info.kind == OpKind.MATH:
            return self.math_latency[info.math_class]
        if info.kind == OpKind.LOAD:
            return 1 + self.load_delay
        return 1

    def occupancy(self, info: OpInfo) -> int:
        """Cycles the (non-pipelined) math unit is held by ``info``."""
        if info.kind == OpKind.MATH:
            return self.math_latency[info.math_class]
        return 0

    @property
    def max_result_latency(self) -> int:
        """The largest result latency any instruction can have.

        At any instruction boundary no register can be more than this
        many cycles away from ready, and the math unit no more than
        this many cycles from free — the bound the static timing
        analyzer uses for its worst-case block-entry state.
        """
        return max(max(self.math_latency.values()), 1 + self.load_delay)


def hazard_indices(instr: Instr) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Map an instruction's reads/writes to ready-vector indices.

    General register i -> i, FP register i -> 32 + i, FP status -> 64.
    A double-precision operand names the first register of a pair and
    uses both, so the second follows it.  DLXe's r0 is excluded on the
    read side only when it can never stall (it is hardwired); we keep
    it — a write to r0 never happens on DLXe and on D16 r0 is a real
    register, so including it is correct for both.
    """
    info = instr.info
    pairs = FP_PAIR_FIELDS.get(instr.op, ())

    def indices(fields: tuple[str, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for name in fields:
            reg = getattr(instr, name)
            if reg is None:
                continue
            index = 32 + reg if info.reg_class[name] == "f" else reg
            out.append(index)
            if name in pairs:
                out.append(index + 1)
        return tuple(out)

    reads = indices(info.reads)
    writes = indices(info.writes)
    if instr.info.sets_fp_status:
        writes = writes + (FP_STATUS_REG,)
    if instr.op.value == "rdsr":
        reads = reads + (FP_STATUS_REG,)
    return reads, writes


class HazardModel:
    """Reference interlock model: feed retired instructions in order."""

    def __init__(self, params: PipelineParams | None = None):
        self.params = params or PipelineParams()
        self.ready = [0] * 65          # earliest cycle each value is usable
        self.writer = ["alu"] * 65     # kind of the last writer per register
        self.math_free = 0             # cycle the math unit becomes free
        self.time = 0                  # issue cycle of the last instruction
        self.interlocks = 0
        self.load_interlocks = 0
        self.math_interlocks = 0

    def issue(self, instr: Instr) -> int:
        """Account for one retired instruction; returns its stall cycles."""
        reads, writes = hazard_indices(instr)
        info = instr.info
        issue_at = self.time + 1
        need = issue_at
        math_blocked = False
        for index in reads:
            if self.ready[index] > need:
                need = self.ready[index]
        is_math = info.kind == OpKind.MATH
        if is_math and self.math_free > need:
            need = self.math_free
            math_blocked = True
        stall = need - issue_at
        self.time = need
        if stall:
            self.interlocks += stall
            # Attribute the stall to whichever resource released last.
            result_math = any(self.ready[i] == need
                              and self.writer[i] == "math" for i in reads)
            if math_blocked or result_math:
                self.math_interlocks += stall
            else:
                self.load_interlocks += stall
        if is_math:
            self.math_free = self.time + self.params.occupancy(info)
        kind = ("math" if is_math
                else "load" if info.kind == OpKind.LOAD else "alu")
        result_at = self.time + self.params.result_latency(info)
        for index in writes:
            self.ready[index] = result_at
            self.writer[index] = kind
        return stall
