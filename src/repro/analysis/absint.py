"""Abstract interpretation over linked binary images.

A generic worklist solver (:func:`solve`) runs a pluggable abstract
domain to a fixpoint over the basic blocks recovered by
:mod:`repro.analysis.cfg`, with widening after a bounded number of
joins so looping and irreducible control flow terminates.

:class:`ValueDomain` is the concrete domain behind the semantic lint
rules: a product of

* **constant propagation / value ranges** — each general register maps
  to an unsigned 32-bit interval ``[lo, hi]`` (a constant when
  ``lo == hi``), with D16 literal-pool ``ldc`` loads folded from the
  linked image and DLXe's hardwired ``r0`` pinned to zero;
* **stack height** — the stack pointer is tracked symbolically as
  *entry SP + delta*, so frame pushes and pops cancel exactly.

:func:`analyze_executable` runs the domain over every function and
derives the semantic findings:

====== =========================================================
ABS001 stack-height mismatch at a join or a non-empty frame at
       a return
ABS002 memory access with a provably invalid address (outside the
       simulated memory, or constant and misaligned)
ABS003 register-indirect jump to a provably non-code target
ABS004 conditional branch provably always or never taken
====== =========================================================

Every claim is *provable-by-construction*: a rule only fires when the
abstract state shows no concrete execution could behave otherwise, so
a clean toolchain stays clean and any hit is a real defect.  The
per-function :class:`FunctionSummary` (resolved call targets, trap
sequence, returned-constant values, stack discipline) additionally
feeds the cross-ISA consistency checker in
:mod:`repro.analysis.xisa`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..asm.objfile import Executable
from ..cc.target import REG_GP, REG_LINK, REG_RET, REG_SP, TargetSpec
from ..isa import DecodingError, Instr, IsaSpec, Op
from ..isa.common import to_s32
from ..isa.operations import DATA_ACCESS, DATA_LOADS, Cond
from ..isa.refs import ldc_pool_addr
from ..machine.memory import DEFAULT_MEM_SIZE
from .cfg import BasicBlock, BinaryCFG, build_cfg
from .findings import Finding, finding

U32 = 1 << 32
U32_MAX = U32 - 1

#: Joins per block before widening kicks in (keeps loops terminating).
WIDEN_AFTER = 4

#: Sweep/analysis rounds :func:`resolve_cfg` runs at most.
MAX_RECOVERY_ROUNDS = 64


class Interval(NamedTuple):
    """An unsigned 32-bit value range ``[lo, hi]`` (inclusive)."""

    lo: int
    hi: int

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:  # compact in test failures
        if self.is_const:
            return f"={self.lo:#x}"
        return f"[{self.lo:#x},{self.hi:#x}]"


@dataclass(frozen=True)
class SPRel:
    """Entry-stack-pointer-relative value: ``SP_entry + delta`` bytes."""

    delta: int

    def __repr__(self) -> str:
        return f"sp{self.delta:+d}"


#: The unknown value (absent from the state dict).
TOP = None

#: An abstract register value: an interval, a stack-pointer offset, or
#: TOP (``None`` — unknown, absent from the state dict).
Value = Interval | SPRel | None

FULL = Interval(0, U32_MAX)
BIT = Interval(0, 1)


def const(value: int) -> Interval:
    value &= U32_MAX
    return Interval(value, value)


def _norm(lo: int, hi: int) -> Interval | None:
    """Wrap an unbounded integer range into u32 space (TOP on straddle)."""
    if hi - lo >= U32:
        return TOP
    if lo // U32 == hi // U32:
        return Interval(lo % U32, hi % U32)
    return TOP


def _join_value(a: Value, b: Value) -> Value:
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, SPRel) or isinstance(b, SPRel):
        return a if a == b else TOP
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def _signed(iv: Interval) -> tuple[int, int] | None:
    """The interval as a signed range, if it does not straddle the sign bit."""
    if iv.hi <= 0x7FFFFFFF:
        return iv.lo, iv.hi
    if iv.lo >= 0x80000000:
        return iv.lo - U32, iv.hi - U32
    return None


def eval_cond(cond: Cond, a: Interval, b: Interval) -> bool | None:
    """Decide ``a cond b`` over intervals; None when not provable."""
    if cond in (Cond.EQ, Cond.NE):
        if a.is_const and b.is_const:
            result = a.lo == b.lo
        elif a.hi < b.lo or b.hi < a.lo:
            result = False
        else:
            return None
        return result if cond == Cond.EQ else not result
    unsigned = cond in (Cond.LTU, Cond.LEU, Cond.GTU, Cond.GEU)
    if unsigned:
        alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    else:
        sa, sb = _signed(a), _signed(b)
        if sa is None or sb is None:
            return None
        (alo, ahi), (blo, bhi) = sa, sb
    base = {Cond.LT: Cond.LT, Cond.LTU: Cond.LT, Cond.LE: Cond.LE,
            Cond.LEU: Cond.LE, Cond.GT: Cond.GT, Cond.GTU: Cond.GT,
            Cond.GE: Cond.GE, Cond.GEU: Cond.GE}[cond]
    if base == Cond.LT:
        if ahi < blo:
            return True
        if alo >= bhi:
            return False
    elif base == Cond.LE:
        if ahi <= blo:
            return True
        if alo > bhi:
            return False
    elif base == Cond.GT:
        if alo > bhi:
            return True
        if ahi <= blo:
            return False
    elif base == Cond.GE:
        if alo >= bhi:
            return True
        if ahi < blo:
            return False
    return None


# ---------------------------------------------------------------------------
# Generic worklist solver.
# ---------------------------------------------------------------------------


def solve(blocks: dict[int, BasicBlock], entry: int, domain: Any, *,
          widen_after: int = WIDEN_AFTER) -> dict[int, Any]:
    """Run ``domain`` to a fixpoint; returns block-entry states.

    ``domain`` supplies ``entry_state()``, ``transfer(block, state)``,
    ``edge_state(block, succ, out_state)``, ``join(old, new, at)`` and
    ``widen(old, joined, at)``; states are compared with ``==``.  After
    ``widen_after`` joins at one block the widening operator is applied
    on every further join, which bounds the chain length on loops and
    irreducible regions alike.  Every forward analysis of a binary runs
    here: the value domain below, the WCET layer's seeded value pass
    and loop-iteration domain (:mod:`repro.analysis.wcet`) and the
    I-cache domain (:mod:`repro.analysis.icache`); the last two need
    no widening, so their ``widen`` is the identity.
    """
    if entry not in blocks:
        return {}
    in_states: dict[int, Any] = {entry: domain.entry_state()}
    join_counts: dict[int, int] = {}
    pending = [entry]
    while pending:
        start = pending.pop()
        block = blocks[start]
        out = domain.transfer(block, in_states[start])
        for succ in block.succs:
            if succ not in blocks:
                continue
            new = domain.edge_state(block, succ, out)
            if succ not in in_states:
                in_states[succ] = new
                pending.append(succ)
                continue
            old = in_states[succ]
            joined = domain.join(old, new, succ)
            count = join_counts.get(succ, 0) + 1
            join_counts[succ] = count
            if count > widen_after:
                joined = domain.widen(old, joined, succ)
            if joined != old:
                in_states[succ] = joined
                pending.append(succ)
    return in_states


# ---------------------------------------------------------------------------
# The value / stack-height domain.
# ---------------------------------------------------------------------------

_INDIRECT = (Op.J, Op.JZ, Op.JNZ, Op.JL)


class ValueDomain:
    """Constant x range x stack-height product domain for one function.

    A state is a dict mapping general-register index to an
    :class:`Interval` or :class:`SPRel`; absent registers are TOP.
    ``sp_conflicts`` records blocks whose incoming stack heights
    disagree (reported as ABS001 by the driver).
    """

    def __init__(self, cfg: BinaryCFG, *, preserved: frozenset[int],
                 gp_value: int | None = None,
                 entry_args: dict[int, Interval] | None = None):
        self.cfg = cfg
        self.zero_r0 = cfg.isa.name == "DLXe"
        self.preserved = preserved
        self.gp_value = gp_value
        #: Interprocedural seed: proven intervals for the argument
        #: registers at function entry (joined over every resolved call
        #: site by the whole-program analysis in
        #: :mod:`repro.analysis.wcet`).  Absent registers stay TOP.
        self.entry_args = dict(entry_args or {})
        self.sp_conflicts: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------- lattice ops

    def entry_state(self) -> dict:
        state = {REG_SP: SPRel(0)}
        state.update(self.entry_args)
        if self.gp_value is not None:
            state[REG_GP] = const(self.gp_value)
        if self.zero_r0:
            state[0] = const(0)
        return state

    def unknown_state(self) -> dict:
        """Entry state for blocks with no intra-procedural predecessor."""
        return {0: const(0)} if self.zero_r0 else {}

    def join(self, old: dict, new: dict, at: int) -> dict:
        joined = {}
        for reg in old.keys() & new.keys():
            a, b = old[reg], new[reg]
            if reg == REG_SP and isinstance(a, SPRel) \
                    and isinstance(b, SPRel) and a != b:
                self.sp_conflicts.setdefault(at, (a.delta, b.delta))
            value = _join_value(a, b)
            if value is not TOP:
                joined[reg] = value
        return joined

    def widen(self, old: dict, joined: dict, at: int) -> dict:
        widened = {}
        for reg, value in joined.items():
            prev = old.get(reg)
            if isinstance(value, Interval) and isinstance(prev, Interval):
                lo = value.lo if value.lo >= prev.lo else 0
                hi = value.hi if value.hi <= prev.hi else U32_MAX
                widened[reg] = Interval(lo, hi)
            else:
                widened[reg] = value
        return widened

    # ------------------------------------------------------ state access

    def _get(self, state: dict, reg: int | None) -> Value:
        if reg is None:
            return TOP
        if reg == 0 and self.zero_r0:
            return const(0)
        return state.get(reg)

    def _set(self, state: dict, reg: int,
             value: Value) -> None:
        if reg == 0 and self.zero_r0:
            return                        # writes to DLXe r0 are discarded
        if value is TOP:
            state.pop(reg, None)
        else:
            state[reg] = value

    # ---------------------------------------------------------- transfer

    def transfer(self, block: BasicBlock, state: dict,
                 report: _Reporter | None = None) -> dict:
        state = dict(state)
        for pc, instr in block.instrs:
            self._step(pc, instr, state, report)
        if block.is_call:
            self._call_clobber(state, block, report)
        return state

    def edge_state(self, block: BasicBlock, succ: int, out: dict) -> dict:
        """Refine the branch-test register along conditional edges."""
        _pc, term = block.terminator
        if term.op in (Op.BZ, Op.BNZ) and len(set(block.succs)) == 2:
            taken = block.succs[1] == succ
            zero_edge = taken if term.op == Op.BZ else not taken
            if zero_edge:
                out = dict(out)
                self._set(out, term.rs1, const(0))
        return out

    def _call_clobber(self, state: dict, block: BasicBlock,
                      report: _Reporter | None) -> None:
        for reg in list(state):
            if reg == REG_SP or reg in self.preserved \
                    or (reg == 0 and self.zero_r0) \
                    or (reg == REG_GP and self.gp_value is not None):
                continue
            del state[reg]

    def _step(self, pc: int, instr: Instr, state: dict,
              report: _Reporter | None) -> None:
        op = instr.op
        get = self._get
        a = get(state, instr.rs1)
        b = get(state, instr.rs2)
        imm = instr.imm

        if op in DATA_ACCESS:
            if report is not None:
                report.check_memory(pc, instr, a)
            if op in DATA_LOADS:
                self._set(state, instr.rd, TOP)
            return
        if op == Op.LDC:
            addr = ldc_pool_addr(pc, imm)
            word = self.cfg.read_word(addr)
            self._set(state, instr.rd,
                      const(word) if word is not None else TOP)
            return

        if op in (Op.ADD, Op.ADDI, Op.SUB, Op.SUBI):
            rhs = const(imm) if op in (Op.ADDI, Op.SUBI) else b
            sub = op in (Op.SUB, Op.SUBI)
            self._set(state, instr.rd, _add_sub(a, rhs, sub))
            return
        if op == Op.MV:
            self._set(state, instr.rd, a)
            return
        if op == Op.MVI:
            self._set(state, instr.rd, const(imm))
            return
        if op == Op.MVHI:
            self._set(state, instr.rd, const(imm << 16))
            return
        if op == Op.NEG:
            self._set(state, instr.rd,
                      _norm(-a.hi, -a.lo) if isinstance(a, Interval)
                      else TOP)
            return
        if op == Op.INV:
            self._set(state, instr.rd,
                      Interval(a.hi ^ U32_MAX, a.lo ^ U32_MAX)
                      if isinstance(a, Interval) else TOP)
            return
        if op in (Op.AND, Op.ANDI, Op.OR, Op.ORI, Op.XOR, Op.XORI):
            rhs = const(imm) if op in (Op.ANDI, Op.ORI, Op.XORI) else b
            self._set(state, instr.rd, _bitwise(op, a, rhs))
            return
        if op in (Op.SHL, Op.SHLI, Op.SHR, Op.SHRI, Op.SHRA, Op.SHRAI):
            rhs = const(imm) if op in (Op.SHLI, Op.SHRI, Op.SHRAI) else b
            self._set(state, instr.rd, _shift(op, a, rhs))
            return
        if op in (Op.MUL, Op.DIV, Op.REM):
            self._set(state, instr.rd, _muldiv(op, a, b))
            return
        if op in (Op.CMP, Op.CMPI):
            rhs = const(imm) if op == Op.CMPI else b
            value = BIT
            if isinstance(a, Interval) and isinstance(rhs, Interval):
                verdict = eval_cond(instr.cond, a, rhs)
                if verdict is not None:
                    value = const(int(verdict))
            elif isinstance(a, SPRel) and isinstance(rhs, SPRel):
                verdict = eval_cond(instr.cond, const(a.delta),
                                    const(rhs.delta))
                if verdict is not None:
                    value = const(int(verdict))
            self._set(state, instr.rd, value)
            return
        if op == Op.RDSR:
            self._set(state, instr.rd, BIT)
            return
        if op == Op.MVFI:
            self._set(state, instr.rd, TOP)
            return
        if op == Op.TRAP:
            if report is not None:
                report.record_trap(pc, imm)
            if imm != 0 and imm != 1:         # getc / sbrk write r2
                self._set(state, REG_RET, TOP)
            return

        if op in (Op.BZ, Op.BNZ):
            if report is not None:
                report.check_branch(pc, instr, a)
            return
        if op in _INDIRECT:
            if report is not None:
                report.check_indirect(pc, instr, a, state)
            if op == Op.JL:
                self._set(state, REG_LINK, TOP)
            return
        if op in (Op.JLD,):
            if report is not None:
                report.record_call(pc, instr.imm)
            self._set(state, REG_LINK, TOP)
            return
        # br, jd, nop, FP ops (FP registers are not tracked).  Any op
        # that writes a general register must still invalidate it here,
        # or a stale constant would survive — soundness over precision.
        info = instr.info
        for fld in info.writes:
            if info.reg_class.get(fld) == "g":
                self._set(state, getattr(instr, fld), TOP)
        return


def _add_sub(a: Value, b: Value, sub: bool) -> Value:
    if isinstance(a, SPRel) and isinstance(b, SPRel):
        return const(a.delta - b.delta) if sub else TOP
    if isinstance(a, SPRel) or isinstance(b, SPRel):
        rel, other, flipped = (a, b, False) if isinstance(a, SPRel) \
            else (b, a, True)
        if not (isinstance(other, Interval) and other.is_const):
            return TOP
        if sub and flipped:
            return TOP                    # const - sp: not an address
        offset = to_s32(other.lo)
        return SPRel(rel.delta - offset if sub else rel.delta + offset)
    if not (isinstance(a, Interval) and isinstance(b, Interval)):
        return TOP
    if sub:
        return _norm(a.lo - b.hi, a.hi - b.lo)
    return _norm(a.lo + b.lo, a.hi + b.hi)


def _bitwise(op: Op, a: Value, b: Value) -> Value:
    if not (isinstance(a, Interval) and isinstance(b, Interval)):
        return TOP
    if a.is_const and b.is_const:
        fn = {Op.AND: int.__and__, Op.ANDI: int.__and__,
              Op.OR: int.__or__, Op.ORI: int.__or__,
              Op.XOR: int.__xor__, Op.XORI: int.__xor__}[op]
        return const(fn(a.lo, b.lo))
    if op in (Op.AND, Op.ANDI):
        # x & mask is bounded by each operand's maximum.
        return Interval(0, min(a.hi, b.hi))
    return TOP


def _shift(op: Op, a: Value, b: Value) -> Value:
    if not (isinstance(a, Interval) and isinstance(b, Interval)) \
            or not b.is_const:
        return TOP
    k = b.lo & 31
    if op in (Op.SHR, Op.SHRI):
        return Interval(a.lo >> k, a.hi >> k)
    if op in (Op.SHL, Op.SHLI):
        return _norm(a.lo << k, a.hi << k)
    if a.is_const:                        # shra: signed, constants only
        return const((to_s32(a.lo) >> k) & U32_MAX)
    return TOP


def _muldiv(op: Op, a: Value, b: Value) -> Value:
    if not (isinstance(a, Interval) and isinstance(b, Interval)):
        return TOP
    if op == Op.MUL:
        if a.is_const and b.is_const:
            return _norm(to_s32(a.lo) * to_s32(b.lo),
                         to_s32(a.lo) * to_s32(b.lo))
        if a.hi <= 0x7FFFFFFF and b.hi <= 0x7FFFFFFF:
            return _norm(a.lo * b.lo, a.hi * b.hi)
        return TOP
    if not (a.is_const and b.is_const) or b.lo == 0:
        return TOP
    x, y = to_s32(a.lo), to_s32(b.lo)
    quotient = abs(x) // abs(y)
    if (x < 0) != (y < 0):
        quotient = -quotient
    remainder = x - quotient * y
    return const(remainder if op == Op.REM else quotient)


# ---------------------------------------------------------------------------
# Whole-image analysis and the ABS rules.
# ---------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Semantic facts about one function, for cross-ISA comparison."""

    name: str
    start: int
    callees: list[str] = field(default_factory=list)   # site-address order
    #: Every call site in address order: ``(pc, resolved target)`` with
    #: ``None`` for targets the value analysis could not prove.  The
    #: whole-program timing composer consumes this.
    call_sites: list[tuple[int, int | None]] = field(default_factory=list)
    unresolved_calls: int = 0
    traps: list[int] = field(default_factory=list)     # codes, addr order
    return_values: list[object] = field(default_factory=list)
    stack_balanced: bool = True


@dataclass
class AnalysisResult:
    """Findings plus per-function summaries of one analyzed image.

    The result of :func:`resolve_cfg` is the recovered image every
    image analysis reads: ``cfg`` is its control-flow graph, and
    ``target`` the target it was analyzed on, whose callee-saved set
    every later stage assumes across calls.
    """

    cfg: BinaryCFG
    target: TargetSpec | None
    findings: list[Finding]
    functions: dict[str, FunctionSummary]
    #: Constant register-indirect control targets proven by the value
    #: analysis (D16 pool-loaded call targets, mostly).  Feeds the
    #: CFG-refinement loop in :func:`resolve_cfg`.
    resolved_targets: set[int] = field(default_factory=set)
    #: Function start -> block start -> the :class:`ValueDomain`
    #: block-entry state :func:`solve` reached; blocks it never
    #: reached are absent.  The liveness analysis reads its value
    #: facts from here instead of solving again.
    states: dict[int, dict[int, dict]] = field(default_factory=dict)

    def returned_constant(self, name: str) -> int | None:
        """The constant a function provably returns, if any."""
        summary = self.functions.get(name)
        if summary is None or not summary.return_values:
            return None
        values = summary.return_values
        if all(isinstance(v, Interval) and v.is_const for v in values) \
                and len({v.lo for v in values}) == 1:
            return values[0].lo
        return None


class _Reporter:
    """Check hooks invoked by the domain during the reporting pass."""

    def __init__(self, result: AnalysisResult, summary: FunctionSummary):
        self.result = result
        self.summary = summary
        self.cfg = result.cfg

    def _emit(self, rule: str, pc: int, message: str) -> None:
        self.result.findings.append(
            finding(rule, self.cfg.describe(pc), message))

    def check_memory(self, pc: int, instr: Instr,
                     base_value: Value) -> None:
        size = DATA_ACCESS[instr.op][0]
        if not isinstance(base_value, Interval):
            return
        addr = _add_sub(base_value, const(instr.imm), sub=False)
        if not isinstance(addr, Interval):
            return
        if addr.lo >= DEFAULT_MEM_SIZE or addr.hi + size > U32:
            self._emit(
                "ABS002", pc,
                f"'{instr}' accesses {addr!r}, provably outside the "
                f"{DEFAULT_MEM_SIZE:#x}-byte simulated memory")
        elif addr.is_const and addr.lo % size:
            self._emit(
                "ABS002", pc,
                f"'{instr}' accesses {addr.lo:#x}, provably misaligned "
                f"for a {size}-byte transfer")

    def check_branch(self, pc: int, instr: Instr,
                     test_value: Value) -> None:
        if not isinstance(test_value, Interval):
            return
        always_zero = test_value == const(0)
        never_zero = test_value.lo > 0
        if not (always_zero or never_zero):
            return
        taken = always_zero if instr.op == Op.BZ else never_zero
        self._emit(
            "ABS004", pc,
            f"'{instr}' is provably {'always' if taken else 'never'} "
            f"taken (test register is {test_value!r})")

    def check_indirect(self, pc: int, instr: Instr,
                       target_value: Value, state: dict) -> None:
        cfg = self.cfg
        if instr.op == Op.JL:
            if isinstance(target_value, Interval) and target_value.is_const:
                self.record_call(pc, target_value.lo)
            else:
                self.summary.unresolved_calls += 1
                self.summary.call_sites.append((pc, None))
        if instr.op == Op.J and instr.rs1 == REG_LINK:
            # The return idiom: close out the stack-height obligation.
            sp = state.get(REG_SP)
            if isinstance(sp, SPRel) and sp.delta != 0:
                self._emit(
                    "ABS001", pc,
                    f"return with a non-empty frame: stack pointer is "
                    f"entry SP{sp.delta:+d} bytes")
            self.summary.return_values.append(state.get(REG_RET))
            if isinstance(sp, SPRel) and sp.delta != 0:
                self.summary.stack_balanced = False
            return
        if not (isinstance(target_value, Interval)
                and target_value.is_const):
            return
        target = target_value.lo
        bad = None
        if not cfg.base <= target < cfg.end:
            bad = "outside the text segment"
        elif target in cfg.pool:
            bad = "literal-pool data"
        elif (target - cfg.base) % cfg.width:
            bad = "misaligned"
        elif isinstance(cfg.instr_at(target)[1], DecodingError):
            bad = "not decodable"
        if bad is not None:
            self._emit(
                "ABS003", pc,
                f"'{instr}' jumps to {target:#x}, which is provably "
                f"not code ({bad})")
        else:
            self.result.resolved_targets.add(target)

    def record_call(self, pc: int, target: int) -> None:
        self.summary.call_sites.append((pc, target))
        func = self.cfg.func_of(target)
        if func is not None and func[0] == target:
            self.summary.callees.append(func[1])
        else:
            self.summary.callees.append(f"<{target:#x}>")

    def record_trap(self, pc: int, code: int) -> None:
        self.summary.traps.append(code)


def callee_saved(target: TargetSpec | None) -> frozenset[int]:
    """Registers assumed preserved across calls.

    The target's callee-saved set — an assumption separately enforced
    by the CC001 lint, so the two layers check each other — or, without
    a target, r10-r13 (both ISAs' common callee-saved set).
    """
    if target is None:
        return frozenset(range(10, 14))
    return target.callee_saved_int


def analyze_executable(cfg: BinaryCFG, *,
                       target: TargetSpec | None) -> AnalysisResult:
    """Run the value/stack analysis over every function of an image.

    ``target`` (a :class:`~repro.cc.target.TargetSpec`) supplies the
    register set assumed preserved across calls (:func:`callee_saved`).
    Images are recovered by :func:`resolve_cfg`, which runs this on
    each round's CFG.
    """
    preserved = callee_saved(target)
    gp_value = cfg.exe.symbols.get("__gp")
    result = AnalysisResult(cfg=cfg, target=target, findings=[],
                            functions={})

    for fstart, name in cfg.funcs:
        blocks = {b.start: b for b in cfg.function_blocks(fstart)}
        if fstart not in blocks:
            continue
        # _start runs before the global pointer is established.
        domain = ValueDomain(
            cfg, preserved=preserved,
            gp_value=None if name == "_start" else gp_value)
        in_states = solve(blocks, fstart, domain)
        result.states[fstart] = in_states
        summary = FunctionSummary(name=name, start=fstart)
        result.functions[name] = summary
        reporter = _Reporter(result, summary)
        for start in sorted(blocks):
            state = in_states.get(start)
            if state is None:
                state = domain.unknown_state()
            domain.transfer(blocks[start], state, report=reporter)
        for at, (d1, d2) in sorted(domain.sp_conflicts.items()):
            summary.stack_balanced = False
            result.findings.append(finding(
                "ABS001", cfg.describe(at),
                f"stack heights disagree at join: entry SP{d1:+d} vs "
                f"entry SP{d2:+d} bytes"))
    result.findings.sort(key=lambda f: (f.location, f.rule))
    return result


def resolve_cfg(exe: Executable, isa: IsaSpec, *,
                symbols: dict[str, int] | None = None,
                target: TargetSpec | None = None) -> AnalysisResult:
    """CFG recovery with value-analysis feedback, to a fixpoint.

    The plain reachability sweep cannot follow register-indirect calls
    (D16 routes *every* call through a pool-loaded register), so on an
    image whose symbol table lost the function labels it only recovers
    the entry function.  This loop alternates sweeping and abstract
    interpretation: each round's provably-constant indirect targets
    become synthesized function roots (``fn_<addr>``) for the next,
    until no new code is discovered.  Every direct-call (``jld``)
    target that does not yet start a function becomes a root the same
    way: a Lab image's symbol table keeps only globals, and without
    those roots a DLXe image, whose calls are all direct, would fold
    into its entry function and show no call graph.  With a full
    symbol table the first round already converges; recovery stops
    after :data:`MAX_RECOVERY_ROUNDS` rounds regardless.

    This is the one place an image is recovered: the result, whose
    ``cfg`` is the recovered CFG, is what every image analysis takes.
    """
    extra: dict[int, str] = {}
    for _round in range(MAX_RECOVERY_ROUNDS):
        cfg = build_cfg(exe, isa, symbols=symbols,
                        extra_funcs=extra or None)
        result = analyze_executable(cfg, target=target)
        new = {t for t in result.resolved_targets
               if t not in cfg.visited}
        for block in cfg.blocks.values():
            _pc, term = block.terminator
            if term.op == Op.JLD and cfg.base <= term.imm < cfg.end:
                func = cfg.func_of(term.imm)
                if func is None or func[0] != term.imm:
                    new.add(term.imm)
        if not new:
            break
        for t in sorted(new):
            extra[t] = f"fn_{t:x}"
    return result
