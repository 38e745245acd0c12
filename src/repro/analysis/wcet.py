"""Whole-program static cycle bounds: loop bounds + interprocedural
[BCET, WCET] composition.

:mod:`repro.analysis.timing` proves per-block stall bounds but needs a
dynamic execution profile to bound a whole run.  This module removes
the profile: it bounds every run of a linked image *statically*, by

1. recovering the natural-loop forest of every function
   (:mod:`repro.analysis.loops`),
2. proving trip-count bounds for counted loops with a symbolic
   iteration analysis (induction values tracked relative to the loop
   header) combined with the interval facts of
   :mod:`repro.analysis.absint` for loop-entry values and invariant
   limits — argument registers are seeded *interprocedurally*, joining
   the proven intervals over every resolved call site, so a loop bound
   that lives in a caller's constant (``init(350)``) is still proven
   in the callee, and
3. composing per-function ``[BCET, WCET]`` cycle intervals bottom-up
   over the call graph with one loop collapse (:func:`_collapse`):
   loops fold innermost-first into ``trips x best-iteration-path``
   summary nodes, then the shortest path of the resulting DAG is the
   best case (at minimum trip counts, and never below the plain
   shortest path over the cyclic graph, which is sound because block
   costs are non-negative) and the longest path the worst case (at
   proven maximum trip counts).

Everything unprovable degrades *soundly*: an unbounded or irreducible
loop, an unresolved call, or call-graph recursion makes the affected
WCETs ``None`` (infinity) — reported via LOOP001/TIM004, never
guessed — while the BCET side stays finite and valid.  The
whole-program interval therefore always brackets the simulated cycle
count; :func:`validate_wcet` checks exactly that (TIM003 on escape,
TIM005 when a finite interval is wider than a slack factor).

The cycle currency is the zero-wait-state count used everywhere else
in the repo: ``instructions + interlocks`` (paper Figure 3's pipeline;
memory latency is layered on separately by :mod:`repro.machine.perf`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple

from ..cc.target import INT_ARG_REGS, REG_LINK, REG_RET, REG_SP
from ..isa import COND_NEGATE, COND_SWAP, Cond, Instr, Op, to_s32
from ..isa.operations import DATA_LOADS, DATA_STORES
from ..isa.refs import ldc_pool_addr
from ..machine.pipeline import PipelineParams
from ..machine.stats import RunStats
from .absint import (AnalysisResult, Interval, SPRel, ValueDomain,
                     _join_value, _signed, callee_saved, solve)
from .cfg import BasicBlock, BinaryCFG
from .findings import Finding, finding
from .loops import DomTree, Loop, LoopForest, find_loops
from .timing import StaticBounds, static_bounds

U32_MAX = (1 << 32) - 1
INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1

#: Default TIM005 trigger: warn when (WCET - BCET) exceeds this many
#: times the observed cycle count.  Chosen so the benchmark suite's
#: finite intervals stay quiet; override with ``repro lint --wcet-slack``.
DEFAULT_SLACK = 8.0

#: Rounds of best-case value iteration for recursive call-graph SCCs.
#: Every iterate is a sound lower bound, so capping only costs precision.
_BCET_ROUNDS = 64


# ---------------------------------------------------------------------------
# Symbolic one-iteration analysis: values relative to the loop header.
# ---------------------------------------------------------------------------


class Sym(NamedTuple):
    """``value of location `reg` at loop-header entry, plus `off```.

    A location is a general-register index or an SP-relative stack
    slot ``("sp", offset)`` — D16's 16-register file routinely spills
    loop counters, so slots are first-class induction locations."""

    reg: object
    off: int


class Shrink(NamedTuple):
    """``header value of `reg`, divided (toward zero) by `factor```.

    Produced by ``div rd, rs, #c`` and logical ``shri`` on the
    location's own header value — the induction shape of digit loops
    (``n = n / 10``), which terminate in at most ``log_factor(2^32)``
    iterations from *any* 32-bit start."""

    reg: object
    factor: int


class CmpFact(NamedTuple):
    """A compare result: 1 iff ``lhs cond rhs`` (operands Sym or int)."""

    cond: Cond
    lhs: object
    rhs: object


def _sym_add(a: object, b: object, sub: bool) -> object:
    # Adding/subtracting zero preserves any tracked value — DLXe
    # canonicalizes register moves as ``add rd, rs, r0``, so this
    # identity is what keeps Shrink chains alive across moves.
    if b == 0 and a is not None:
        return a
    if a == 0 and not sub and b is not None:
        return b
    if isinstance(a, int) and isinstance(b, int):
        return ((a - b) if sub else (a + b)) & U32_MAX
    if isinstance(a, Sym) and isinstance(b, int):
        d = to_s32(b)
        return Sym(a.reg, a.off - d if sub else a.off + d)
    if isinstance(a, int) and isinstance(b, Sym) and not sub:
        return Sym(b.reg, b.off + to_s32(a))
    if isinstance(a, Sym) and isinstance(b, Sym) and sub \
            and a.reg == b.reg:
        return (a.off - b.off) & U32_MAX
    return None


def _sym_shrink(a: object, divisor: int) -> Shrink | None:
    """Division/shift of a tracked value by a constant ``divisor >= 2``."""
    if divisor < 2:
        return None
    if isinstance(a, Sym) and a.off == 0:
        return Shrink(a.reg, divisor)
    if isinstance(a, Shrink):
        return Shrink(a.reg, a.factor * divisor)
    return None


#: State key asserting "no untracked store since loop-header entry":
#: while present, a stack slot with no explicit entry still holds its
#: header value.  Untracked stores and calls remove it (and every
#: explicit slot), soundly forgetting all memory.
_MEMTOK = "mem"


class _Unknown:
    """Explicit slot TOP (a plain absence would read as 'unchanged')."""

    def __repr__(self) -> str:               # pragma: no cover - debug
        return "<unknown>"


_UNKNOWN = _Unknown()


class _IterDomain:
    """Abstract domain for one loop iteration: every register (and,
    lazily, every SP-relative stack slot) starts as its own
    header-entry symbol; affine updates, constant-divisor shrinks, and
    compare facts are tracked, everything else drops to TOP."""

    def __init__(self, cfg: BinaryCFG, preserved: frozenset[int],
                 header_consts: dict[int, int] | None = None):
        self.cfg = cfg
        self.zero_r0 = cfg.isa.name == "DLXe"
        self.preserved = preserved
        #: Registers with a proven constant value at the loop header
        #: (from the interval analysis).  ``Sym(r, 0)`` means "still
        #: the header value", so these resolve hoisted loop-invariant
        #: constants — e.g. the divisor register of a digit loop.
        self.header_consts = dict(header_consts or {})

    def entry_state(self) -> dict:
        state = {r: Sym(r, 0) for r in range(32)}
        if self.zero_r0:
            state[0] = 0
        state[_MEMTOK] = True
        return state

    def lookup(self, state: dict, key: object) -> object:
        """Value of a register or slot key, implicit defaults applied."""
        v = state.get(key)
        if v is _UNKNOWN:
            return None
        if v is None and isinstance(key, tuple) and _MEMTOK in state:
            return Sym(key, 0)        # untouched slot: header value
        return v

    def join(self, old: dict, new: dict, at: int) -> dict:
        out = {}
        for k in old.keys() | new.keys():
            if isinstance(k, tuple):  # slot: absence has meaning
                a = old.get(k, Sym(k, 0) if _MEMTOK in old else _UNKNOWN)
                b = new.get(k, Sym(k, 0) if _MEMTOK in new else _UNKNOWN)
                out[k] = a if (a is not _UNKNOWN and a == b) else _UNKNOWN
            elif k == _MEMTOK:
                if _MEMTOK in old and _MEMTOK in new:
                    out[k] = True
            elif k in old and k in new and old[k] == new[k]:
                out[k] = old[k]
        return out

    def widen(self, old: dict, joined: dict, at: int) -> dict:
        return joined                 # joins only ever drop knowledge

    def edge_state(self, block: BasicBlock, succ: int, out: dict) -> dict:
        return out

    def _get(self, state: dict, reg: int | None) -> object:
        if reg is None:
            return None
        if reg == 0 and self.zero_r0:
            return 0
        return state.get(reg)

    def _set(self, state: dict, reg: int,
             value: object) -> None:
        if reg == 0 and self.zero_r0:
            return
        if value is None:
            state.pop(reg, None)
        else:
            state[reg] = value

    def _kill_memory(self, state: dict) -> None:
        state.pop(_MEMTOK, None)
        for k in [k for k in state if isinstance(k, tuple)]:
            del state[k]

    def transfer(self, block: BasicBlock, state: dict) -> dict:
        state = dict(state)
        for pc, instr in block.instrs:
            self._step(pc, instr, state)
        if block.is_call:
            for reg in list(state):
                if isinstance(reg, int) and reg != REG_SP \
                        and reg not in self.preserved \
                        and not (reg == 0 and self.zero_r0):
                    del state[reg]
            self._kill_memory(state)  # the callee may write our frame
        return state

    def _const(self, value: object) -> int | None:
        """Signed constant behind a tracked value, if provable: a
        literal, or an unmodified register whose header value the
        interval analysis pinned to a constant."""
        if isinstance(value, int):
            return to_s32(value)
        if isinstance(value, Sym) and value.off == 0 \
                and isinstance(value.reg, int):
            return self.header_consts.get(value.reg)
        return None

    def _slot_key(self, state: dict,
                  instr: Instr) -> tuple[str, int] | None:
        """Slot key of a memory operand, when the base register holds
        an offset from the header-entry stack pointer."""
        base = self._get(state, instr.rs1)
        if isinstance(base, Sym) and base.reg == REG_SP:
            return ("sp", to_s32((base.off + instr.imm) & U32_MAX))
        return None

    def _step(self, pc: int, instr: Instr,
              state: dict) -> None:
        op = instr.op
        if op == Op.LD:
            key = self._slot_key(state, instr)
            value = self.lookup(state, key) if key is not None else None
            self._set(state, instr.rd, value)
            return
        if op in DATA_LOADS:
            self._set(state, instr.rd, None)
            return
        if op == Op.ST:
            key = self._slot_key(state, instr)
            if key is None:
                self._kill_memory(state)
                return
            for other in [k for k in state if isinstance(k, tuple)
                          and k != key and abs(k[1] - key[1]) < 4]:
                state[other] = _UNKNOWN     # word stores can overlap
            value = self._get(state, instr.rs2)
            state[key] = _UNKNOWN if value is None else value
            return
        if op in DATA_STORES:
            # Sub-word stores are never spill traffic; don't bother
            # modelling their footprint, just forget all memory.
            self._kill_memory(state)
            return
        a = self._get(state, instr.rs1)
        b = self._get(state, instr.rs2)
        imm = instr.imm
        if op == Op.MV:
            self._set(state, instr.rd, a)
            return
        if op == Op.MVI:
            self._set(state, instr.rd, imm & U32_MAX)
            return
        if op == Op.MVHI:
            self._set(state, instr.rd, (imm << 16) & U32_MAX)
            return
        if op == Op.LDC:
            self._set(state, instr.rd,
                      self.cfg.read_word(ldc_pool_addr(pc, imm)))
            return
        if op in (Op.ADD, Op.ADDI, Op.SUB, Op.SUBI):
            rhs = (imm & U32_MAX) if op in (Op.ADDI, Op.SUBI) else b
            self._set(state, instr.rd,
                      _sym_add(a, rhs, op in (Op.SUB, Op.SUBI)))
            return
        if op == Op.DIV:
            divisor = self._const(b)
            value = None
            if divisor is not None and divisor >= 2:
                value = _sym_shrink(a, divisor)
            self._set(state, instr.rd, value)
            return
        if op in (Op.SHRI, Op.SHR):
            k = imm if op == Op.SHRI else self._const(b)
            value = None
            if isinstance(k, int) and 1 <= (k & 31):
                value = _sym_shrink(a, 1 << (k & 31))
            self._set(state, instr.rd, value)
            return
        if op in (Op.CMP, Op.CMPI):
            rhs = (imm & U32_MAX) if op == Op.CMPI else b
            value = None
            if a is not None and rhs is not None \
                    and not isinstance(a, CmpFact) \
                    and not isinstance(rhs, CmpFact):
                value = CmpFact(instr.cond, a, rhs)
            self._set(state, instr.rd, value)
            return
        if op == Op.TRAP:
            if imm not in (0, 1):         # getc / sbrk write r2
                self._set(state, REG_RET, None)
            return
        if op == Op.JL:
            self._set(state, REG_LINK, None)
            return
        info = instr.info
        for fld in info.writes:
            if info.reg_class.get(fld) == "g":
                self._set(state, getattr(instr, fld), None)


# ---------------------------------------------------------------------------
# Loop trip-count inference.
# ---------------------------------------------------------------------------


class Trips(NamedTuple):
    """Completed-iteration range proven for one exit test."""

    lo: int
    hi: int


@dataclass(frozen=True)
class LoopBound:
    """The proven (or refused) bound of one natural loop."""

    header: int
    depth: int
    max_header_execs: int | None          # None: not provable
    reason: str                           # evidence / refusal cause
    test_pc: int | None = None
    #: Sound lower bound on header executions per loop entry.  1 by
    #: definition of entering; > 1 only when the counted exit is the
    #: loop's sole way out (no break/return/halt inside).
    min_header_execs: int = 1

    @property
    def bounded(self) -> bool:
        return self.max_header_execs is not None


class _LoopCtx:
    """Answers the trip-count queries for one loop: per-iteration
    steps/shrink factors (agreeing across every latch), loop-entry
    value ranges, and invariant limit ranges — uniformly over register
    and stack-slot induction locations."""

    def __init__(self, domain: _IterDomain, latch_outs: list[dict],
                 vd: ValueDomain, init_state: dict,
                 slot_inits: dict, header_state: dict):
        self.domain = domain
        self.latch_outs = latch_outs
        self.vd = vd
        self.init_state = init_state
        self.slot_inits = slot_inits
        self.header_state = header_state

    def step_of(self, key: object) -> int | None:
        """Affine per-iteration step of a location, if every latch
        agrees; 0 means provably loop-invariant."""
        step = None
        for out in self.latch_outs:
            v = self.domain.lookup(out, key)
            if not (isinstance(v, Sym) and v.reg == key):
                return None
            if step is None:
                step = to_s32(v.off & U32_MAX)
            elif step != to_s32(v.off & U32_MAX):
                return None
        return step

    def shrink_of(self, key: object) -> int | None:
        """Constant shrink divisor of a location, if every latch
        shrinks it (the smallest factor bounds all of them)."""
        factor = None
        for out in self.latch_outs:
            v = self.domain.lookup(out, key)
            if not (isinstance(v, Shrink) and v.reg == key):
                return None
            factor = v.factor if factor is None \
                else min(factor, v.factor)
        return factor

    def init_range(self, key: object) -> tuple[int, int] | None:
        """Signed range of a location's value on loop entry."""
        if isinstance(key, tuple):
            iv = self.slot_inits.get(key)
        else:
            iv = self.vd._get(self.init_state, key)
        if isinstance(iv, Interval):
            return _signed(iv)
        return None

    def limit_range(self, value: object) -> tuple[int, int] | None:
        """Signed range of the comparison's limit operand, if provably
        loop-invariant (a constant, or an unchanging location whose
        value on loop entry is known)."""
        if isinstance(value, int):
            s = to_s32(value)
            return s, s
        if isinstance(value, Sym) and self.step_of(value.reg) == 0:
            if isinstance(value.reg, tuple):
                # Invariant slot: its header value every iteration is
                # its loop-entry value.
                sr = self.init_range(value.reg)
            else:
                hv = self.header_state.get(value.reg)
                sr = _signed(hv) if isinstance(hv, Interval) else None
            if sr is not None:
                lo, hi = sr[0] + value.off, sr[1] + value.off
                if INT_MIN <= lo and hi <= INT_MAX:
                    return lo, hi
        return None


def _shrink_trips(ind: object, limit: object, econd: Cond,
                  ctx: _LoopCtx) -> Trips | None:
    """Bound digit-style loops: the induction is divided (or shifted)
    by a constant factor >= 2 every iteration and the loop exits when
    it reaches/crosses zero.  Truncating division moves any 32-bit
    value to 0 in at most ``ceil(log_factor(2^32))`` steps, so the
    bound holds with no knowledge of the start value at all (a known
    interval tightens it)."""
    if isinstance(ind, Sym) and ind.off == 0:
        reg = ind.reg
    elif isinstance(ind, Shrink):
        reg = ind.reg
    else:
        return None
    factor = ctx.shrink_of(reg)
    if factor is None or factor < 2:
        return None
    if not (isinstance(limit, int) and to_s32(limit) == 0):
        return None
    if econd not in (Cond.LE, Cond.EQ):   # exit when v <= 0 / v == 0
        return None
    magnitude = 1 << 32                   # any u32 (or |s32|) start
    sr = ctx.init_range(reg)
    if sr is not None:
        magnitude = max(abs(sr[0]), abs(sr[1])) + 1
    trips, ceiling = 0, 1
    while ceiling < magnitude:
        ceiling *= factor
        trips += 1
    return Trips(0, trips)


def _counted_trips(ind: object, limit: object, econd: Cond,
                  ctx: _LoopCtx) -> Trips | None:
    """[min, max] completed iterations before the exit test fires.

    ``ind`` must be the induction side (``Sym`` with a nonzero affine
    step, or a shrink chain); ``limit`` the invariant side; ``econd``
    the condition under which the loop exits.  All reasoning is done in
    exact integer arithmetic with explicit no-overflow checks, so the
    bound holds for the wrapping 32-bit machine.
    """
    shrink = _shrink_trips(ind, limit, econd, ctx)
    if shrink is not None:
        return shrink
    if not isinstance(ind, Sym):
        return None
    step = ctx.step_of(ind.reg)
    if not step:
        return None
    lim = ctx.limit_range(limit)
    if lim is None:
        return None
    llo, lhi = lim
    sr = ctx.init_range(ind.reg)
    if sr is None:
        return None
    a, b = sr[0] + ind.off, sr[1] + ind.off   # test-point value range
    if a < INT_MIN or b > INT_MAX:
        return None

    if econd in (Cond.LTU, Cond.LEU, Cond.GTU, Cond.GEU):
        # Unsigned orderings coincide with signed ones while every value
        # stays non-negative; descending loops additionally must not be
        # able to step over the [0, limit] band into the huge wrapped
        # values.
        if a < 0 or llo < 0:
            return None
        if step < 0 and llo < -step - 1:
            return None
        econd = {Cond.LTU: Cond.LT, Cond.LEU: Cond.LE,
                 Cond.GTU: Cond.GT, Cond.GEU: Cond.GE}[econd]

    if step < 0:                        # mirror into the ascending case
        a, b = -b, -a
        llo, lhi = -lhi, -llo
        step = -step
        econd = COND_SWAP[econd]

    if econd in (Cond.GE, Cond.GT):
        adj = 1 if econd == Cond.GT else 0
        target_hi, target_lo = lhi + adj, llo + adj
        if max(b, target_hi - 1 + step) > INT_MAX:
            return None               # could wrap before the test fires
        hi = max(0, -((a - target_hi) // step))     # ceil((t-a)/step)
        lo = max(0, -((b - target_lo) // step))
        return Trips(lo, hi)
    if econd in (Cond.LE, Cond.LT):
        # Marching away from the exit: bounded only if already true.
        if b <= llo - (1 if econd == Cond.LT else 0):
            return Trips(0, 0)
        return None
    if econd == Cond.EQ:
        if step == 1 and b <= llo:
            return Trips(max(0, llo - b), lhi - a)
        if a == b and llo == lhi and llo >= a and (llo - a) % step == 0:
            exact = (llo - a) // step
            return Trips(exact, exact)
        return None
    if econd == Cond.NE:
        # The induction changes every iteration, so it can sit on the
        # limit for at most one test.
        return Trips(0, 1)
    return None


def _is_terminal(blk: BasicBlock, blocks: dict[int, BasicBlock]) -> bool:
    """True when execution can end (or escape the function) at ``blk``."""
    return (blk.is_halt or blk.is_return or not blk.succs
            or any(s not in blocks for s in blk.succs))


def infer_loop_bound(cfg: BinaryCFG, blocks: dict[int, BasicBlock],
                     loop: Loop, dom: DomTree, vd: ValueDomain,
                     func_states: dict[int, dict]) -> LoopBound:
    """Prove header-execution bounds for one natural loop."""
    for addr in sorted(loop.body):
        blk = blocks[addr]
        if blk.indirect and not blk.is_return:
            return LoopBound(loop.header, loop.depth, None,
                             f"register-indirect jump at "
                             f"{blk.terminator[0]:#x} inside the loop")

    # One symbolic iteration: cut the back edges and solve to fixpoint.
    cut = {addr: replace(blocks[addr], succs=tuple(
        s for s in blocks[addr].succs
        if s in loop.body and s != loop.header))
        for addr in loop.body}
    header_consts = {
        r: to_s32(v.lo)
        for r, v in func_states.get(loop.header, {}).items()
        if isinstance(r, int) and isinstance(v, Interval) and v.is_const}
    domain = _IterDomain(cfg, vd.preserved, header_consts)
    in_states = solve(cut, loop.header, domain, widen_after=2)

    # Per-latch end-of-iteration states: a location is an induction
    # when every latch leaves it a tracked function of its own
    # header-entry value (_LoopCtx.step_of / shrink_of query these).
    latch_outs: list[dict] = []
    for latch in loop.latches:
        st = in_states.get(latch)
        if st is None:
            return LoopBound(loop.header, loop.depth, None,
                             f"latch {latch:#x} unreachable in the "
                             f"iteration analysis")
        latch_outs.append(domain.transfer(cut[latch], st))

    # Loop-entry value ranges: join the states along entry edges only.
    # Stack-slot entry values come from replaying each entry block's
    # SP-relative word stores against its abstract register state
    # (compilers emit the spill of a counter's initial value right
    # before the loop); slot offsets are keyed relative to the
    # header's stack pointer so they match the iteration domain.
    sp_at_header = func_states.get(loop.header, {}).get(REG_SP)
    sp_delta = sp_at_header.delta \
        if isinstance(sp_at_header, SPRel) else None
    init_state: dict | None = None
    slot_inits: dict | None = None
    for p in dom.preds.get(loop.header, ()):
        if p in loop.body:
            continue
        st = func_states.get(p)
        state = dict(st) if st is not None else vd.unknown_state()
        slots: dict = {}
        for pc, instr in blocks[p].instrs:
            if instr.op in (Op.ST, Op.STH, Op.STB):
                base = vd._get(state, instr.rs1)
                if instr.op == Op.ST and isinstance(base, SPRel) \
                        and sp_delta is not None:
                    key = ("sp", base.delta + instr.imm - sp_delta)
                    for other in [k for k in slots if k != key
                                  and abs(k[1] - key[1]) < 4]:
                        del slots[other]
                    value = vd._get(state, instr.rs2)
                    if isinstance(value, Interval):
                        slots[key] = value
                    else:
                        slots.pop(key, None)
                else:
                    slots.clear()     # untracked or sub-word store
            vd._step(pc, instr, state, None)
        if blocks[p].is_call:
            slots.clear()             # the callee may write our frame
            vd._call_clobber(state, blocks[p], None)
        edge = vd.edge_state(blocks[p], loop.header, state)
        init_state = edge if init_state is None \
            else vd.join(init_state, edge, loop.header)
        slot_inits = slots if slot_inits is None else {
            k: v for k in slot_inits.keys() & slots.keys()
            if isinstance(v := _join_value(slot_inits[k], slots[k]),
                          Interval)}
    if loop.header == dom.entry:
        e = vd.entry_state()
        init_state = e if init_state is None \
            else vd.join(init_state, e, loop.header)
        slot_inits = {}               # nothing known about entry memory
    if init_state is None:
        init_state = vd.unknown_state()
    ctx = _LoopCtx(domain, latch_outs, vd, init_state, slot_inits or {},
                   func_states.get(loop.header, {}))

    # A minimum above the trivial 1 requires that the counted test is
    # the only way out: a break, return, halt, or escape inside the
    # body can cut a run short.
    sole_exit_ok = len(loop.exits) <= 1 and not any(
        _is_terminal(blocks[addr], blocks) for addr in loop.body)

    # Every exit test that guards all latches is a candidate proof.
    best: Trips | None = None
    best_pc: int | None = None
    refusals: list[str] = []
    for u, s in loop.exits:
        blk = blocks[u]
        pc, term = blk.terminator
        if term.op not in (Op.BZ, Op.BNZ):
            continue
        succs = blk.succs
        if len(succs) != 2 or succs[0] == succs[1]:
            continue
        if succs[0] not in loop.body and succs[1] not in loop.body:
            continue
        if not all(dom.dominates(u, lt) for lt in loop.latches):
            refusals.append(f"test at {pc:#x} does not guard every "
                            f"iteration")
            continue
        st = in_states.get(u)
        if st is None:
            continue
        out = domain.transfer(cut[u], st)
        fact = domain._get(out, term.rs1)
        if not isinstance(fact, CmpFact):
            refusals.append(f"test at {pc:#x} is not a tracked compare")
            continue
        exit_via_taken = s == succs[1]
        exit_on_true = (term.op == Op.BNZ) == exit_via_taken
        econd = fact.cond if exit_on_true else COND_NEGATE[fact.cond]
        for ind, limit, cond in ((fact.lhs, fact.rhs, econd),
                                 (fact.rhs, fact.lhs, COND_SWAP[econd])):
            trips = _counted_trips(ind, limit, cond, ctx)
            if trips is None:
                continue
            if best is None or trips.hi + 1 < best.hi + 1:
                best, best_pc = trips, pc
    if best is not None:
        min_execs = best.lo + 1 if sole_exit_ok else 1
        return LoopBound(loop.header, loop.depth, best.hi + 1,
                         f"counted exit at {best_pc:#x}: "
                         f"[{min_execs}, {best.hi + 1}] header "
                         f"execution(s) per entry",
                         test_pc=best_pc, min_header_execs=min_execs)
    detail = refusals[0] if refusals else \
        "no exit compares an affine induction against an invariant limit"
    return LoopBound(loop.header, loop.depth, None, detail)


# ---------------------------------------------------------------------------
# Per-function interval composition.
# ---------------------------------------------------------------------------


@dataclass
class FunctionTiming:
    """The static cycle interval of one function (callees included)."""

    name: str
    start: int
    n_blocks: int
    bcet: int = 0
    wcet: int | None = None
    loops: tuple[LoopBound, ...] = ()
    irreducible: tuple[tuple[int, int], ...] = ()
    blockers: tuple[str, ...] = ()        # why wcet is None
    recursive: bool = False
    callees: tuple[int, ...] = ()         # resolved callee starts

    @property
    def n_loops(self) -> int:
        return len(self.loops)

    @property
    def bounded_loops(self) -> int:
        return sum(1 for lb in self.loops if lb.bounded)

    @property
    def proven_trips(self) -> dict[int, int]:
        """Header -> proven maximum header executions per loop entry."""
        return {lb.header: lb.max_header_execs for lb in self.loops
                if lb.max_header_execs is not None}

    def to_record(self) -> dict:
        return {"name": self.name, "start": self.start,
                "blocks": self.n_blocks, "bcet": self.bcet,
                "wcet": self.wcet, "loops": self.n_loops,
                "bounded_loops": self.bounded_loops,
                "recursive": self.recursive,
                "blockers": list(self.blockers),
                "loop_bounds": [
                    {"header": lb.header, "depth": lb.depth,
                     "min": lb.min_header_execs,
                     "max": lb.max_header_execs, "reason": lb.reason}
                    for lb in self.loops]}


class _FuncInfo(NamedTuple):
    timing: FunctionTiming
    blocks: dict[int, BasicBlock]
    forest: LoopForest
    call_of: dict[int, int | None]        # call block -> callee start


def _kahn(succs: Mapping[int, Iterable[int]]) -> list[int] | None:
    """Topological order of a successor map, or None on a cycle."""
    indeg = {n: 0 for n in succs}
    for ss in succs.values():
        for s in ss:
            if s in indeg:
                indeg[s] += 1
    ready = sorted((n for n, d in indeg.items() if d == 0), reverse=True)
    order: list[int] = []
    while ready:
        n = ready.pop()
        order.append(n)
        for s in succs[n]:
            if s in indeg:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
    return order if len(order) == len(indeg) else None


def _block_costs(info: _FuncInfo, bounds: StaticBounds, lo: bool,
                 callee_cost: dict[int, int | None]) -> dict[int, int]:
    """Per-block cycle cost, callee interval folded into call blocks.

    For the lower bound an unknown callee contributes 0 (sound); the
    upper-bound path never reaches here with an unknown callee (the
    blocker machinery refuses first).
    """
    costs = {}
    for addr in info.blocks:
        bb = bounds.blocks[addr]
        cost = bb.cycles_lo if lo else bb.cycles_hi
        callee = info.call_of.get(addr)
        if callee is not None:
            extra = callee_cost.get(callee)
            cost += extra if extra is not None else 0
        costs[addr] = cost
    return costs


def _func_bcet(info: _FuncInfo, costs: dict[int, int]) -> int:
    """Shortest entry-to-end path cost: a sound best case even through
    cycles (block costs are non-negative, so loops never reduce it)."""
    blocks = info.blocks
    entry = info.timing.start
    if entry not in blocks:
        return 0
    dist = {entry: costs[entry]}
    heap = [(dist[entry], entry)]
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist[n]:
            continue
        blk = blocks[n]
        if _is_terminal(blk, blocks):
            return d                  # first end popped is the minimum
        for s in blk.succs:
            nd = d + costs[s]
            if nd < dist.get(s, nd + 1):
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    return dist[entry]                # no terminating path found


def _dag_paths(succs: Mapping[int, Iterable[int]],
               source: int, cost: dict[int, int],
               pick: Callable[[int, int], int]) -> dict[int, int] | None:
    """The ``pick`` (``min`` or ``max``) path cost, both ends included,
    from ``source`` to every node it reaches in an acyclic successor
    map; None when the map has a cycle."""
    topo = _kahn(succs)
    if topo is None:
        return None
    dist = {source: cost[source]}
    for n in topo:
        if n not in dist:
            continue
        for s in succs[n]:
            if s in cost:
                cand = dist[n] + cost[s]
                dist[s] = pick(dist[s], cand) if s in dist else cand
    return dist


def _collapse(info: _FuncInfo, costs: dict[int, int],
              trips: dict[int, int], *, longest: bool,
              loop_extra: dict[int, int] | None = None) -> int | None:
    """Shortest (or ``longest``) entry-to-end path after collapsing
    loops innermost-first into ``trips x best-iteration`` nodes.

    An iteration is a path from the header to a segment end: a latch
    (a full iteration), an exit source, or a terminal block inside the
    body (break/return/halt cuts it short).  Every entry into a loop
    executes its header ``trips[header]`` times at least (shortest) or
    at most (longest), each execution starting one such segment, so
    ``trips x`` the shortest or longest segment is a sound floor or
    ceiling.  ``loop_extra`` adds a one-off charge per collapsed loop,
    keyed by header: the I-cache bound bills persistent fetch sites
    once per loop entry with it.  None when a loop has no trip count
    or a cycle is left over (irreducible flow).
    """
    pick: Callable[..., int] = max if longest else min
    blocks = info.blocks
    reach = set(info.forest.dom.rpo)
    node_cost = {a: costs[a] for a in reach}
    node_succs = {a: {s for s in blocks[a].succs if s in reach}
                  for a in reach}
    end_nodes = {a for a in reach if _is_terminal(blocks[a], blocks)}
    alias = {a: a for a in reach}

    for loop in info.forest.innermost_first():
        count = trips.get(loop.header)
        members = {alias[b] for b in loop.body if b in alias}
        head = alias.get(loop.header)
        if count is None or head is None or head not in members:
            return None
        sub = {m: [s for s in node_succs[m]
                   if s in members and s != head] for m in members}
        dist = _dag_paths(sub, head, node_cost, pick)
        if dist is None:
            return None               # leftover cycle: not reducible
        ends = {alias[lt] for lt in loop.latches if lt in alias}
        ends |= {alias[u] for u, _s in loop.exits if u in alias}
        ends |= members & end_nodes
        reached = [dist[e] for e in ends if e in dist]
        iteration = pick(reached) if reached else dist[head]
        externals: set[int] = set()
        for m in members:
            externals |= node_succs.pop(m) - members
            del node_cost[m]
        node_cost[head] = count * iteration
        if loop_extra is not None:
            node_cost[head] += loop_extra.get(loop.header, 0)
        node_succs[head] = externals
        if members & end_nodes:
            end_nodes -= members
            end_nodes.add(head)
        for b in loop.body:
            alias[b] = head

    start = alias.get(info.timing.start)
    if start is None or start not in node_cost:
        return None
    dist = _dag_paths(node_succs, start, node_cost, pick)
    if dist is None:
        return None
    ends = [dist[n] for n in end_nodes if n in dist]
    return pick(ends) if ends else dist[start]


def _best_case(info: _FuncInfo, costs: dict[int, int]) -> int:
    """The larger of two sound floors: the plain shortest path and the
    shortest path with loops collapsed at their minimum trip counts."""
    plain = _func_bcet(info, costs)
    collapsed = _collapse(info, costs, {lb.header: lb.min_header_execs
                                        for lb in info.timing.loops},
                          longest=False)
    return plain if collapsed is None else max(plain, collapsed)


def _call_sccs(nodes: set[int],
               edges: dict[int, set[int]]) -> list[list[int]]:
    """Tarjan SCCs, emitted callees-first (reverse topological)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            n, it = work[-1]
            advanced = False
            for s in it:
                if s not in nodes:
                    continue
                if s not in index:
                    index[s] = low[s] = counter
                    counter += 1
                    stack.append(s)
                    on_stack.add(s)
                    work.append((s, iter(sorted(edges.get(s, ())))))
                    advanced = True
                    break
                if s in on_stack:
                    low[n] = min(low[n], index[s])
            if not advanced:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[n])
                if low[n] == index[n]:
                    comp = []
                    while True:
                        m = stack.pop()
                        on_stack.discard(m)
                        comp.append(m)
                        if m == n:
                            break
                    out.append(sorted(comp))
    return out


# ---------------------------------------------------------------------------
# Whole-program analysis.
# ---------------------------------------------------------------------------


@dataclass
class ProgramWcet:
    """The statically composed cycle interval of one linked image."""

    cfg: BinaryCFG
    bounds: StaticBounds
    functions: dict[int, FunctionTiming]      # by function start
    entry_func: int | None
    bcet: int
    wcet: int | None                          # None: unbounded
    findings: list[Finding] = field(default_factory=list)
    #: Per-function structural info (blocks, loop forest, call sites),
    #: keyed by function start -- the substrate other interprocedural
    #: analyses (e.g. the I-cache classifier) compose over.
    infos: dict = field(default_factory=dict, repr=False)

    @property
    def n_loops(self) -> int:
        return sum(f.n_loops for f in self.functions.values())

    @property
    def bounded_loops(self) -> int:
        return sum(f.bounded_loops for f in self.functions.values())

    def function_records(self) -> list[dict[str, object]]:
        return [self.functions[start].to_record()
                for start in sorted(self.functions)]


def _call_site_args(vd: ValueDomain, blocks: dict[int, BasicBlock],
                    func_states: dict[int, dict],
                    call_of: dict[int, int | None],
                    ) -> dict[int, dict[int, Interval]]:
    """Proven argument-register intervals at each resolved call site."""
    out: dict[int, dict[int, Interval]] = {}
    for addr, callee in call_of.items():
        if callee is None:
            continue
        st = func_states.get(addr)
        state = dict(st) if st is not None else vd.unknown_state()
        for pc, instr in blocks[addr].instrs[:-1]:
            vd._step(pc, instr, state, None)
        args = {r: v for r in INT_ARG_REGS
                if isinstance(v := vd._get(state, r), Interval)}
        prev = out.get(callee)
        out[callee] = args if prev is None else _join_args(prev, args)
    return out


def _join_args(a: dict[int, Interval],
               b: dict[int, Interval]) -> dict[int, Interval]:
    joined = {}
    for r in a.keys() & b.keys():
        v = _join_value(a[r], b[r])
        if isinstance(v, Interval):
            joined[r] = v
    return joined


def analyze_wcet(image: AnalysisResult, *,
                 model: PipelineParams | None) -> ProgramWcet:
    """Compose the whole-program static cycle interval of an image
    recovered by :func:`~repro.analysis.absint.resolve_cfg`."""
    cfg = image.cfg
    model = model or PipelineParams()
    bounds = static_bounds(cfg, model=model)
    preserved = callee_saved(image.target)
    gp_value = cfg.exe.symbols.get("__gp")

    call_targets: dict[int, int | None] = {}
    for summary in image.functions.values():
        for pc, tgt in summary.call_sites:
            call_targets[pc] = tgt

    # ---- structural pass: blocks, loop forests, resolved call sites.
    findings: list[Finding] = []
    infos: dict[int, _FuncInfo] = {}
    structural: dict[int, list[str]] = {}
    any_unresolved = False
    for fstart, name in cfg.funcs:
        blocks = {b.start: b for b in cfg.function_blocks(fstart)}
        if fstart not in blocks:
            continue
        forest = find_loops(blocks, fstart)
        blockers: list[str] = []
        if forest.irreducible:
            edges = ", ".join(f"{u:#x}->{v:#x}"
                              for u, v in forest.irreducible)
            blockers.append("irreducible control flow")
            findings.append(finding(
                "LOOP001", cfg.describe(fstart),
                f"irreducible region in '{name}': retreating edge(s) "
                f"{edges} whose target does not dominate the source"))
        for blk in blocks.values():
            if blk.indirect and not blk.is_return:
                blockers.append(
                    f"indirect jump at {blk.terminator[0]:#x}")
            if any(s not in blocks for s in blk.succs):
                blockers.append(
                    f"control flow leaves the function span at "
                    f"{blk.terminator[0]:#x}")
        call_of: dict[int, int | None] = {}
        callees: set[int] = set()
        for blk in blocks.values():
            if not blk.is_call:
                continue
            pc = blk.terminator[0]
            tgt = call_targets.get(pc)
            callee = None
            if tgt is None:
                blockers.append(f"unresolved call at {pc:#x}")
            else:
                fo = cfg.func_of(tgt)
                if fo is not None and fo[0] == tgt and tgt in cfg.blocks:
                    callee = tgt
                else:
                    blockers.append(
                        f"call at {pc:#x} targets mid-function "
                        f"{tgt:#x}")
            if callee is None:
                any_unresolved = True
            else:
                callees.add(callee)
            call_of[blk.start] = callee
        timing = FunctionTiming(
            name=name, start=fstart, n_blocks=len(blocks),
            irreducible=forest.irreducible,
            callees=tuple(sorted(callees)))
        infos[fstart] = _FuncInfo(timing=timing, blocks=blocks,
                                  forest=forest, call_of=call_of)
        structural[fstart] = blockers

    nodes = set(infos)
    edges = {f: {c for c in info.timing.callees if c in infos}
             for f, info in infos.items()}
    sccs = _call_sccs(nodes, edges)
    in_cycle = {f for scc in sccs for f in scc
                if len(scc) > 1 or scc[0] in edges[scc[0]]}
    entry = cfg.exe.entry
    fo = cfg.func_of(entry)
    entry_func = fo[0] if fo is not None and fo[0] == entry \
        and fo[0] in infos else None

    # ---- value pass, callers first: solve each function with its
    # argument registers seeded from every resolved call site, harvest
    # the call-site argument intervals for its callees, and prove loop
    # bounds from the seeded states.  An unresolved call anywhere means
    # the caller set of *no* function is fully known, so seeding is
    # disabled outright rather than made unsound.
    arg_seeds: dict[int, dict[int, Interval] | None] = {}
    for scc in reversed(sccs):             # condensation, callers first
        for fstart in scc:
            info = infos[fstart]
            name = info.timing.name
            seed = arg_seeds.get(fstart)
            if (any_unresolved or fstart in in_cycle
                    or fstart == entry_func or seed is None):
                seed = {}
            vd = ValueDomain(cfg, preserved=preserved,
                             gp_value=None if name == "_start"
                             else gp_value,
                             entry_args=seed)
            func_states = solve(info.blocks, fstart, vd)
            for callee, args in _call_site_args(
                    vd, info.blocks, func_states, info.call_of).items():
                prev = arg_seeds.get(callee)
                arg_seeds[callee] = args if prev is None \
                    else _join_args(prev, args)

            blockers = list(structural[fstart])
            loop_bounds: list[LoopBound] = []
            for loop in info.forest.innermost_first():
                lb = infer_loop_bound(cfg, info.blocks, loop,
                                      info.forest.dom, vd, func_states)
                loop_bounds.append(lb)
                if not lb.bounded:
                    blockers.append(f"unbounded loop at {lb.header:#x}")
                    findings.append(finding(
                        "LOOP001", cfg.describe(lb.header),
                        f"loop bound not provable: {lb.reason}"))
            infos[fstart] = info._replace(timing=replace(
                info.timing, loops=tuple(loop_bounds),
                blockers=tuple(blockers)))

    # ---- composition, bottom-up over call-graph SCCs.
    bcet_of: dict[int, int | None] = {}
    wcet_of: dict[int, int | None] = {}
    for scc in sccs:
        recursive = scc[0] in in_cycle
        if recursive:
            names = ", ".join(f"'{infos[f].timing.name}'" for f in scc)
            findings.append(finding(
                "TIM004", cfg.describe(scc[0]),
                f"call-graph recursion through {names}: worst-case "
                f"composition refused (best case stays valid)"))
        for f in scc:
            bcet_of[f] = 0
        for _round in range(_BCET_ROUNDS if recursive else 1):
            changed = False
            for f in scc:
                costs = _block_costs(infos[f], bounds, lo=True,
                                     callee_cost=bcet_of)
                value = _best_case(infos[f], costs)
                if value != bcet_of[f]:
                    bcet_of[f] = value
                    changed = True
            if not changed:
                break
        for f in scc:
            info = infos[f]
            timing = info.timing
            blockers = list(timing.blockers)
            if recursive:
                blockers.append("recursive")
            for c in timing.callees:
                if wcet_of.get(c) is None and c not in scc:
                    blockers.append(
                        f"callee '{infos[c].timing.name}' has no "
                        f"finite worst case")
            wcet = None
            if not blockers:
                costs = _block_costs(info, bounds, lo=False,
                                     callee_cost=wcet_of)
                wcet = _collapse(info, costs, timing.proven_trips,
                                 longest=True)
                if wcet is None:
                    blockers.append("loop collapse failed")
            wcet_of[f] = wcet
            infos[f] = info._replace(timing=replace(
                timing, bcet=bcet_of[f], wcet=wcet,
                blockers=tuple(blockers), recursive=recursive))

    functions = {f: info.timing for f, info in infos.items()}
    if entry_func is not None:
        bcet = functions[entry_func].bcet
        wcet = functions[entry_func].wcet
    else:
        bcet, wcet = 0, None
    findings.sort(key=lambda f: (f.location, f.rule))
    return ProgramWcet(cfg=cfg, bounds=bounds, functions=functions,
                       entry_func=entry_func, bcet=bcet, wcet=wcet,
                       findings=findings, infos=infos)


# ---------------------------------------------------------------------------
# Validation against a simulated run.
# ---------------------------------------------------------------------------


@dataclass
class WcetValidation:
    """A simulated run checked against the whole-program interval."""

    program: ProgramWcet
    observed_cycles: int                      # instructions + interlocks
    findings: list[Finding] = field(default_factory=list)

    @property
    def bcet(self) -> int:
        return self.program.bcet

    @property
    def wcet(self) -> int | None:
        return self.program.wcet

    @property
    def bracketed(self) -> bool:
        return all(f.rule != "TIM003" for f in self.findings)


def validate_wcet(program: ProgramWcet, stats: RunStats, *,
                  slack: float | None = DEFAULT_SLACK) -> WcetValidation:
    """Check that a run's cycle count lands inside the static interval.

    TIM003 (error) fires when the observed zero-wait-state cycles
    escape ``[BCET, WCET]``; TIM005 (warning) when the interval is
    finite but wider than ``slack`` times the observed count.  The
    program-level LOOP001/TIM004 findings are carried through so one
    report tells the whole story.
    """
    observed = stats.instructions + stats.interlocks
    findings = list(program.findings)
    where = f"text:{program.cfg.base:#x}"
    if observed < program.bcet:
        findings.append(finding(
            "TIM003", where,
            f"simulated cycles {observed} fall below the static "
            f"whole-program best case {program.bcet}"))
    if program.wcet is not None and observed > program.wcet:
        findings.append(finding(
            "TIM003", where,
            f"simulated cycles {observed} exceed the static "
            f"whole-program worst case {program.wcet}"))
    if slack and program.wcet is not None and observed \
            and program.wcet - program.bcet > slack * observed:
        findings.append(finding(
            "TIM005", where,
            f"static interval [{program.bcet}, {program.wcet}] is "
            f"wider than {slack:g}x the observed {observed} cycles"))
    return WcetValidation(program=program, observed_cycles=observed,
                          findings=findings)

