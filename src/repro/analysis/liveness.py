"""Backward register and stack-slot liveness over linked binaries.

This is the dataflow substrate of the static fault-vulnerability
analysis (:mod:`repro.analysis.vuln`): a bit-granular backward
liveness fixpoint over the :class:`~repro.analysis.cfg.BinaryCFG`,
answering *"if this register bit were silently corrupted at this
program point, could any observable behavior change?"*.

The domain is a map from general-register index to a 32-bit *live
mask*: bit ``i`` is set when some path from the program point reads
bit ``i`` of the register before every path overwrites it.  Masks are
per-bit because the machine's observable semantics are per-bit —
``trap 0`` exposes only ``r2 & 0xff`` as the exit code, ``andi``
discards masked-off source bits, shifts translate bit positions, and
carry chains in add/sub propagate strictly upward.  The transfer
functions below over-approximate bit flow (more-live is always sound):

* bitwise ops map demand through exactly; ``andi``/``ori`` drop bits
  forced by the immediate;
* add/sub/mul *smear* demand downward (a flip of source bit ``i`` can
  reach result bits ``>= i`` through carries, never below);
* ``div``/``rem`` keep the divisor fully live even when the result is
  dead: flipping it to zero raises a machine error, which a masking
  proof must exclude;
* memory addresses are fully live (a flipped address can fault);
* shift amounts are live only in bits 0-4 (both engines mask the
  amount with ``& 31``).

A parallel *stack-slot* domain tracks, per instruction, which bytes of
the current frame (negative entry-SP-relative offsets, recovered via
the abstract interpreter's :class:`~repro.analysis.absint.SPRel`
values) are live — giving must-kill for exact-address frame stores and
therefore dead-store detection (LIV001) plus store-data demand
refinement.  The tracked region is the function's own frame; loads
through unknown pointers or calls conservatively make every slot live.
Absolute-interval addresses are assumed not to alias the frame: the
toolchain only ever addresses locals SP-relatively, and any spilled
frame pointer reloaded from memory comes back as TOP (which is already
conservative).

Liveness is interprocedural: each function's entry live map
(``LIVE_IN``) and return-point live map (``RET_LIVE``) are summaries
iterated to a global fixpoint over the call graph recovered by the
abstract interpreter (pool-loaded D16 call targets included).  When
the image contains control flow the analysis cannot attribute — an
unresolved register-indirect call or a non-return indirect jump —
``imprecise`` is set and every function's return demand degrades to
all-live, keeping the per-pc masks sound in the presence of tail
jumps.

DLXe's hardwired ``r0`` is never live (both engines discard writes and
pin reads to zero), and registers beyond the ISA's architectural
register file (D16 names only r0-r15 of the machine's 32) have no
decodable reader, so their masks are identically zero — both facts the
fault classifier exploits directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cc.target import REG_LINK, REG_RET, REG_SP, TargetSpec
from ..isa import Instr, Op
from ..isa.operations import DATA_ACCESS, DATA_LOADS, DATA_STORES
from .absint import (AnalysisResult, Interval, SPRel,
                     ValueDomain, Value, callee_saved)
from .cfg import BasicBlock, BinaryCFG

FULL = 0xFFFFFFFF

#: reg index -> 32-bit live mask; absent registers are dead (mask 0).
LiveMap = dict[int, int]

_SHIFTS_IMM = {Op.SHLI, Op.SHRI, Op.SHRAI}
_SHIFTS_REG = {Op.SHL, Op.SHR, Op.SHRA}


def smear(mask: int) -> int:
    """Close a demand mask downward (carry-propagation closure).

    In add/sub/mul a flip of source bit ``i`` can disturb result bits
    ``i`` and above (carries move up), never below — so source bits up
    to the highest demanded result bit are live.
    """
    if not mask:
        return 0
    return (1 << mask.bit_length()) - 1


def _load_byte_mask(op: Op, byte: int) -> int:
    """Destination bits affected by flipping byte ``byte`` of the datum."""
    if op == Op.LD:
        return 0xFF << (8 * byte)
    if op == Op.LDBU:
        return 0xFF
    if op == Op.LDB:
        return FULL                        # sign bit smears upward
    if op == Op.LDHU:
        return 0xFF << (8 * byte)
    # LDH: high byte carries the sign into bits 8-31.
    return 0xFF if byte == 0 else FULL & ~0xFF


@dataclass(frozen=True)
class LoadSite:
    """One reachable load, with its abstract address, for the fault
    classifier's memory-byte and text-overlap reasoning."""

    pc: int
    op: Op
    size: int
    #: Absolute address interval ``[lo, hi]`` of the *effective* address
    #: (base + offset), or None when the base is stack-relative or TOP.
    addr: tuple[int, int] | None
    #: True when the base register is an entry-SP-relative value — the
    #: load reads the stack, assumed disjoint from static data and text.
    stack: bool
    #: Live mask of the destination at the load (0 = loaded value dead).
    dest_live: int


@dataclass
class DeadWrite:
    """A register write whose value is provably never observed (LIV002)."""

    pc: int
    func: str
    instr: Instr
    reg: int


@dataclass
class DeadStore:
    """A frame store whose bytes are provably never loaded (LIV001)."""

    pc: int
    func: str
    instr: Instr
    #: Entry-SP-relative byte offset of the first stored byte.
    offset: int
    size: int


@dataclass
class FunctionLiveness:
    """Interprocedural summary of one function."""

    name: str
    start: int
    live_in: LiveMap = field(default_factory=dict)
    ret_live: LiveMap = field(default_factory=dict)


@dataclass
class LivenessAnalysis:
    """Per-pc live masks plus derived dead-code facts for one image."""

    cfg: BinaryCFG
    #: pc -> live mask map at instruction entry / exit.
    live_in: dict[int, LiveMap]
    live_out: dict[int, LiveMap]
    functions: dict[str, FunctionLiveness]
    dead_writes: list[DeadWrite]
    dead_stores: list[DeadStore]
    loads: list[LoadSite]
    #: Set when unattributable control flow forced all-live summaries.
    imprecise: bool

    def live_mask(self, pc: int, reg: int) -> int:
        """Live mask of ``reg`` just before the instruction at ``pc``.

        Registers outside the ISA's architectural file are never
        addressable, hence dead; unknown pcs are conservatively FULL.
        """
        if reg == 0 and self.cfg.isa.name == "DLXe":
            return 0
        if reg >= self.cfg.isa.num_gregs:
            return 0
        state = self.live_in.get(pc)
        if state is None:
            return FULL
        return state.get(reg, 0)


def _join(a: LiveMap, b: LiveMap) -> LiveMap:
    out = dict(a)
    for reg, mask in b.items():
        out[reg] = out.get(reg, 0) | mask
    return out


#: Slot state: live frame-byte offsets (negative, entry-SP-relative),
#: or None = every slot live (top).
Slots = set[int] | None


def _join_slots(a: Slots, b: Slots) -> Slots:
    if a is None or b is None:
        return None
    return a | b


class _FuncLiveness:
    """Backward liveness solver for one function."""

    def __init__(self, analysis: "_ImageLiveness", fstart: int,
                 name: str) -> None:
        self.analysis = analysis
        self.fstart = fstart
        self.name = name
        cfg = analysis.cfg
        self.blocks = {b.start: b for b in cfg.function_blocks(fstart)}
        self.preds: dict[int, set[int]] = {s: set() for s in self.blocks}
        for start, block in self.blocks.items():
            for succ in block.succs:
                if succ in self.blocks:
                    self.preds[succ].add(start)
        #: Per-pc abstract value state at instruction entry, stepped
        #: from the block-entry states the value analysis solved
        #: (:attr:`AnalysisResult.states`) — used to disambiguate
        #: frame addresses and constant shift amounts.
        self.value_in: dict[int, dict[int, Value]] = {}
        domain = analysis.values
        in_states = analysis.states.get(fstart, {})
        for start in sorted(self.blocks):
            raw = in_states.get(start)
            state = dict(raw) if raw is not None \
                else domain.unknown_state()
            for pc, instr in self.blocks[start].instrs:
                self.value_in[pc] = dict(state)
                domain._step(pc, instr, state, None)
        #: Block-entry live state from the last backward solve.
        self.block_in: dict[int, tuple[LiveMap, Slots]] = {}

    # ------------------------------------------------------------ values

    def _value(self, pc: int, reg: int | None) -> Value:
        if reg is None:
            return None
        if reg == 0 and self.analysis.zero_r0:
            return Interval(0, 0)
        return self.value_in.get(pc, {}).get(reg)

    def _frame_offset(self, pc: int, instr: Instr) -> int | None:
        """Entry-SP-relative byte offset of a memory op's address."""
        base = self._value(pc, instr.rs1)
        if isinstance(base, SPRel):
            return base.delta + (instr.imm or 0)
        return None

    # ---------------------------------------------------------- transfer

    def _gen(self, state: LiveMap, reg: int | None, mask: int) -> None:
        if reg is None or not mask:
            return
        if reg == 0 and self.analysis.zero_r0:
            return                         # hardwired zero: never live
        state[reg] = state.get(reg, 0) | mask

    def _kill(self, state: LiveMap, reg: int | None) -> int:
        if reg is None:
            return 0
        return state.pop(reg, 0)

    def back_step(self, pc: int, instr: Instr, state: LiveMap,
                  slots: Slots) -> Slots:
        """Backward transfer of one instruction (mutates ``state``)."""
        op = instr.op
        gen, kill = self._gen, self._kill

        if op in DATA_LOADS:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, FULL)    # a flipped address can fault
            if slots is not None and d:
                off = self._frame_offset(pc, instr)
                if off is not None:
                    slots.update(b for b in
                                 range(off, off + DATA_ACCESS[op][0])
                                 if b < 0)
                else:
                    base = self._value(pc, instr.rs1)
                    if not isinstance(base, Interval):
                        slots = None       # unknown pointer: reads any slot
            return slots
        if op in DATA_STORES:
            gen(state, instr.rs1, FULL)
            size = DATA_ACCESS[op][0]
            data_mask = FULL >> (32 - 8 * size)
            off = self._frame_offset(pc, instr)
            if off is not None and slots is not None:
                span = range(off, off + size)
                live_bytes = [b for b in span if b >= 0 or b in slots]
                data_mask = 0
                for b in live_bytes:
                    data_mask |= 0xFF << (8 * (b - off))
                slots.difference_update(b for b in span if b < 0)
            gen(state, instr.rs2, data_mask)
            return slots
        if op == Op.LDC:
            kill(state, instr.rd)
            return slots
        if op == Op.MV:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d)
            return slots
        if op in (Op.MVI, Op.MVHI):
            kill(state, instr.rd)
            return slots
        if op == Op.NEG:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, smear(d))
            return slots
        if op == Op.INV:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d)
            return slots
        if op in (Op.ADD, Op.SUB, Op.MUL):
            d = smear(kill(state, instr.rd))
            gen(state, instr.rs1, d)
            gen(state, instr.rs2, d)
            return slots
        if op in (Op.ADDI, Op.SUBI):
            d = smear(kill(state, instr.rd))
            gen(state, instr.rs1, d)
            return slots
        if op in (Op.DIV, Op.REM):
            d = kill(state, instr.rd)
            gen(state, instr.rs1, FULL if d else 0)
            gen(state, instr.rs2, FULL)    # a zero divisor traps
            return slots
        if op in (Op.AND, Op.OR, Op.XOR):
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d)
            gen(state, instr.rs2, d)
            return slots
        if op == Op.ANDI:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d & ((instr.imm or 0) & FULL))
            return slots
        if op == Op.ORI:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d & ~((instr.imm or 0) & FULL) & FULL)
            return slots
        if op == Op.XORI:
            d = kill(state, instr.rd)
            gen(state, instr.rs1, d)
            return slots
        if op in _SHIFTS_IMM:
            d = kill(state, instr.rd)
            k = (instr.imm or 0) & 31
            gen(state, instr.rs1, self._shift_demand(op, d, k))
            return slots
        if op in _SHIFTS_REG:
            d = kill(state, instr.rd)
            if d:
                gen(state, instr.rs2, 0x1F)   # amount is masked with & 31
                amount = self._value(pc, instr.rs2)
                if isinstance(amount, Interval) and amount.is_const:
                    imm_op = {Op.SHL: Op.SHLI, Op.SHR: Op.SHRI,
                              Op.SHRA: Op.SHRAI}[op]
                    gen(state, instr.rs1,
                        self._shift_demand(imm_op, d, amount.lo & 31))
                else:
                    gen(state, instr.rs1, FULL)
            return slots
        if op in (Op.CMP, Op.CMPI):
            d = kill(state, instr.rd)
            if d:
                gen(state, instr.rs1, FULL)
                gen(state, instr.rs2, FULL)
            return slots
        if op == Op.RDSR:
            kill(state, instr.rd)
            return slots
        if op == Op.MVIF:
            gen(state, instr.rs1, FULL)    # FP file is untracked
            return slots
        if op == Op.MVFI:
            kill(state, instr.rd)
            return slots
        if op == Op.TRAP:
            imm = instr.imm or 0
            if imm in (0, 1):              # exit code / putc: low byte
                gen(state, REG_RET, 0xFF)
            elif imm == 2:                 # getc writes r2
                kill(state, REG_RET)
            elif imm == 3:                 # sbrk reads and writes r2
                kill(state, REG_RET)
                gen(state, REG_RET, FULL)
            else:                          # unknown trap: conservative
                gen(state, REG_RET, FULL)
            return slots
        if op in (Op.BZ, Op.BNZ):
            gen(state, instr.rs1, FULL)
            return slots
        if op in (Op.J, Op.JL):
            gen(state, instr.rs1, FULL)
            return slots
        if op in (Op.JZ, Op.JNZ):
            gen(state, instr.rs1, FULL)
            gen(state, instr.rs2, FULL)
            return slots
        if op in (Op.BR, Op.JD, Op.JLD, Op.NOP):
            return slots
        # FP-only ops and anything unhandled: kill general writes, make
        # general reads fully live — soundness over precision.
        info = instr.info
        for fld in info.writes:
            if info.reg_class.get(fld) == "g":
                kill(state, getattr(instr, fld))
        for fld in info.reads:
            if info.reg_class.get(fld) == "g":
                gen(state, getattr(instr, fld), FULL)
        return slots

    @staticmethod
    def _shift_demand(op: Op, d: int, k: int) -> int:
        if op == Op.SHLI:
            return d >> k
        if op == Op.SHRI:
            return (d << k) & FULL
        demand = (d << k) & FULL           # shrai: sign replication
        if k and d >> (32 - k):
            demand |= 1 << 31
        return demand

    # --------------------------------------------------------- call edge

    def _call_transfer(self, pc: int, instr: Instr,
                       state: LiveMap) -> LiveMap:
        """Backward transfer of a call terminator (jl / jld)."""
        analysis = self.analysis
        # What the caller needs after the call is demanded of the
        # callee's return point.
        target = analysis.call_targets.get(pc)
        callee = analysis.func_by_start.get(target) \
            if target is not None else None
        if callee is not None:
            analysis.widen_ret_live(callee, state)
            callee_in = analysis.live_in_summary.get(callee, {})
            # The call defines r1 (the return address), satisfying both
            # the callee's read of its link register and any demand the
            # fall-through path had on r1.
            before = {r: m for r, m in state.items() if r != REG_LINK}
            for reg, mask in callee_in.items():
                if reg != REG_LINK:
                    before[reg] = before.get(reg, 0) | mask
        else:
            # Unresolved callee: everything may be read.
            before = analysis.all_full()
            analysis.note_imprecise()
        if instr.op == Op.JL:
            self._gen(before, instr.rs1, FULL)
        return before

    # ------------------------------------------------------------- solve

    def _block_out(self, block: BasicBlock) -> tuple[LiveMap, Slots]:
        analysis = self.analysis
        if block.is_halt:
            return {}, set()
        if block.is_return:
            return dict(analysis.ret_live.get(self.fstart, {})), set()
        if block.indirect:
            # jz/jnz/j-non-return: an unattributable transfer.
            analysis.note_imprecise()
            return analysis.all_full(), None
        if not block.succs:
            if block.is_call:
                # Call to a non-returning function: the statically
                # unreachable fall-through contributes nothing.
                return {}, set()
            return analysis.all_full(), None
        state: LiveMap = {}
        slots: Slots = set()
        for succ in block.succs:
            if succ not in self.blocks:    # cross-function edge
                analysis.note_imprecise()
                return analysis.all_full(), None
            s, sl = self.block_in.get(succ, ({}, set()))
            state = _join(state, s)
            slots = _join_slots(slots, sl)
        return state, slots

    def solve(self) -> bool:
        """Run the backward fixpoint; True when LIVE_IN grew."""
        work = sorted(self.blocks)         # pop() takes the last first
        pending = set(work)
        while work:
            start = work.pop()
            pending.discard(start)
            block = self.blocks[start]
            state, slots = self.transfer(block)
            old = self.block_in.get(start)
            if old is not None and old[0] == state and old[1] == slots:
                continue
            self.block_in[start] = (state, slots)
            for pred in self.preds.get(start, ()):
                if pred not in pending:
                    pending.add(pred)
                    work.append(pred)
        entry = self.block_in.get(self.fstart, ({}, set()))[0]
        old_in = self.analysis.live_in_summary.get(self.fstart, {})
        grown = any(entry.get(r, 0) & ~old_in.get(r, 0)
                    for r in entry)
        if grown:
            self.analysis.live_in_summary[self.fstart] = \
                _join(old_in, entry)
        return grown

    def transfer(self, block: BasicBlock,
                 record: "_Recorder | None" = None) -> tuple[LiveMap,
                                                             Slots]:
        state, slots = self._block_out(block)
        state = dict(state)
        slots = set(slots) if slots is not None else None
        if block.is_call:
            pc, instr = block.terminator
            state = self._call_transfer(pc, instr, state)
            slots = None                   # callee may touch the frame
            if record is not None:
                record.call_site(pc, instr, state, self)
            rest = block.instrs[:-1]
        else:
            rest = block.instrs
        for pc, instr in reversed(rest):
            if record is not None:
                record.after(pc, instr, state, slots, self)
            slots = self.back_step(pc, instr, state, slots)
            if record is not None:
                record.before(pc, instr, state, slots, self)
        return state, slots


class _Recorder:
    """Collects per-pc results during the final recording pass."""

    def __init__(self, analysis: "_ImageLiveness") -> None:
        self.analysis = analysis
        self.out = analysis.result

    def after(self, pc: int, instr: Instr, state: LiveMap,
              slots: Slots, func: _FuncLiveness) -> None:
        self.out.live_out[pc] = dict(state)
        if instr.op in DATA_STORES and slots is not None:
            # ``slots`` is the live-after-store set: a frame store none
            # of whose bytes are live there is never loaded back.
            off = func._frame_offset(pc, instr)
            if off is not None:
                size = DATA_ACCESS[instr.op][0]
                span = range(off, off + size)
                if all(b < 0 and b not in slots for b in span):
                    self.out.dead_stores.append(
                        DeadStore(pc=pc, func=func.name, instr=instr,
                                  offset=off, size=size))
        # Dead general-register writes (LIV002): demand zero on every
        # outgoing path.  DLXe r0 writes are architectural discards,
        # not bugs.
        info = instr.info
        if instr.op in (Op.JL, Op.JLD):
            return
        for fld in info.writes:
            if info.reg_class.get(fld) != "g":
                continue
            reg = getattr(instr, fld)
            if reg is None:
                continue
            if reg == 0 and self.analysis.zero_r0:
                continue
            if state.get(reg, 0) == 0:
                self.out.dead_writes.append(
                    DeadWrite(pc=pc, func=func.name, instr=instr,
                              reg=reg))

    def before(self, pc: int, instr: Instr, state: LiveMap,
               slots: Slots, func: _FuncLiveness) -> None:
        self.out.live_in[pc] = dict(state)
        if instr.op in DATA_LOADS:
            self._record_load(pc, instr, func)

    def call_site(self, pc: int, instr: Instr, state: LiveMap,
                  func: _FuncLiveness) -> None:
        self.out.live_in[pc] = dict(state)
        # live_out of a call is the callee's entry demand on the
        # machine; for fault classification the conservative choice is
        # the pre-call map minus nothing (r1 is written by the call but
        # a pre-call flip of r1 is overwritten -> using live_in keeps
        # r1 live via the jl source register only).
        self.out.live_out.setdefault(pc, dict(state))

    def _record_load(self, pc: int, instr: Instr,
                     func: _FuncLiveness) -> None:
        op = instr.op
        size = DATA_ACCESS[op][0]
        dest_live = 0
        if instr.rd is not None:
            dest_live = self.out.live_out.get(pc, {}).get(instr.rd, 0)
            if instr.rd == 0 and self.analysis.zero_r0:
                dest_live = 0
        base = func._value(pc, instr.rs1)
        imm = instr.imm or 0
        if isinstance(base, SPRel):
            addr: tuple[int, int] | None = None
            stack = True
        elif isinstance(base, Interval):
            lo = (base.lo + imm) & FULL
            hi = (base.hi + imm) & FULL
            addr = (lo, hi) if lo <= hi else (0, FULL)
            stack = False
        else:
            addr = None
            stack = False
        self.out.loads.append(LoadSite(pc=pc, op=op, size=size,
                                       addr=addr, stack=stack,
                                       dest_live=dest_live))


class _ImageLiveness:
    """Whole-image interprocedural driver."""

    def __init__(self, result: AnalysisResult) -> None:
        cfg = self.cfg = result.cfg
        self.states = result.states
        # Steps instructions within a block only; the call clobber that
        # ``preserved`` governs happens between blocks, in the solve.
        self.values = ValueDomain(cfg, preserved=frozenset())
        self.zero_r0 = cfg.isa.name == "DLXe"
        self.num_gregs = cfg.isa.num_gregs
        self.func_by_start = {addr: addr for addr, _name in cfg.funcs}
        self.names = dict(cfg.funcs)
        #: call-site pc -> resolved target, from the value analysis.
        self.call_targets: dict[int, int] = {}
        self.callers: dict[int, set[int]] = {s: set()
                                             for s in self.func_by_start}
        for summary in result.functions.values():
            for pc, target in summary.call_sites:
                if target is not None:
                    self.call_targets[pc] = target
                    if target in self.callers:
                        self.callers[target].add(summary.start)
        self.imprecise = False
        self._imprecision_seen = False
        self.live_in_summary: dict[int, LiveMap] = {}
        # Return demand: seeded with the calling convention's promises
        # -- r2 may carry a return value the caller consumes, and the
        # stack pointer must come back restored (treating SP as dead at
        # a return would flag every epilogue's bookkeeping).
        self.ret_live: dict[int, LiveMap] = {
            s: {REG_RET: FULL, REG_SP: FULL} for s in self.func_by_start}
        self._ret_grew: set[int] = set()
        self.result = LivenessAnalysis(
            cfg=cfg, live_in={}, live_out={}, functions={},
            dead_writes=[], dead_stores=[], loads=[], imprecise=False)

    def all_full(self) -> LiveMap:
        state = {r: FULL for r in range(self.num_gregs)}
        if self.zero_r0:
            del state[0]
        return state

    def note_imprecise(self) -> None:
        self._imprecision_seen = True

    def widen_ret_live(self, callee: int, after_call: LiveMap) -> None:
        current = self.ret_live.setdefault(
            callee, {REG_RET: FULL, REG_SP: FULL})
        grown = False
        for reg, mask in after_call.items():
            if mask & ~current.get(reg, 0):
                current[reg] = current.get(reg, 0) | mask
                grown = True
        if grown:
            self._ret_grew.add(callee)

    def run(self) -> LivenessAnalysis:
        solvers: dict[int, _FuncLiveness] = {}
        for fstart, name in self.cfg.funcs:
            if fstart in self.cfg.blocks:
                solvers[fstart] = _FuncLiveness(self, fstart, name)

        for escalate in (False, True):
            if escalate:
                # Unattributable control flow discovered during the
                # first pass: degrade every return demand to all-live
                # (a tail jump can route any function's return past
                # its recorded call sites) and re-run to fixpoint.
                self.imprecise = True
                full = self.all_full()
                for fstart in self.ret_live:
                    self.ret_live[fstart] = dict(full)
            pending = list(reversed(list(solvers)))
            in_queue = set(pending)
            while pending:
                fstart = pending.pop()
                in_queue.discard(fstart)
                solver = solvers.get(fstart)
                if solver is None:
                    continue
                self._ret_grew.clear()
                grew = solver.solve()
                requeue: set[int] = set(self._ret_grew)
                if grew:
                    requeue.update(self.callers.get(fstart, ()))
                for f in sorted(requeue):
                    if f in solvers and f not in in_queue:
                        in_queue.add(f)
                        pending.append(f)
            if not self._imprecision_seen or escalate:
                break

        recorder = _Recorder(self)
        for fstart, solver in solvers.items():
            for start in sorted(solver.blocks, reverse=True):
                solver.transfer(solver.blocks[start], record=recorder)
            self.result.functions[solver.name] = FunctionLiveness(
                name=solver.name, start=fstart,
                live_in=dict(self.live_in_summary.get(fstart, {})),
                ret_live=dict(self.ret_live.get(fstart, {})))
        self.result.imprecise = self.imprecise
        self.result.dead_writes.sort(key=lambda w: w.pc)
        self.result.dead_stores.sort(key=lambda s: s.pc)
        self.result.loads.sort(key=lambda site: site.pc)
        return self.result


def liveness_findings(analysis: LivenessAnalysis,
                      target: TargetSpec | None = None,
                      ) -> tuple[list, list[tuple[str, str]]]:
    """LIV001/LIV002 findings with the convention waiver list applied.

    The raw dead-write/dead-store lists deliberately include ABI
    bookkeeping the calling convention *requires* even when the closed
    program never observes it — prologue spills and epilogue reloads of
    callee-saved registers whose values no caller consumes, and moves
    that materialize a discarded call result.  Those are exactly the
    sites the fault classifier wants to prove masked, but they are not
    code-quality defects, so the lint surface waives them (each waiver
    is returned as ``(location, justification)`` and rendered by
    ``--stats``/``--json`` rather than silently dropped).
    """
    from .findings import Finding, finding

    spillable = callee_saved(target) | {REG_LINK}
    cfg = analysis.cfg
    out: list[Finding] = []
    waived: list[tuple[str, str]] = []
    for store in analysis.dead_stores:
        where = cfg.describe(store.pc)
        if store.instr.rs2 in spillable:
            waived.append((
                where,
                f"'{store.instr}': ABI prologue spill of r{store.instr.rs2};"
                f" the paired reload is interprocedurally dead in this "
                f"closed program"))
            continue
        out.append(finding(
            "LIV001", where,
            f"'{store.instr}' stores {store.size} byte(s) at frame "
            f"offset {store.offset} that are never loaded back"))
    for write in analysis.dead_writes:
        instr = write.instr
        where = cfg.describe(write.pc)
        if write.reg == REG_SP:
            waived.append((where,
                           f"'{instr}': stack-pointer bookkeeping"))
            continue
        if instr.op in DATA_LOADS and instr.rs1 == REG_SP \
                and write.reg in spillable:
            waived.append((
                where,
                f"'{instr}': ABI epilogue reload of r{write.reg}; no "
                f"caller of this closed program consumes it"))
            continue
        if (instr.op == Op.MV and instr.rs1 == REG_RET) \
                or (instr.op == Op.ADD and instr.rs1 == REG_RET
                    and instr.rs2 == 0):
            waived.append((
                where,
                f"'{instr}': call-result materialization for a value "
                f"the program discards (uniform call lowering)"))
            continue
        out.append(finding(
            "LIV002", where,
            f"'{instr}' writes r{write.reg}, which is overwritten on "
            f"every path before any use"))
    return out, waived


def analyze_liveness(image: AnalysisResult) -> LivenessAnalysis:
    """Backward liveness over every function of an image recovered by
    :func:`~repro.analysis.absint.resolve_cfg`, reading its CFG,
    resolved call targets and value states."""
    return _ImageLiveness(image).run()
