"""Basic-block compiler for the fast execution engine.

The per-instruction interpreter in :mod:`repro.machine.cpu` pays, for
every retired instruction, the full dispatch tax: slot lookup, fuel and
trace checks, instruction-fetch accounting, scoreboard bookkeeping, and
one closure call.  This module removes that tax for straight-line code:
a run of slots starting at an entry index (up to the next control
transfer, trap, or undecodable slot) is *compiled* -- Python source is
generated with every constant (register numbers, immediates, hazard
indices, latencies, fetch-word boundaries) inlined, then ``exec``-ed
into one fused closure that retires the whole block and returns the
next pc.

Bit-identical accounting is preserved by construction:

* the scoreboard/interlock update emitted per slot is the same rule
  sequence as the interpreter loop, specialized to the slot's constant
  read/write indices and latencies;
* instruction-fetch word/doubleword transactions are resolved at
  compile time -- inside a block the pc sequence is static, so only the
  entry boundary needs a runtime comparison;
* a register read that the block's own code already proves ready
  emits no scoreboard check: the register was read by an earlier slot
  of the block and not written since, or its in-block producer issued
  at least its result latency earlier.  Such a read can neither stall
  nor classify a stall, and every ``ready``/``wk`` store stays inline,
  so the scoreboard after any exit is the one ``step`` leaves;
* word loads and stores at a word-aligned, in-range address read and
  write the memory's bytearray directly through prebound ``struct``
  methods; any other address calls the ``Memory`` accessor, which
  raises the interpreter's exact error;
* every slot whose functional semantics can raise (memory accesses,
  division, traps, float conversions) runs inside a ``try`` whose
  handler spills the in-flight counters into a shared scratch list and
  re-raises, so the dispatcher recovers the exact per-instruction
  machine state on an exception.  On CPython 3.11+ the ``try`` costs
  nothing when no exception occurs.

Traced machines record their address traces from inside the block:
the block extends the instruction trace with its static pc sequence
on entry (the dispatcher truncates it to the retired slots when the
block raises), and each inline load, store and LDC appends its tagged
data address right after the access, in interpreter order.

Compilation is *warm*: the dispatcher steps a block-entry slot through
the ordinary interpreter until it has been entered
:data:`HOT_THRESHOLD` times, and only then fuses it -- cold start-up
code never pays the (dominant) ``compile()`` cost.  Generated code
objects contain no machine state -- registers, the memory's bytearray,
size and accessors, trace recorders and trap objects enter through the
closure's default arguments, and a block binds only the names its body
uses -- so they are cached on the
:class:`~repro.asm.objfile.Executable` keyed by ``(entry,
pipeline-params, traces)`` and shared by every machine running that
image (fault campaigns construct thousands).  A machine whose
:meth:`~repro.machine.cpu.Machine.patch_text` hook has rewritten a slot
bypasses the shared cache for any block covering it.

Blocks may overlap (a branch into the middle of a compiled run simply
compiles a second block starting there), and a patched slot invalidates
every compiled block covering it.
"""

from __future__ import annotations

import math
import re
import struct
from array import array

from ..isa import Op, OpKind
from ..isa.common import to_s32
from ..isa.operations import CONTROL_OPS, Cond
from ..isa.refs import ldc_pool_addr

WORD_MASK = 0xFFFFFFFF

#: Longest straight-line run fused into one closure.  Longer runs are
#: split; the tail compiles as its own block, so only dispatch overhead
#: (not correctness) is affected.
MAX_BLOCK = 256

#: Block entries are interpreted this many times before being fused.
#: ``compile()`` of a generated block costs on the order of a
#: millisecond -- three orders of magnitude more than one interpreted
#: pass -- so fusing once-executed start-up code is a net loss; every
#: loop body crosses this threshold almost immediately.
HOT_THRESHOLD = 16


class NoProgress(Exception):
    """Raised by a compiled block when a control transfer targets its
    own address; the dispatcher converts it into ``MachineTimeout``."""


class CompiledBlock:
    """One fused straight-line run, plus its dispatch metadata."""

    __slots__ = ("entry", "idxs", "n", "fn", "count", "max_adv")

    def __init__(self, entry, idxs, fn, max_adv):
        self.entry = entry
        self.idxs = idxs
        self.n = len(idxs)
        self.fn = fn
        #: Lazily materialized execution count: the dispatcher bumps
        #: this once per block run; ``Machine`` folds it back into the
        #: per-slot ``counts`` vector on run exit / invalidation.
        self.count = 0
        #: Static upper bound on cycle advance, used to keep the
        #: ``max_cycles`` watchdog exact without per-slot checks.
        self.max_adv = max_adv


# ----------------------------------------------------- float bit helpers
#
# Shared with the per-instruction interpreter in ``cpu`` (which imports
# them from here), and bound into compiled blocks as B2F/F2B/B2D/D2B/CL.

# Prebound Struct methods skip the per-call format-string lookup; these
# run hundreds of thousands of times in FP-heavy benchmarks.  The word
# struct also reads and writes memory words inside compiled blocks.
_WORD = struct.Struct("<I")
_PACK_I = _WORD.pack
_UNPACK_F = struct.Struct("<f").unpack
_PACK_F = struct.Struct("<f").pack
_UNPACK_I = _WORD.unpack
_PACK_II = struct.Struct("<II").pack
_UNPACK_D = struct.Struct("<d").unpack
_PACK_D = struct.Struct("<d").pack
_UNPACK_II = struct.Struct("<II").unpack


def _f32_bits_to_float(bits: int) -> float:
    return _UNPACK_F(_PACK_I(bits))[0]


def _float_to_f32_bits(value: float) -> int:
    try:
        return _UNPACK_I(_PACK_F(value))[0]
    except OverflowError:
        sign = 0x80000000 if value < 0 else 0
        return sign | 0x7F800000  # +/- infinity


def _f64_bits_to_float(lo: int, hi: int) -> float:
    return _UNPACK_D(_PACK_II(lo, hi))[0]


def _float_to_f64_bits(value: float) -> tuple[int, int]:
    lo, hi = _UNPACK_II(_PACK_D(value))
    return lo, hi


def _clamp_s32(value: float) -> int:
    """Truncate toward zero, saturating at the 32-bit signed range
    (infinities included); a NaN converts to 0."""
    if value != value:
        return 0
    if value >= 0x7FFFFFFF:
        return 0x7FFFFFFF
    if value <= -0x80000000:
        return 0x80000000
    return int(value) & WORD_MASK


def _div_by_zero(a: float, b: float) -> float:
    """IEEE 754 ``a / b`` for a zero ``b``, where Python raises: an
    infinity signed by both operands, or a NaN for 0/0 and NaN/0."""
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


# --------------------------------------------------------------- helpers


def _s32(expr):
    """Inline ``to_s32(expr)``: the same value for every int."""
    return f"((({expr}) & M ^ 0x80000000) - 0x80000000)"


#: cond -> (python comparison operator, needs signed conversion).
#: Equality is sign-agnostic on masked 32-bit values; float compares
#: use the operator alone (signedness is meaningless on floats).
_CMP_OPS = {
    Cond.LT: ("<", True), Cond.LTU: ("<", False),
    Cond.LE: ("<=", True), Cond.LEU: ("<=", False),
    Cond.EQ: ("==", None), Cond.NE: ("!=", None),
    Cond.GT: (">", True), Cond.GTU: (">", False),
    Cond.GE: (">=", True), Cond.GEU: (">=", False),
}

_ALU_EXPR = {
    Op.ADD: "(g[{a}] + g[{b}]) & M",
    Op.SUB: "(g[{a}] - g[{b}]) & M",
    Op.AND: "g[{a}] & g[{b}]",
    Op.OR: "g[{a}] | g[{b}]",
    Op.XOR: "g[{a}] ^ g[{b}]",
    Op.SHRA: "(" + _s32("g[{a}]") + " >> (g[{b}] & 31)) & M",
    Op.SHR: "g[{a}] >> (g[{b}] & 31)",
    Op.SHL: "(g[{a}] << (g[{b}] & 31)) & M",
}

_ALUI_EXPR = {
    Op.ADDI: "(g[{a}] + {c}) & M",
    Op.SUBI: "(g[{a}] - {c}) & M",
    Op.ANDI: "g[{a}] & {c}",
    Op.ORI: "g[{a}] | {c}",
    Op.XORI: "g[{a}] ^ {c}",
    Op.SHRAI: "(" + _s32("g[{a}]") + " >> {sh}) & M",
    Op.SHRI: "g[{a}] >> {sh}",
    Op.SHLI: "(g[{a}] << {sh}) & M",
}

_FP3_SF = {Op.ADD_SF: "+", Op.SUB_SF: "-", Op.MUL_SF: "*"}
_FP3_DF = {Op.ADD_DF: "+", Op.SUB_DF: "-", Op.MUL_DF: "*"}

#: Ops whose functional code can raise and therefore need the spilling
#: ``try`` wrapper (memory faults, integer division by zero, trap
#: errors); all MATH-kind ops get the wrapper too (the ``try`` is free).
_RAISING = frozenset({
    Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU, Op.LDC,
    Op.ST, Op.STH, Op.STB, Op.DIV, Op.REM, Op.TRAP,
})

#: Names a compiled block may bind as defaults, machine state and
#: helpers alike; per-block handler fallbacks (``H{j}``) are appended.
#: A block binds only the ones its body uses: CPython copies every
#: default into the frame on each call.
_STD_NAMES = (
    "g", "f", "ready", "wk", "S", "M",
    "D", "SZ", "UW", "PW",
    "RW", "RH", "RB", "WW", "WH", "WB",
    "FST", "TH", "TP", "MM", "NP", "ME",
    "B2F", "F2B", "B2D", "D2B", "CL", "DZ", "abs", "float",
)

#: Identifiers in generated source.  The body's one string literal, the
#: division-by-zero message, holds none of the bindable names.
_IDENT = re.compile(r"\b[A-Za-z_]\w*")


def _timing_lines(reads, writes, mlat, rlat, wkind):
    """Emit the scoreboard/interlock update for one slot.

    Mirrors the interpreter's rules exactly, with the slot's hazard
    indices and latencies baked in as constants.  ``reads`` holds only
    the registers the block has not already proven ready (``_generate``).
    """
    lines = []
    if not reads and not mlat:
        lines.append("time += 1")
    else:
        lines.append("_n = time + 1")
        for r in reads:
            lines.append(f"if ready[{r}] > _n: _n = ready[{r}]")
        if mlat:
            lines.append("_mb = math_free > _n")
            lines.append("if _mb: _n = math_free")
        lines.append("if _n != time + 1:")
        lines.append("    _s = _n - time - 1")
        lines.append("    interlocks += _s")
        conds = (["_mb"] if mlat else []) + [
            f"(ready[{r}] == _n and wk[{r}] == 2)" for r in reads]
        lines.append(f"    if {' or '.join(conds)}:")
        lines.append("        math_il += _s")
        lines.append("    else:")
        lines.append("        load_il += _s")
        lines.append("time = _n")
    if mlat:
        lines.append(f"math_free = time + {mlat}")
    if writes:
        if rlat == 1:
            result = "time + 1"
        else:
            result = f"time + {rlat}"
        for w in writes:
            lines.append(f"ready[{w}] = {result}")
            lines.append(f"wk[{w}] = {wkind}")
    return lines


def _functional_lines(instr, addr, width, zero_r0, handler_name,
                      dtrace=False):
    """Emit the functional semantics of one non-control slot.

    Returns ``(lines, used_handler)``; ``used_handler`` is True when
    the slot falls back to calling its interpreter closure (ops without
    an inline template), which must then be bound as ``handler_name``
    in the generated function's defaults.  With ``dtrace`` the inline
    memory accesses append their tagged address to the data trace
    (``DT``) after the access, as the interpreter closures do; a
    handler fallback appends by itself.
    """
    op = instr.op
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    zero = (zero_r0 and rd == 0 and "rd" in instr.info.writes
            and instr.info.reg_class.get("rd") == "g")
    lines = []

    def assign(expr):
        lines.append(f"g[{rd}] = {expr}")
        if zero:
            lines.append("g[0] = 0")

    if op in _ALU_EXPR:
        assign(_ALU_EXPR[op].format(a=rs1, b=rs2))
    elif op in _ALUI_EXPR:
        uimm = imm & WORD_MASK
        assign(_ALUI_EXPR[op].format(a=rs1, c=uimm, sh=imm & 31))
    elif op == Op.NEG:
        assign(f"(-g[{rs1}]) & M")
    elif op == Op.INV:
        assign(f"g[{rs1}] ^ M")
    elif op == Op.MV:
        assign(f"g[{rs1}]")
    elif op == Op.MVI:
        assign(f"{imm & WORD_MASK}")
    elif op == Op.MVHI:
        assign(f"{(imm << 16) & WORD_MASK}")
    elif op == Op.CMP:
        cmp_op, signed = _CMP_OPS[instr.cond]
        a, b = f"g[{rs1}]", f"g[{rs2}]"
        if signed:
            a, b = _s32(a), _s32(b)
        assign(f"1 if {a} {cmp_op} {b} else 0")
    elif op == Op.CMPI:
        cmp_op, signed = _CMP_OPS[instr.cond]
        uimm = imm & WORD_MASK
        rhs = to_s32(uimm) if signed else uimm
        lhs = _s32(f"g[{rs1}]") if signed else f"g[{rs1}]"
        assign(f"1 if {lhs} {cmp_op} {rhs} else 0")
    elif op == Op.MUL:
        # The low 32 bits of a product do not depend on whether its
        # operands are read signed: this equals to_s32(a) * to_s32(b).
        assign(f"(g[{rs1}] * g[{rs2}]) & M")
    elif op in (Op.DIV, Op.REM):
        a, b = _s32(f"g[{rs1}]"), _s32(f"g[{rs2}]")
        lines.append(f"_a = {a}; _b = {b}")
        lines.append("if _b == 0:")
        lines.append(f"    raise ME('division by zero at pc={addr:#x}')")
        lines.append("_q = abs(_a) // abs(_b)")
        lines.append("if (_a < 0) != (_b < 0): _q = -_q")
        if op == Op.REM:
            assign("(_a - _q * _b) & M")
        else:
            assign("_q & M")
    elif op == Op.LD:
        # Word-aligned and in range: read the bytearray directly.  Any
        # other address goes to the accessor, which raises step's error.
        lines.append(f"_a = (g[{rs1}] + {imm}) & M")
        assign("UW(D, _a)[0] if not _a & 3 and _a + 4 <= SZ else RW(_a)")
        if dtrace:
            lines.append("DT(_a & -4)")
    elif op in (Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
        read = {
            Op.LDH: "RH({a}, True) & M",
            Op.LDHU: "RH({a})",
            Op.LDB: "RB({a}, True) & M",
            Op.LDBU: "RB({a})",
        }[op]
        ea = f"(g[{rs1}] + {imm}) & M"
        if dtrace:
            lines.append(f"_a = {ea}")
            assign(read.format(a="_a"))
            lines.append("DT(_a & -4)")
        else:
            assign(read.format(a=ea))
    elif op == Op.LDC:
        pool = ldc_pool_addr(addr, imm)
        # The pool address is static: only the bound waits for run time.
        if pool >= 0 and not pool & 3:
            assign(f"UW(D, {pool})[0] if {pool + 4} <= SZ else RW({pool})")
        else:
            assign(f"RW({pool})")
        if dtrace:
            lines.append(f"DT({pool})")
    elif op == Op.ST:
        lines.append(f"_a = (g[{rs1}] + {imm}) & M")
        lines.append(f"if not _a & 3 and _a + 4 <= SZ: "
                     f"PW(D, _a, g[{rs2}] & M)")
        lines.append(f"else: WW(_a, g[{rs2}])")
        if dtrace:
            lines.append("DT((_a & -4) | 1)")
    elif op in (Op.STH, Op.STB):
        writer = {Op.STH: "WH", Op.STB: "WB"}[op]
        ea = f"(g[{rs1}] + {imm}) & M"
        if dtrace:
            lines.append(f"_a = {ea}")
            lines.append(f"{writer}(_a, g[{rs2}])")
            lines.append("DT((_a & -4) | 1)")
        else:
            lines.append(f"{writer}({ea}, g[{rs2}])")
    elif op == Op.TRAP:
        lines.append(f"_r = TH({imm}, g[2], {addr})")
        lines.append("if TP.exited:")
        lines.append("    MM.halted = True")
        lines.append("elif _r is not None:")
        lines.append("    g[2] = _r")
    elif op == Op.RDSR:
        assign("FST[0]")
    elif op == Op.NOP:
        pass
    elif op == Op.DIV_SF:
        lines.append(f"_a = B2F(f[{rs1}])")
        lines.append(f"_b = B2F(f[{rs2}])")
        lines.append(f"f[{rd}] = F2B(_a / _b if _b else DZ(_a, _b))")
    elif op == Op.DIV_DF:
        lines.append(f"_a = B2D(f[{rs1}], f[{rs1 + 1}])")
        lines.append(f"_b = B2D(f[{rs2}], f[{rs2 + 1}])")
        lines.append("_lo, _hi = D2B(_a / _b if _b else DZ(_a, _b))")
        lines.append(f"f[{rd}] = _lo")
        lines.append(f"f[{rd + 1}] = _hi")
    elif op in _FP3_SF:
        c = _FP3_SF[op]
        lines.append(f"f[{rd}] = F2B(B2F(f[{rs1}]) {c} B2F(f[{rs2}]))")
    elif op in _FP3_DF:
        c = _FP3_DF[op]
        lines.append(f"_lo, _hi = D2B(B2D(f[{rs1}], f[{rs1 + 1}]) {c} "
                     f"B2D(f[{rs2}], f[{rs2 + 1}]))")
        lines.append(f"f[{rd}] = _lo")
        lines.append(f"f[{rd + 1}] = _hi")
    elif op == Op.NEG_SF:
        lines.append(f"f[{rd}] = f[{rs1}] ^ 0x80000000")
    elif op == Op.NEG_DF:
        lines.append(f"f[{rd}] = f[{rs1}]")
        lines.append(f"f[{rd + 1}] = f[{rs1 + 1}] ^ 0x80000000")
    elif op == Op.CMP_SF:
        cmp_op, _ = _CMP_OPS[instr.cond]
        lines.append(f"FST[0] = 1 if B2F(f[{rs1}]) {cmp_op} "
                     f"B2F(f[{rs2}]) else 0")
    elif op == Op.CMP_DF:
        cmp_op, _ = _CMP_OPS[instr.cond]
        lines.append(f"FST[0] = 1 if B2D(f[{rs1}], f[{rs1 + 1}]) {cmp_op} "
                     f"B2D(f[{rs2}], f[{rs2 + 1}]) else 0")
    elif op == Op.SI2SF:
        s32_src = _s32(f"f[{rs1}]")
        lines.append(f"f[{rd}] = F2B(float({s32_src}))")
    elif op == Op.SI2DF:
        s32_src = _s32(f"f[{rs1}]")
        lines.append(f"_lo, _hi = D2B(float({s32_src}))")
        lines.append(f"f[{rd}] = _lo")
        lines.append(f"f[{rd + 1}] = _hi")
    elif op == Op.SF2SI:
        lines.append(f"f[{rd}] = CL(B2F(f[{rs1}]))")
    elif op == Op.DF2SI:
        lines.append(f"f[{rd}] = CL(B2D(f[{rs1}], f[{rs1 + 1}]))")
    elif op == Op.SF2DF:
        lines.append(f"_lo, _hi = D2B(B2F(f[{rs1}]))")
        lines.append(f"f[{rd}] = _lo")
        lines.append(f"f[{rd + 1}] = _hi")
    elif op == Op.DF2SF:
        lines.append(f"f[{rd}] = F2B(B2D(f[{rs1}], f[{rs1 + 1}]))")
    elif op == Op.MV_SF:
        lines.append(f"f[{rd}] = f[{rs1}]")
    elif op == Op.MV_DF:
        lines.append(f"f[{rd}] = f[{rs1}]")
        lines.append(f"f[{rd + 1}] = f[{rs1 + 1}]")
    elif op == Op.MVIF:
        lines.append(f"f[{rd}] = g[{rs1}]")
    elif op == Op.MVFI:
        assign(f"f[{rs1}]")
    else:
        # No inline template: call the interpreter's per-slot closure.
        lines.append(f"{handler_name}({addr})")
        return lines, True
    return lines, False


def _control_lines(instr, addr, width):
    """Emit the terminator's next-pc computation.

    Returns ``(lines, may_self_branch)``: the caller appends the
    no-progress check only when the transfer could target ``addr``.
    """
    op = instr.op
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    ft = addr + width
    if op == Op.BR:
        return [f"_next = {addr + imm}"], (imm == 0)
    if op == Op.BZ:
        return ([f"_next = {addr + imm} if g[{rs1}] == 0 else {ft}"],
                imm == 0)
    if op == Op.BNZ:
        return ([f"_next = {addr + imm} if g[{rs1}] != 0 else {ft}"],
                imm == 0)
    if op == Op.J:
        return [f"_next = g[{rs1}]"], True
    if op == Op.JZ:
        return [f"_next = g[{rs1}] if g[{rs2}] == 0 else {ft}"], True
    if op == Op.JNZ:
        return [f"_next = g[{rs1}] if g[{rs2}] != 0 else {ft}"], True
    if op == Op.JL:
        return [f"g[1] = {ft}", f"_next = g[{rs1}]"], True
    if op == Op.JD:
        return [f"_next = {imm}"], (imm == addr)
    if op == Op.JLD:
        return [f"g[1] = {ft}", f"_next = {imm}"], (imm == addr)
    raise AssertionError(f"not a control op: {op}")  # pragma: no cover


def _scan(program, entry):
    """Collect the straight-line run of slot indices starting at entry."""
    idxs = []
    i = entry
    limit = len(program)
    while i < limit and len(idxs) < MAX_BLOCK:
        instr = program[i]
        if instr is None:
            break
        idxs.append(i)
        if instr.op in CONTROL_OPS or instr.op == Op.TRAP:
            break
        i += 1
    return idxs


def _generate(machine, entry, idxs):
    """Generate and compile the block's code object.

    The generated source embeds only quantities derived from the
    executable image, the pipeline parameters and which traces the
    machine records -- machine state binds later, through default
    arguments -- so the returned ``(code, handler_slots, max_adv)``
    triple is shareable by every machine running the same image with
    the same parameters and traces.
    """
    program = machine.program
    width = machine.isa.width_bytes
    base = machine.exe.text_base
    zero_r0 = machine.isa.name == "DLXe"
    itrace = machine.itrace is not None
    dtrace = machine.dtrace is not None

    lines = []
    handler_slots = []
    if itrace:
        # Every slot's pc up front; a raise mid-block truncates the
        # trace back to the retired slots (Machine._recover_spill).
        lines.append("IT(PCS)")

    words = [(base + idx * width) >> 2 for idx in idxs]
    dwords = [w >> 1 for w in words]
    # Word/doubleword transitions are static inside the block: only the
    # entry boundary needs a runtime comparison (slot 0 below); the
    # cumulative transition counts are folded in as constants.
    wt = [0] * len(idxs)
    dt = [0] * len(idxs)
    for j in range(1, len(idxs)):
        wt[j] = wt[j - 1] + (words[j] != words[j - 1])
        dt[j] = dt[j - 1] + (dwords[j] != dwords[j - 1])

    def spill_line(j, addr):
        ifw_expr = f"ifw + {wt[j]}" if wt[j] else "ifw"
        ifd_expr = f"ifd + {dt[j]}" if dt[j] else "ifd"
        return (f"S[0] = {j + 1}; S[1] = time; S[2] = math_free; "
                f"S[3] = interlocks; S[4] = load_il; S[5] = math_il; "
                f"S[6] = {words[j]}; S[7] = {dwords[j]}; "
                f"S[8] = {ifw_expr}; S[9] = {ifd_expr}; S[10] = {addr}")

    lines.append(f"if cur_word != {words[0]}:")
    lines.append("    ifw += 1")
    lines.append(f"if cur_dword != {dwords[0]}:")
    lines.append("    ifd += 1")

    last_j = len(idxs) - 1
    next_expr_emitted = False
    # In-block hazard resolution: ``known[r]`` is the first slot whose
    # read of register r needs no check.  Once a slot has read r, r is
    # ready (ready[r] <= time) until the block writes it again; a write
    # at slot p with result latency lat is ready from slot p + lat on.
    # A read known ready can neither stall its slot nor be the
    # ``ready[r] == _n`` term that classifies a stall.  The scoreboard
    # on block entry is unknown, so nothing is known at slot 0.
    known = {}
    for j, idx in enumerate(idxs):
        instr = program[idx]
        addr = base + idx * width
        reads = [r for r in dict.fromkeys(machine.reads_l[idx])
                 if known.get(r, j + 1) > j]
        writes, rlat = machine.writes_l[idx], machine.rlat[idx]
        lines += _timing_lines(reads, writes, machine.mlat[idx], rlat,
                               machine.wkind[idx])
        for r in reads:
            known[r] = j + 1
        for w in writes:
            known[w] = j + rlat
        if instr.op in CONTROL_OPS:
            body, may_self = _control_lines(instr, addr, width)
            lines += body
            if may_self:
                lines.append(f"if _next == {addr}:")
                lines.append("    " + spill_line(j, addr))
                lines.append("    raise NP")
            next_expr_emitted = True
            continue
        handler_name = f"H{j}"
        body, used_handler = _functional_lines(
            instr, addr, width, zero_r0, handler_name, dtrace)
        if used_handler:
            handler_slots.append((handler_name, idx))
        if body and (instr.op in _RAISING or used_handler
                     or instr.info.kind == OpKind.MATH):
            # Spill-on-raise: free on the happy path (3.11+), exact
            # per-instruction recovery state on the exceptional one.
            lines.append("try:")
            lines += ["    " + line for line in body]
            lines.append("except BaseException:")
            lines.append("    " + spill_line(j, addr))
            lines.append("    raise")
        else:
            lines += body
    if not next_expr_emitted:
        lines.append(f"_next = {base + idxs[-1] * width + width}")

    ifw_ret = f"ifw + {wt[last_j]}" if wt[last_j] else "ifw"
    ifd_ret = f"ifd + {dt[last_j]}" if dt[last_j] else "ifd"
    lines.append(f"return (_next, time, math_free, interlocks, load_il, "
                 f"math_il, {words[last_j]}, {dwords[last_j]}, "
                 f"{ifw_ret}, {ifd_ret})")

    params = ["time", "math_free", "interlocks", "load_il", "math_il",
              "cur_word", "cur_dword", "ifw", "ifd"]
    body = "".join(f"    {line}\n" for line in lines)
    used = set(_IDENT.findall(body))
    names = [name for name in _STD_NAMES + ("IT", "PCS", "DT")
             if name in used]
    names += [name for name, _ in handler_slots]
    params += [f"{name}={name}" for name in names]
    src = f"def _block({', '.join(params)}):\n" + body
    code = compile(src, f"<block@{base + entry * width:#x}>", "exec")
    max_adv = len(idxs) * max(1, machine.params.max_result_latency)
    return code, tuple(handler_slots), max_adv


def compile_block(machine, entry):
    """Compile the straight-line run starting at slot ``entry``.

    Returns a :class:`CompiledBlock`, or ``None`` when the entry slot
    is not a decodable instruction (the dispatcher then falls back to
    the stepping path, which raises the exact seed-era error).
    """
    program = machine.program
    if program[entry] is None:
        return None
    idxs = _scan(program, entry)

    # Reuse the image-wide code object unless this machine has patched
    # a slot the block covers (fault injection), in which case the
    # block is generated fresh -- and kept private.
    patched = bool(machine._patched) \
        and not machine._patched.isdisjoint(idxs)
    key = (entry, machine._code_key)
    cached = None if patched else machine._code_cache.get(key)
    if cached is None:
        cached = _generate(machine, entry, idxs)
        if not patched:
            machine._code_cache[key] = cached
    code, handler_slots, max_adv = cached

    from .cpu import MachineError
    mem = machine.mem
    namespace = {
        "g": machine.g, "f": machine.f,
        "ready": machine._ready, "wk": machine._rkind,
        "S": machine._spill, "M": WORD_MASK,
        "D": mem.data, "SZ": mem.size,
        "UW": _WORD.unpack_from, "PW": _WORD.pack_into,
        "RW": mem.read_word, "RH": mem.read_half, "RB": mem.read_byte,
        "WW": mem.write_word, "WH": mem.write_half, "WB": mem.write_byte,
        "FST": machine.fpstat, "TH": machine.traps.handle,
        "TP": machine.traps, "MM": machine, "NP": NoProgress,
        "ME": MachineError, "B2F": _f32_bits_to_float,
        "F2B": _float_to_f32_bits, "B2D": _f64_bits_to_float,
        "D2B": _float_to_f64_bits, "CL": _clamp_s32, "DZ": _div_by_zero,
        "abs": abs, "float": float,
    }
    if machine.itrace is not None:
        width = machine.isa.width_bytes
        base = machine.exe.text_base
        namespace["IT"] = machine.itrace.extend
        namespace["PCS"] = array("I", [base + idx * width for idx in idxs])
    if machine.dtrace is not None:
        namespace["DT"] = machine.dtrace.append
    for name, idx in handler_slots:
        namespace[name] = machine.handler_for(idx)
    exec(code, namespace)
    return CompiledBlock(entry, tuple(idxs), namespace["_block"], max_adv)
