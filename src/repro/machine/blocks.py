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

* the block's timing comes from :class:`~repro.machine.pipeline.HazardModel`
  when the block is generated: fed the block's instructions from a
  scoreboard where every value is ready and the math unit free, it
  gives each slot's issue offset, the block's interlocks (load and
  math) and the final ``ready``/``wk`` entry of each register the
  block writes.  The block emits them as one static update of the
  issue clock, the counters, ``math_free`` and the scoreboard;
* that schedule holds unless a value from before the block arrives
  late, so the block opens with one *entry test*: each register it
  reads before writing must be ready by its slot's issue offset
  (strictly earlier where that slot stalls inside the block, so an
  outside value never ties the slot's issue cycle and changes whether
  the stall counts as a load or a math interlock), and the math unit
  must be free by the first math slot's.  A block that fails the test
  returns ``None`` before any side effect, and the dispatcher steps it
  with the interpreter instead;
* instruction-fetch word/doubleword transactions are resolved at
  compile time -- inside a block the pc sequence is static, so only the
  entry boundary needs a runtime comparison;
* word loads and stores at a word-aligned, in-range address read and
  write the memory's bytearray directly through prebound ``struct``
  methods; any other address calls the ``Memory`` accessor, which
  raises the interpreter's exact error;
* every slot whose functional semantics can raise (memory accesses,
  division, traps, float conversions) runs inside a ``try`` whose
  handler spills the state as of that slot -- issue cycle, counters,
  ``math_free``, the scoreboard entries written so far -- into a
  shared scratch list and the scoreboard, and re-raises, so the
  dispatcher recovers the exact per-instruction machine state on an
  exception.  On CPython 3.11+ the ``try`` costs nothing when no
  exception occurs.

Traced machines record their address traces from inside the block:
the block extends the instruction trace with its static pc sequence
once its entry test passes (the dispatcher truncates it to the retired
slots when the block raises), and each inline load, store and LDC
appends its tagged data address right after the access, in
interpreter order.

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
every compiled block covering it.  The dispatcher goes from one block
straight to the next through a map from entry pc to compiled block.
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
from .pipeline import HazardModel

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

    __slots__ = ("entry", "idxs", "n", "fn", "count", "cycles")

    def __init__(self, entry, idxs, fn, cycles):
        self.entry = entry
        self.idxs = idxs
        self.n = len(idxs)
        self.fn = fn
        #: Lazily materialized execution count: the dispatcher bumps
        #: this once per block run; ``Machine`` folds it back into the
        #: per-slot ``counts`` vector on run exit / invalidation.
        self.count = 0
        #: Cycles a run of the block advances the issue clock (when
        #: its entry test passes), which keeps the ``max_cycles``
        #: watchdog exact without per-slot checks.
        self.cycles = cycles


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

#: The canonical quiet NaNs (as in RISC-V), single and double as
#: ``(lo, hi)``: every floating-point result that is not a number is
#: written as one of these.  The host keeps a payload when both operands
#: are NaNs, but which one depends on the code path -- CPython's generic
#: and specialised float multiply keep different ones -- so a propagated
#: payload would depend on how warm the interpreter is.
_NAN_F32 = 0x7FC00000
_NAN_F64 = (0, 0x7FF80000)


def _f32_bits_to_float(bits: int) -> float:
    return _UNPACK_F(_PACK_I(bits))[0]


def _float_to_f32_bits(value: float) -> int:
    if value != value:
        return _NAN_F32
    try:
        return _UNPACK_I(_PACK_F(value))[0]
    except OverflowError:
        sign = 0x80000000 if value < 0 else 0
        return sign | 0x7F800000  # +/- infinity


def _f64_bits_to_float(lo: int, hi: int) -> float:
    return _UNPACK_D(_PACK_II(lo, hi))[0]


def _float_to_f64_bits(value: float) -> tuple[int, int]:
    if value != value:
        return _NAN_F64
    return _UNPACK_II(_PACK_D(value))


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

#: ``HazardModel`` writer kinds as the machine's ``wk`` codes.
_WK = {"alu": 0, "load": 1, "math": 2}

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


def _plus(name, k):
    """``name + k`` in generated source; just ``name`` when k is 0."""
    return f"{name} + {k}" if k else name


def _generate(machine, entry, idxs):
    """Generate and compile the block's code object.

    The generated source embeds only quantities derived from the
    executable image, the pipeline parameters and which traces the
    machine records -- machine state binds later, through default
    arguments -- so the returned ``(code, handler_slots, cycles)``
    triple is shareable by every machine running the same image with
    the same parameters and traces.
    """
    program = machine.program
    width = machine.isa.width_bytes
    base = machine.exe.text_base
    zero_r0 = machine.isa.name == "DLXe"
    dtrace = machine.dtrace is not None

    words = [(base + idx * width) >> 2 for idx in idxs]
    dwords = [w >> 1 for w in words]
    # Word/doubleword transitions are static inside the block: only the
    # entry boundary needs a runtime comparison; the cumulative
    # transition counts are folded in as constants.
    wt = [0] * len(idxs)
    dt = [0] * len(idxs)
    for j in range(1, len(idxs)):
        wt[j] = wt[j - 1] + (words[j] != words[j - 1])
        dt[j] = dt[j - 1] + (dwords[j] != dwords[j - 1])

    # The block's schedule, as offsets from ``time`` (the issue cycle of
    # the instruction before it), from a scoreboard where every value is
    # ready and the math unit free on entry.  The entry test below holds
    # exactly when the real scoreboard changes none of it.
    model = HazardModel(machine.params)
    tests = []
    exposed = set()
    written = {}      # register -> (ready offset, wk code) so far
    math_seen = False

    def settle():
        """The scoreboard entries the slots so far have written."""
        return [f"ready[{r}] = time + {off}; wk[{r}] = {kind}"
                for r, (off, kind) in written.items()]

    def state(j):
        """What ``step`` leaves once slot ``j`` has issued: the issue
        cycle, ``math_free``, the three interlock counters, the fetch
        word and doubleword, and the two fetch counts."""
        return (_plus("time", model.time),
                _plus("time", model.math_free) if math_seen else "math_free",
                _plus("interlocks", model.interlocks),
                _plus("load_il", model.load_interlocks),
                _plus("math_il", model.math_interlocks),
                words[j], dwords[j], _plus("ifw", wt[j]), _plus("ifd", dt[j]))

    def spill(j, addr):
        """Save slot ``j``'s state for ``Machine._recover_spill``."""
        values = (j + 1, *state(j), addr)
        return (["; ".join(f"S[{i}] = {v}" for i, v in enumerate(values))]
                + settle())

    lines = []
    handler_slots = []
    next_expr_emitted = False
    for j, idx in enumerate(idxs):
        instr = program[idx]
        addr = base + idx * width
        stall = model.issue(instr)
        for r in machine.reads_l[idx]:
            if r in written or r in exposed:
                continue
            # A value from before the block must be ready by this slot's
            # issue.  Where the slot stalls anyway it must be ready
            # earlier, or a tie would take part in deciding whether the
            # stall is a load or a math interlock.
            exposed.add(r)
            tests.append(f"ready[{r}] {'>=' if stall else '>'} "
                         f"time + {model.time}")
        if machine.mlat[idx] and not math_seen:
            math_seen = True
            tests.append(f"math_free > time + {model.time}")
        for w in machine.writes_l[idx]:
            written[w] = (model.ready[w], _WK[model.writer[w]])
        if instr.op in CONTROL_OPS:
            body, may_self = _control_lines(instr, addr, width)
            lines += body
            if may_self:
                lines.append(f"if _next == {addr}:")
                lines += ["    " + line for line in spill(j, addr)]
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
            lines += ["    " + line for line in spill(j, addr)]
            lines.append("    raise")
        else:
            lines += body
    if not next_expr_emitted:
        lines.append(f"_next = {base + idxs[-1] * width + width}")

    lines += settle()
    lines.append(f"return (_next, "
                 f"{', '.join(map(str, state(len(idxs) - 1)))})")

    # The entry test comes first: a block that fails it returns None
    # before any side effect, and the dispatcher steps it instead.
    head = [f"if {' or '.join(tests)}:", "    return"] if tests else []
    if machine.itrace is not None:
        # Every slot's pc up front; a raise mid-block truncates the
        # trace back to the retired slots (Machine._recover_spill).
        head.append("IT(PCS)")
    head += [f"if cur_word != {words[0]}:", "    ifw += 1",
             f"if cur_dword != {dwords[0]}:", "    ifd += 1"]

    params = ["time", "math_free", "interlocks", "load_il", "math_il",
              "cur_word", "cur_dword", "ifw", "ifd"]
    body = "".join(f"    {line}\n" for line in head + lines)
    used = set(_IDENT.findall(body))
    names = [name for name in _STD_NAMES + ("IT", "PCS", "DT")
             if name in used]
    names += [name for name, _ in handler_slots]
    params += [f"{name}={name}" for name in names]
    src = f"def _block({', '.join(params)}):\n" + body
    code = compile(src, f"<block@{base + entry * width:#x}>", "exec")
    return code, tuple(handler_slots), model.time


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
    code, handler_slots, cycles = cached

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
    return CompiledBlock(entry, tuple(idxs), namespace["_block"], cycles)
