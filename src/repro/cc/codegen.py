"""Code generation: IR -> assembly text for a :class:`TargetSpec`.

The pipeline per function:

1. **Immediate folding** — rewrite register operands that hold constants
   into immediate forms *when the target can encode them* (``BinImm``,
   ``CmpImm``, ``CJumpImm``).  This is where D16's unsigned 5-bit ALU
   immediates vs. DLXe's 16-bit fields manifest.
2. **Register allocation** (:mod:`repro.cc.regalloc`).
3. **Emission** — one pass over blocks producing assembly, legalizing
   addressing (displacement overflow goes through the assembler
   temporary), resolving two-address constraints with moves, building
   large constants (D16: ``mvi``/shift combinations or PC-relative
   constant pools; DLXe: ``mvhi``+``addi``), and laying down prologue,
   epilogue and literal pools.

The module also lays out the data segment (word scalars first so D16's
tiny gp window covers as many as possible) and emits the start-up stub.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.common import sign_extend
from ..isa.d16 import LDC_RANGE
from ..isa.dlxe import IMM_BITS
from ..isa.operations import Cond, COND_SWAP
from .ir import (AddrGlobal, AddrStack, Bin, CallInst, CJump, Cmp, Const,
                 Cvt, FCmp, FConst, FLoad, FStore, Function, Inst, Jump,
                 Load, Module, Move, Ret, StackSlot, Store, Un, VReg,
                 _mapped, fingerprint, freeze, thaw)
from .irgen import INTRINSICS
from .regalloc import allocate
from .target import (FP_ARG_PAIRS, FP_RET_PAIR, INT_ARG_REGS, REG_AT,
                     REG_AT2, REG_GP, REG_LINK, REG_RET, REG_SP, TargetSpec)

_TRAP_CODES = {"exit": 0, "putchar": 1, "getchar": 2, "sbrk": 3}

#: Conditions D16 compare hardware implements directly.
_D16_CONDS = {Cond.LT, Cond.LTU, Cond.LE, Cond.LEU, Cond.EQ, Cond.NE}

_COMMUTATIVE = {"add", "and", "or", "xor", "mul", "fadd", "fmul"}

_INT_MNEMONIC = {"add": "add", "sub": "sub", "mul": "mul", "div": "div",
                 "rem": "rem", "and": "and", "or": "or", "xor": "xor",
                 "shl": "shl", "shr": "shr", "shra": "shra"}
_IMM_MNEMONIC = {"add": "addi", "sub": "subi", "and": "andi", "or": "ori",
                 "xor": "xori", "shl": "shli", "shr": "shri",
                 "shra": "shrai"}
_FP_MNEMONIC = {"fadd": "add", "fsub": "sub", "fmul": "mul", "fdiv": "div"}
_LOAD_MNEMONIC = {(4, True): "ld", (4, False): "ld", (2, True): "ldh",
                  (2, False): "ldhu", (1, True): "ldb", (1, False): "ldbu"}
_STORE_MNEMONIC = {4: "st", 2: "sth", 1: "stb"}


class CodegenError(Exception):
    pass


# --------------------------------------------------------------------------
# Machine-level IR extensions produced by immediate folding.
# --------------------------------------------------------------------------


@dataclass
class BinImm(Inst):
    op: str
    dst: VReg
    a: VReg
    value: int

    def uses(self):
        return [self.a]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)

    def __str__(self):
        return f"{self.dst} = {self.op}i {self.a}, {self.value}"


@dataclass
class CmpImm(Inst):
    dst: VReg
    cond: Cond
    a: VReg
    value: int

    def uses(self):
        return [self.a]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)

    def __str__(self):
        return f"{self.dst} = cmpi{self.cond.value} {self.a}, {self.value}"


@dataclass
class CJumpImm(Inst):
    cond: Cond
    a: VReg
    value: int
    if_true: str
    if_false: str

    def uses(self):
        return [self.a]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)

    def __str__(self):
        return (f"if {self.a} {self.cond.value} {self.value} "
                f"goto {self.if_true} else {self.if_false}")


def legalize_globals(func: Function, target: TargetSpec,
                     offsets: dict[str, int]) -> None:
    """Turn unreachable global-displacement accesses into address values.

    This is where code generation decides a global's reach, by asking
    ``target.mem_offset_ok``: on D16 only the first 124 bytes of the
    data segment are addressable gp-relative (and subword accesses not
    at all), on DLXe 32 KB.  Other accesses need the global's address
    in a register (on D16 a constant-pool load).  Exposing that address
    as an ``AddrGlobal`` value lets CSE and loop-invariant code motion
    reuse it — which is what period compilers did, and what keeps the
    pool-load cost proportionate."""
    from .opt import (copy_propagation, dead_code, dedupe_single_defs,
                      licm, local_cse)

    changed = False
    for block in func.blocks:
        out: list[Inst] = []
        for inst in block.instrs:
            if isinstance(inst, (Load, Store, FLoad, FStore)) \
                    and isinstance(inst.base, str):
                goff = offsets[inst.base] + inst.offset
                if isinstance(inst, (Load, Store)):
                    size = inst.size
                    span = size
                else:
                    size = 4
                    span = 8 if (inst.dst.cls == "d"
                                 if isinstance(inst, FLoad)
                                 else inst.src.cls == "d") else 4
                ok = (target.mem_offset_ok(size, goff)
                      and target.mem_offset_ok(size, goff + span - 4))
                if not ok:
                    addr = func.new_vreg("i", f"ga_{inst.base}")
                    # Keep the displacement on the access only if it
                    # survives legalization; otherwise fold it into the
                    # pooled address (``.word name+offset``).
                    keep = (target.mem_offset_ok(size, inst.offset)
                            and target.mem_offset_ok(
                                size, inst.offset + span - 4))
                    if keep:
                        out.append(AddrGlobal(addr, inst.base))
                    else:
                        out.append(AddrGlobal(addr, inst.base,
                                              offset=inst.offset))
                        inst.offset = 0
                    inst.base = addr
                    changed = True
            out.append(inst)
        block.instrs = out
    if changed:
        local_cse(func)
        copy_propagation(func)
        licm(func)
        dedupe_single_defs(func)
        copy_propagation(func)
        dead_code(func)


def fold_immediates(func: Function, target: TargetSpec) -> None:
    """Fold constant operands into immediate instruction forms."""
    from .opt import dead_code

    for block in func.blocks:
        consts: dict[VReg, int] = {}
        out: list[Inst] = []
        for inst in block.instrs:
            new = None
            if isinstance(inst, Bin) and inst.dst.cls == "i":
                av = consts.get(inst.a)
                bv = consts.get(inst.b)
                op = inst.op
                if bv is not None and target.alu_imm_ok(op, bv):
                    new = BinImm(op, inst.dst, inst.a, bv)
                elif op == "sub" and bv is not None \
                        and target.alu_imm_ok("add", -bv):
                    new = BinImm("add", inst.dst, inst.a, -bv)
                elif op == "add" and bv is not None \
                        and target.alu_imm_ok("sub", -bv):
                    new = BinImm("sub", inst.dst, inst.a, -bv)
                elif av is not None and op in _COMMUTATIVE \
                        and target.alu_imm_ok(op, av):
                    new = BinImm(op, inst.dst, inst.b, av)
            elif isinstance(inst, Cmp):
                bv = consts.get(inst.b)
                if bv is not None and target.cmp_imm_ok(bv):
                    new = CmpImm(inst.dst, inst.cond, inst.a, bv)
            elif isinstance(inst, CJump) and inst.b is not None:
                bv = consts.get(inst.b)
                if bv == 0 and inst.cond in (Cond.EQ, Cond.NE):
                    new = CJump(inst.cond, inst.a, None,
                                inst.if_true, inst.if_false)
                elif bv is not None and target.cmp_imm_ok(bv):
                    new = CJumpImm(inst.cond, inst.a, bv,
                                   inst.if_true, inst.if_false)
            chosen = new if new is not None else inst
            for d in chosen.defs():
                consts.pop(d, None)
            if isinstance(chosen, Const):
                consts[chosen.dst] = _signed(chosen.value)
            out.append(chosen)
        block.instrs = out
    dead_code(func)


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


# --------------------------------------------------------------------------
# Assembly writer and D16 constant pools.
# --------------------------------------------------------------------------


class AsmWriter:
    """Accumulates assembly text, tracking emitted instruction bytes."""

    def __init__(self, instr_bytes: int):
        self.lines: list[str] = []
        self.width = instr_bytes
        self.position = 0          # bytes of instructions + pool data

    def instr(self, text: str) -> None:
        self.lines.append(f"        {text}")
        self.position += self.width

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def directive(self, text: str, size: int = 0) -> None:
        self.lines.append(f"        {text}")
        self.position += size

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class PoolManager:
    """Literal pools for D16's PC-relative ``ldc``.

    Entries accumulate while code is emitted; when the oldest pending use
    would drift out of ``ldc`` range, the pool is flushed inline (jumping
    over it).  This is the classic Thumb literal-island technique.
    """

    #: Flush before the oldest use is this many bytes from its pool slot.
    FLUSH_DISTANCE = LDC_RANGE[1] - 96

    def __init__(self, writer: AsmWriter, prefix: str):
        self.writer = writer
        self.prefix = prefix
        self.counter = 0
        self.pending: list[tuple[str, str]] = []   # (label, directive)
        self.dedupe: dict[str, str] = {}
        self.first_use_pos: int | None = None

    def ref(self, directive: str) -> str:
        """Get a pool label whose word is ``directive`` (e.g. '.word x')."""
        label = self.dedupe.get(directive)
        if label is None:
            label = f".Lp_{self.prefix}_{self.counter}"
            self.counter += 1
            self.pending.append((label, directive))
            self.dedupe[directive] = label
        if self.first_use_pos is None:
            self.first_use_pos = self.writer.position
        return label

    def maybe_flush(self) -> None:
        if self.first_use_pos is None:
            return
        if self.writer.position - self.first_use_pos >= self.FLUSH_DISTANCE:
            self.flush(jump_over=True)

    def flush(self, jump_over: bool) -> None:
        if not self.pending:
            return
        writer = self.writer
        skip = f".Lp_{self.prefix}_skip{self.counter}"
        self.counter += 1
        if jump_over:
            writer.instr(f"br {skip}")
        pad = (-writer.position) % 4
        writer.directive(".align 4", pad)
        for label, directive in self.pending:
            writer.label(label)
            writer.directive(directive, 4)
        if jump_over:
            writer.label(skip)
        self.pending.clear()
        self.dedupe.clear()
        self.first_use_pos = None


# --------------------------------------------------------------------------
# Data layout.
# --------------------------------------------------------------------------


def layout_data(module: Module) -> dict[str, int]:
    """Assign a gp-relative offset to every global.

    Word-sized scalars come first so that as many as possible fall inside
    D16's 0..124-byte gp window.
    """
    scalars = [g for g in module.globals if g.size <= 8 and g.align >= 4]
    others = [g for g in module.globals if g not in scalars]
    offsets: dict[str, int] = {}
    offset = 0
    for group in (scalars, others):
        for glob in group:
            align = max(glob.align, 1)
            offset = (offset + align - 1) // align * align
            offsets[glob.name] = offset
            offset += max(glob.size, 1)
    return offsets


def emit_data(module: Module, offsets: dict[str, int]) -> str:
    lines = ["        .data"]
    position = 0
    ordered = sorted(module.globals, key=lambda g: offsets[g.name])
    for glob in ordered:
        target = offsets[glob.name]
        if target > position:
            lines.append(f"        .space {target - position}")
            position = target
        lines.append(f"{glob.name}:")
        for item in glob.init:
            kind = item[0]
            if kind == "bytes":
                data = item[1]
                for chunk_start in range(0, len(data), 16):
                    chunk = data[chunk_start:chunk_start + 16]
                    values = ", ".join(str(b) for b in chunk)
                    lines.append(f"        .byte {values}")
                position += len(data)
            elif kind == "word":
                lines.append(f"        .word {item[1]}")
                position += 4
            elif kind == "sym":
                lines.append(f"        .word {item[1]}")
                position += 4
            elif kind == "space":
                lines.append(f"        .space {item[1]}")
                position += item[1]
            else:  # pragma: no cover
                raise CodegenError(f"unknown init directive {kind}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Function emission.
# --------------------------------------------------------------------------


class FunctionEmitter:
    def __init__(self, func: Function, target: TargetSpec,
                 global_offsets: dict[str, int], writer: AsmWriter,
                 schedule: bool = True):
        self.func = func
        self.target = target
        self.global_offsets = global_offsets
        self.writer = writer
        self.pool: PoolManager | None = (
            PoolManager(writer, func.name) if target.isa.name == "D16"
            else None)
        legalize_globals(func, target, global_offsets)
        fold_immediates(func, target)
        if schedule:
            from .schedule import schedule_function
            schedule_function(func)
        self.alloc, self.spill_slots = self._allocate()
        self.has_calls = any(
            isinstance(inst, CallInst) and inst.name not in INTRINSICS
            for block in func.blocks for inst in block.instrs)
        self._layout_frame()
        self.ret_label = f".L{func.name}_return"

    # ------------------------------------------------------------- setup

    def _allocate(self):
        before = set(self.func.slots)
        allocation = allocate(self.func, self.target)
        new_slots = [s for s in self.func.slots if s not in before]
        spill_map: dict[str, StackSlot] = {s.name: s for s in new_slots}
        return allocation, spill_map

    def _layout_frame(self) -> None:
        func, alloc = self.func, self.alloc
        offset = 0
        # Outgoing stack arguments (beyond 4 int + 4 FP registers).
        self.outgoing_bytes = self._max_outgoing()
        offset += self.outgoing_bytes
        # Saved link register.
        self.lr_offset = None
        if self.has_calls:
            self.lr_offset = offset
            offset += 4
        # Saved callee registers.
        self.saved_int_offsets: list[tuple[int, int]] = []
        for reg in alloc.used_callee_int:
            self.saved_int_offsets.append((reg, offset))
            offset += 4
        self.saved_fp_offsets: list[tuple[int, int]] = []
        for pair in alloc.used_callee_fp_pairs:
            self.saved_fp_offsets.append((pair, offset))
            offset += 8
        # Locals and spill slots.
        self.slot_offsets: dict[int, int] = {}
        for slot in func.slots:
            align = max(slot.align, 4)
            offset = (offset + align - 1) // align * align
            self.slot_offsets[slot.id] = offset
            offset += max(slot.size, 4)
        self.frame_size = (offset + 7) & ~7

    def _max_outgoing(self) -> int:
        worst = 0
        for block in self.func.blocks:
            for inst in block.instrs:
                if isinstance(inst, CallInst) \
                        and inst.name not in INTRINSICS:
                    _regs, stack = self._classify_args(inst.args)
                    worst = max(worst, sum(size for _a, _o, size in stack))
        return worst

    def _classify_args(self, args):
        """Split call arguments into register and stack classes."""
        reg_moves: list[tuple[str, int, int]] = []  # (cls, src_pair, dst)
        stack: list[tuple[VReg, int, int]] = []     # (vreg, offset, size)
        int_used = 0
        fp_used = 0
        stack_offset = 0
        for arg in args:
            if arg.cls == "i":
                if int_used < len(INT_ARG_REGS):
                    reg_moves.append(("i", self._reg(arg),
                                      INT_ARG_REGS[int_used]))
                    int_used += 1
                else:
                    stack.append((arg, stack_offset, 4))
                    stack_offset += 4
            else:
                if fp_used < len(FP_ARG_PAIRS):
                    reg_moves.append((arg.cls, self._reg(arg),
                                      FP_ARG_PAIRS[fp_used]))
                    fp_used += 1
                else:
                    size = 8 if arg.cls == "d" else 4
                    stack.append((arg, stack_offset, size))
                    stack_offset += size
        return reg_moves, stack

    def _reg(self, vreg: VReg) -> int:
        try:
            return self.alloc.reg_of(vreg)
        except KeyError:
            raise CodegenError(
                f"{self.func.name}: no register for {vreg} "
                f"(hint {vreg.hint!r})") from None

    # ---------------------------------------------------------- emission

    def emit(self) -> None:
        writer = self.writer
        writer.label(self.func.name)
        self._emit_prologue()
        blocks = self.func.blocks
        for index, block in enumerate(blocks):
            next_label = blocks[index + 1].label \
                if index + 1 < len(blocks) else None
            if index > 0:
                writer.label(block.label)
            for pos, inst in enumerate(block.instrs):
                is_last = (index == len(blocks) - 1
                           and pos == len(block.instrs) - 1)
                self._emit_inst(inst, next_label, is_last)
                if self.pool is not None:
                    self.pool.maybe_flush()
        self._emit_epilogue()
        if self.pool is not None:
            self.pool.flush(jump_over=False)

    # Convenience wrappers -------------------------------------------------

    def _i(self, text: str) -> None:
        self.writer.instr(text)

    def _load_const(self, reg: int, value: int) -> None:
        """Materialize a 32-bit constant into an integer register."""
        value = _signed(value)
        target = self.target
        if target.mvi_ok(value):
            self._i(f"mvi r{reg}, {value}")
            return
        if target.wide_immediates:
            # addi sign-extends the low half, so mvhi carries into the
            # high half when it is negative.
            lo = sign_extend(value, IMM_BITS)
            self._i(f"mvhi r{reg}, {((value - lo) >> IMM_BITS) & 0xFFFF}")
            if lo:
                self._i(f"addi r{reg}, r{reg}, {lo}")
            return
        if self.pool is None:
            # Narrow-immediate DLXe ablation: build with mvi/shli/addi.
            self._build_narrow_const(reg, value)
            return
        # D16: try mvi+shli (value == m << k with m in mvi's range).
        unsigned = value & 0xFFFFFFFF
        for shift in range(1, 24):
            if unsigned & ((1 << shift) - 1):
                continue
            m = _signed(unsigned >> shift)
            if target.mvi_ok(m):
                self._i(f"mvi r{reg}, {m}")
                self._i(f"shli r{reg}, r{reg}, {shift}")
                return
        self._pool_word(reg, f".word {value & 0xFFFFFFFF}")

    def _build_narrow_const(self, reg: int, value: int) -> None:
        """Build the signed ``value`` a byte at a time, starting with
        mvi of the highest bytes it fits; a byte too wide for addi goes
        through AT, or, when AT is the register being built, in two
        nibbles."""
        top = next(shift for shift in (8, 16, 24)
                   if self.target.mvi_ok(value >> shift))
        self._i(f"mvi r{reg}, {value >> top}")
        unsigned = value & 0xFFFFFFFF
        for shift in range(top - 8, -1, -8):
            byte = (unsigned >> shift) & 0xFF
            steps = [(8, byte)]
            if reg == REG_AT and not self.target.alu_imm_ok("add", byte):
                steps = [(4, byte >> 4), (4, byte & 0xF)]
            for bits, part in steps:
                self._i(f"shli r{reg}, r{reg}, {bits}")
                if not self.target.alu_imm_ok("add", part):
                    self._i(f"mvi r{REG_AT}, {part}")
                    self._i(f"add r{reg}, r{reg}, r{REG_AT}")
                elif part:
                    self._i(f"addi r{reg}, r{reg}, {part}")

    def _pool_word(self, reg: int, directive: str) -> None:
        if self.pool is None:
            raise CodegenError("constant pool used on a pool-less target")
        label = self.pool.ref(directive)
        self._i(f"ldc r{reg}, {label}")

    def _add_imm(self, dst: int, src: int, value: int) -> None:
        """dst = src + value, legalizing the immediate."""
        if value == 0:
            if dst != src:
                self._i(f"mv r{dst}, r{src}")
            return
        if self.target.alu_imm_ok("add", value):
            if self.target.wide_immediates:
                # Three-address even on the two-address DLXe targets.
                self._i(f"addi r{dst}, r{src}, {value}")
            else:
                self._bin_imm("add", dst, src, value)
            return
        scratch = REG_AT if dst == src or dst == REG_AT2 else dst
        self._load_const(scratch, value)
        if self.target.three_address:
            self._i(f"add r{dst}, r{src}, r{scratch}")
        else:
            if dst != src and dst == scratch:
                self._i(f"add r{dst}, r{dst}, r{src}")
            else:
                if dst != src:
                    self._i(f"mv r{dst}, r{src}")
                self._i(f"add r{dst}, r{dst}, r{scratch}")

    # Memory access ----------------------------------------------------------

    def _address(self, base, offset: int) -> tuple[int, int]:
        """An IR memory base and offset as (base register, displacement)."""
        if isinstance(base, VReg):
            return self._reg(base), offset
        if isinstance(base, StackSlot):
            return REG_SP, self.slot_offsets[base.id] + offset
        return REG_GP, self.global_offsets[base] + offset

    def _mem_access(self, mnemonic: str, data: int, base: int, offset: int,
                    size: int = 4) -> None:
        """Emit every load and store: ``mnemonic`` moves ``size`` bytes
        between ``data`` and ``offset(base)``.  A displacement the
        target cannot encode is added into AT first (a global's never
        needs it: :func:`legalize_globals` gave those a register)."""
        if not self.target.mem_offset_ok(size, offset):
            self._add_imm(REG_AT, base, offset)
            base, offset = REG_AT, 0
        # D16's subword modes have no displacement field.
        disp = "" if size < 4 and not self.target.wide_immediates \
            else offset
        self._i(f"{mnemonic} r{data}, {disp}(r{base})")

    # Two-address resolution -----------------------------------------------

    def _bin_reg(self, op: str, dst: int, a: int, b: int,
                 fp_suffix: str = "", pair: bool = False) -> None:
        """Emit dst = a OP b honoring the target's address count."""
        prefix = "f" if fp_suffix else "r"
        mv = f"mv.{ 'df' if pair else 'sf' }" if fp_suffix else "mv"
        name = op + fp_suffix
        if self.target.three_address:
            self._i(f"{name} {prefix}{dst}, {prefix}{a}, {prefix}{b}")
            return
        if dst == a:
            self._i(f"{name} {prefix}{dst}, {prefix}{dst}, {prefix}{b}")
            return
        base = op.split(".")[0]
        commutative = base in ("add", "and", "or", "xor", "mul")
        if dst == b:
            if commutative:
                self._i(f"{name} {prefix}{dst}, {prefix}{dst}, {prefix}{a}")
                return
            if base == "sub" and not fp_suffix:
                # dst = a - dst  ==  -(dst - a)
                self._i(f"sub r{dst}, r{dst}, r{a}")
                self._i(f"neg r{dst}, r{dst}")
                return
            if base == "sub" and fp_suffix:
                self._i(f"{name} {prefix}{dst}, {prefix}{dst}, {prefix}{a}")
                self._i(f"neg{fp_suffix} {prefix}{dst}, {prefix}{dst}")
                return
            # General case: go through the scratch register.
            if fp_suffix:
                self._i(f"{mv} f0, f{a}")
                self._i(f"{name} f0, f0, f{b}")
                self._i(f"{mv} f{dst}, f0")
            else:
                self._i(f"mv r{REG_AT}, r{a}")
                self._i(f"{name} r{REG_AT}, r{REG_AT}, r{b}")
                self._i(f"mv r{dst}, r{REG_AT}")
            return
        self._i(f"{mv} {prefix}{dst}, {prefix}{a}")
        self._i(f"{name} {prefix}{dst}, {prefix}{dst}, {prefix}{b}")

    def _bin_imm(self, op: str, dst: int, a: int, value: int) -> None:
        mnemonic = _IMM_MNEMONIC[op]
        if not self.target.wide_immediates and op in ("add", "sub"):
            # D16 addi/subi are unsigned; pick the right direction.
            if value < 0:
                mnemonic = "subi" if op == "add" else "addi"
                value = -value
        if self.target.three_address:
            self._i(f"{mnemonic} r{dst}, r{a}, {value}")
            return
        if dst != a:
            self._i(f"mv r{dst}, r{a}")
        self._i(f"{mnemonic} r{dst}, r{dst}, {value}")

    # Comparison helpers ----------------------------------------------------

    def _legal_cond(self, cond: Cond, a, b):
        """Swap operands so D16-class hardware can encode the condition."""
        if self.target.isa.name != "D16" or cond in _D16_CONDS:
            return cond, a, b
        return COND_SWAP[cond], b, a

    def _cmp_to(self, dst: int, cond: Cond, a: int, b: int) -> None:
        if self.target.isa.name == "D16":
            cond, a, b = self._legal_cond(cond, a, b)
            self._i(f"cmp{cond.value} r0, r{a}, r{b}")
            self._i(f"mv r{dst}, r0")
        else:
            self._i(f"cmp{cond.value} r{dst}, r{a}, r{b}")

    def _branch_cond(self, cond: Cond, a: int, b: int, label: str) -> None:
        """Branch to label when a cond b (register-register)."""
        if self.target.isa.name == "D16":
            cond, a, b = self._legal_cond(cond, a, b)
            self._i(f"cmp{cond.value} r0, r{a}, r{b}")
            self._i(f"bnz r0, {label}")
        else:
            self._i(f"cmp{cond.value} r{REG_AT}, r{a}, r{b}")
            self._i(f"bnz r{REG_AT}, {label}")

    def _branch_zero(self, cond: Cond, a: int, label: str) -> None:
        """Branch to label when a cond 0 (cond is EQ or NE)."""
        mnemonic = "bz" if cond == Cond.EQ else "bnz"
        if self.target.isa.name == "D16":
            self._i(f"mv r0, r{a}")
            self._i(f"{mnemonic} r0, {label}")
        else:
            self._i(f"{mnemonic} r{a}, {label}")

    # FP helpers -------------------------------------------------------------
    # Neither ISA loads or stores FP registers: words go through AT2.

    def _fp_load_words(self, pair: int, base: int, offset: int,
                       is_double: bool) -> None:
        for index in range(2 if is_double else 1):
            self._mem_access("ld", REG_AT2, base, offset + 4 * index)
            self._i(f"mvif f{pair + index}, r{REG_AT2}")

    def _fp_store_words(self, pair: int, base: int, offset: int,
                        is_double: bool) -> None:
        for index in range(2 if is_double else 1):
            self._i(f"mvfi r{REG_AT2}, f{pair + index}")
            self._mem_access("st", REG_AT2, base, offset + 4 * index)

    def _fp_const_bits(self, pair: int, value: float, is_double: bool) -> None:
        import struct as _struct
        if is_double:
            lo, hi = _struct.unpack("<II", _struct.pack("<d", value))
            words = [lo, hi]
        else:
            words = [_struct.unpack("<I", _struct.pack("<f", value))[0]]
        for index, bits in enumerate(words):
            self._load_const(REG_AT2, bits)
            self._i(f"mvif f{pair + index}, r{REG_AT2}")

    # Parallel moves ----------------------------------------------------------

    def _parallel_int_moves(self, moves: list[tuple[int, int]]) -> None:
        """Emit moves (dst, src) that may permute registers; AT breaks cycles."""
        pending = [(d, s) for d, s in moves if d != s]
        while pending:
            sources = {s for _d, s in pending}
            emitted = False
            for index, (dst, src) in enumerate(pending):
                if dst not in sources:
                    self._i(f"mv r{dst}, r{src}")
                    pending.pop(index)
                    emitted = True
                    break
            if emitted:
                continue
            dst, src = pending[0]
            self._i(f"mv r{REG_AT}, r{src}")
            pending = [(d, (REG_AT if s == src else s))
                       for d, s in pending]

    def _parallel_fp_moves(self, moves: list[tuple[str, int, int]]) -> None:
        """moves: (cls, src_pair, dst_pair); f0 pair breaks cycles."""
        pending = [(cls, dst, src) for cls, src, dst in moves if dst != src]
        while pending:
            sources = {s for _c, _d, s in pending}
            emitted = False
            for index, (cls, dst, src) in enumerate(pending):
                if dst not in sources and dst + 1 not in sources:
                    mv = "mv.df" if cls == "d" else "mv.sf"
                    self._i(f"{mv} f{dst}, f{src}")
                    pending.pop(index)
                    emitted = True
                    break
            if emitted:
                continue
            cls, dst, src = pending[0]
            mv = "mv.df" if cls == "d" else "mv.sf"
            self._i(f"{mv} f{FP_RET_PAIR}, f{src}")
            pending = [(c, d, (FP_RET_PAIR if s == src else s))
                       for c, d, s in pending]

    # Prologue / epilogue ------------------------------------------------------

    def _emit_prologue(self) -> None:
        if self.frame_size:
            self._add_imm(REG_SP, REG_SP, -self.frame_size)
        if self.lr_offset is not None:
            self._mem_access("st", REG_LINK, REG_SP, self.lr_offset)
        for reg, offset in self.saved_int_offsets:
            self._mem_access("st", reg, REG_SP, offset)
        for pair, offset in self.saved_fp_offsets:
            self._fp_store_words(pair, REG_SP, offset, True)
        self._emit_param_moves()

    def _emit_param_moves(self) -> None:
        int_moves: list[tuple[int, int]] = []
        fp_moves: list[tuple[str, int, int]] = []
        int_used = fp_used = 0
        stack_offset = 0
        for param in self.func.params:
            if param.cls == "i":
                if int_used < len(INT_ARG_REGS):
                    self._param_in(param, INT_ARG_REGS[int_used], None,
                                   int_moves)
                    int_used += 1
                else:
                    self._param_in(param, None, stack_offset, int_moves)
                    stack_offset += 4
            else:
                if fp_used < len(FP_ARG_PAIRS):
                    self._param_fp_in(param, FP_ARG_PAIRS[fp_used], None,
                                      fp_moves)
                    fp_used += 1
                else:
                    self._param_fp_in(param, None, stack_offset, fp_moves)
                    stack_offset += 8 if param.cls == "d" else 4
        if int_moves:
            self._parallel_int_moves(int_moves)
        if fp_moves:
            self._parallel_fp_moves(fp_moves)

    def _param_in(self, param: VReg, src_reg, stack_offset,
                  int_moves) -> None:
        # A spilled parameter may still carry a (vacuous) register
        # assignment from the retry round; the spill slot is the truth.
        spill = self.spill_slots.get(f"spill_{param}")
        assignment = None if spill is not None \
            else self.alloc.int_assignment.get(param)
        if src_reg is not None:
            if assignment is not None:
                int_moves.append((assignment, src_reg))
            elif spill is not None:
                self._mem_access("st", src_reg, REG_SP,
                                 self.slot_offsets[spill.id])
        else:
            offset = self.frame_size + stack_offset
            if assignment is not None:
                self._mem_access("ld", assignment, REG_SP, offset)
            elif spill is not None:
                self._mem_access("ld", REG_AT2, REG_SP, offset)
                self._mem_access("st", REG_AT2, REG_SP,
                                 self.slot_offsets[spill.id])

    def _param_fp_in(self, param: VReg, src_pair, stack_offset,
                     fp_moves) -> None:
        spill = self.spill_slots.get(f"spill_{param}")
        assignment = None if spill is not None \
            else self.alloc.fp_assignment.get(param)
        is_double = param.cls == "d"
        if src_pair is not None:
            if assignment is not None:
                fp_moves.append((param.cls, src_pair, assignment))
            elif spill is not None:
                self._fp_store_words(src_pair, REG_SP,
                                     self.slot_offsets[spill.id], is_double)
        else:
            offset = self.frame_size + stack_offset
            if assignment is not None:
                self._fp_load_words(assignment, REG_SP, offset, is_double)
            elif spill is not None:
                slot_off = self.slot_offsets[spill.id]
                for index in range(2 if is_double else 1):
                    self._mem_access("ld", REG_AT2, REG_SP,
                                     offset + 4 * index)
                    self._mem_access("st", REG_AT2, REG_SP,
                                     slot_off + 4 * index)

    def _emit_epilogue(self) -> None:
        self.writer.label(self.ret_label)
        for pair, offset in self.saved_fp_offsets:
            self._fp_load_words(pair, REG_SP, offset, True)
        for reg, offset in self.saved_int_offsets:
            self._mem_access("ld", reg, REG_SP, offset)
        if self.lr_offset is not None:
            self._mem_access("ld", REG_LINK, REG_SP, self.lr_offset)
        if self.frame_size:
            self._add_imm(REG_SP, REG_SP, self.frame_size)
        self._i(f"j r{REG_LINK}")

    # Instruction dispatch -------------------------------------------------

    def _emit_inst(self, inst: Inst, next_label: str | None,
                   is_last: bool) -> None:
        if isinstance(inst, Const):
            self._load_const(self._reg(inst.dst), inst.value)
        elif isinstance(inst, FConst):
            self._fp_const_bits(self._reg(inst.dst), inst.value,
                                inst.dst.cls == "d")
        elif isinstance(inst, Move):
            self._emit_move(inst)
        elif isinstance(inst, Bin):
            self._emit_bin(inst)
        elif isinstance(inst, BinImm):
            self._bin_imm(inst.op, self._reg(inst.dst), self._reg(inst.a),
                          inst.value)
        elif isinstance(inst, Un):
            self._emit_un(inst)
        elif isinstance(inst, Cmp):
            self._cmp_to(self._reg(inst.dst), inst.cond,
                         self._reg(inst.a), self._reg(inst.b))
        elif isinstance(inst, CmpImm):
            self._i(f"cmpi{inst.cond.value} r{self._reg(inst.dst)}, "
                    f"r{self._reg(inst.a)}, {inst.value}")
        elif isinstance(inst, FCmp):
            self._emit_fcmp(inst)
        elif isinstance(inst, Cvt):
            self._emit_cvt(inst)
        elif isinstance(inst, Load):
            self._mem_access(_LOAD_MNEMONIC[(inst.size, inst.signed)],
                             self._reg(inst.dst),
                             *self._address(inst.base, inst.offset),
                             inst.size)
        elif isinstance(inst, FLoad):
            self._fp_load_words(self._reg(inst.dst),
                                *self._address(inst.base, inst.offset),
                                inst.dst.cls == "d")
        elif isinstance(inst, Store):
            self._mem_access(_STORE_MNEMONIC[inst.size],
                             self._reg(inst.src),
                             *self._address(inst.base, inst.offset),
                             inst.size)
        elif isinstance(inst, FStore):
            self._fp_store_words(self._reg(inst.src),
                                 *self._address(inst.base, inst.offset),
                                 inst.src.cls == "d")
        elif isinstance(inst, AddrGlobal):
            self._emit_addr_global(self._reg(inst.dst), inst.name,
                                   inst.offset)
        elif isinstance(inst, AddrStack):
            self._add_imm(self._reg(inst.dst), REG_SP,
                          self.slot_offsets[inst.slot.id])
        elif isinstance(inst, CallInst):
            self._emit_call(inst)
        elif isinstance(inst, Ret):
            self._emit_ret(inst, is_last)
        elif isinstance(inst, Jump):
            if inst.target != next_label:
                self._i(f"br {inst.target}")
        elif isinstance(inst, CJump):
            self._emit_cjump(inst, next_label)
        elif isinstance(inst, CJumpImm):
            self._emit_cjump_imm(inst, next_label)
        else:  # pragma: no cover
            raise CodegenError(f"cannot emit {inst}")

    def _emit_move(self, inst: Move) -> None:
        dst, src = self._reg(inst.dst), self._reg(inst.src)
        if dst == src:
            return
        if inst.dst.cls == "i":
            self._i(f"mv r{dst}, r{src}")
        elif inst.dst.cls == "d":
            self._i(f"mv.df f{dst}, f{src}")
        else:
            self._i(f"mv.sf f{dst}, f{src}")

    def _emit_bin(self, inst: Bin) -> None:
        if inst.op.startswith("f"):
            suffix = ".df" if inst.dst.cls == "d" else ".sf"
            self._bin_reg(_FP_MNEMONIC[inst.op], self._reg(inst.dst),
                          self._reg(inst.a), self._reg(inst.b),
                          fp_suffix=suffix, pair=inst.dst.cls == "d")
        else:
            self._bin_reg(_INT_MNEMONIC[inst.op], self._reg(inst.dst),
                          self._reg(inst.a), self._reg(inst.b))

    def _emit_un(self, inst: Un) -> None:
        dst = self._reg(inst.dst)
        a = self._reg(inst.a)
        if inst.op == "neg":
            self._i(f"neg r{dst}, r{a}")
        elif inst.op == "inv":
            self._i(f"inv r{dst}, r{a}")
        elif inst.op == "fneg":
            suffix = "df" if inst.dst.cls == "d" else "sf"
            self._i(f"neg.{suffix} f{dst}, f{a}")
        else:  # pragma: no cover
            raise CodegenError(f"unknown unary {inst.op}")

    def _emit_fcmp(self, inst: FCmp) -> None:
        suffix = "df" if inst.a.cls == "d" else "sf"
        cond, a, b = inst.cond, self._reg(inst.a), self._reg(inst.b)
        if self.target.isa.name == "D16" and cond not in _D16_CONDS:
            cond, a, b = COND_SWAP[cond], b, a
        self._i(f"cmp{cond.value}.{suffix} f{a}, f{b}")
        self._i(f"rdsr r{self._reg(inst.dst)}")

    def _emit_cvt(self, inst: Cvt) -> None:
        kind = inst.kind
        if kind in ("i2f", "i2d"):
            src = self._reg(inst.a)
            dst = self._reg(inst.dst)
            self._i(f"mvif f{FP_RET_PAIR}, r{src}")
            op = "si2sf" if kind == "i2f" else "si2df"
            self._i(f"{op} f{dst}, f{FP_RET_PAIR}")
        elif kind in ("f2i", "d2i"):
            src = self._reg(inst.a)
            dst = self._reg(inst.dst)
            op = "sf2si" if kind == "f2i" else "df2si"
            self._i(f"{op} f{FP_RET_PAIR}, f{src}")
            self._i(f"mvfi r{dst}, f{FP_RET_PAIR}")
        elif kind == "f2d":
            self._i(f"sf2df f{self._reg(inst.dst)}, f{self._reg(inst.a)}")
        elif kind == "d2f":
            self._i(f"df2sf f{self._reg(inst.dst)}, f{self._reg(inst.a)}")
        else:  # pragma: no cover
            raise CodegenError(f"unknown conversion {kind}")

    def _emit_addr_global(self, reg: int, name: str,
                          extra: int = 0) -> None:
        goff = self.global_offsets[name] + extra
        if self.pool is not None and not self.target.alu_imm_ok("add", goff):
            sym = name if extra == 0 else f"{name}+{extra}"
            self._pool_word(reg, f".word {sym}")
        else:
            self._add_imm(reg, REG_GP, goff)

    def _emit_call(self, inst: CallInst) -> None:
        if inst.name in INTRINSICS:
            self._emit_intrinsic(inst)
            return
        reg_moves, stack_args = self._classify_args(inst.args)
        for vreg, offset, size in stack_args:
            if vreg.cls == "i":
                self._mem_access("st", self._reg(vreg), REG_SP, offset)
            else:
                self._fp_store_words(self._reg(vreg), REG_SP, offset,
                                     size == 8)
        int_moves = [(dst, src) for cls, src, dst in reg_moves
                     if cls == "i"]
        fp_moves = [(cls, src, dst) for cls, src, dst in reg_moves
                    if cls != "i"]
        self._parallel_int_moves(int_moves)
        self._parallel_fp_moves(fp_moves)
        if self.target.isa.has_direct_jumps:
            self._i(f"jld {inst.name}")
        else:
            self._pool_word(REG_AT, f".word {inst.name}")
            self._i(f"jl r{REG_AT}")
        if inst.dst is not None:
            if inst.dst.cls == "i":
                dst = self._reg(inst.dst)
                if dst != REG_RET:
                    self._i(f"mv r{dst}, r{REG_RET}")
            else:
                dst = self._reg(inst.dst)
                mv = "mv.df" if inst.dst.cls == "d" else "mv.sf"
                if dst != FP_RET_PAIR:
                    self._i(f"{mv} f{dst}, f{FP_RET_PAIR}")

    def _emit_intrinsic(self, inst: CallInst) -> None:
        moves = []
        for index, arg in enumerate(inst.args):
            moves.append((INT_ARG_REGS[index], self._reg(arg)))
        self._parallel_int_moves(moves)
        self._i(f"trap {_TRAP_CODES[inst.name]}")
        if inst.dst is not None and inst.name != "exit":
            dst = self._reg(inst.dst)
            if dst != REG_RET:
                self._i(f"mv r{dst}, r{REG_RET}")

    def _emit_ret(self, inst: Ret, is_last: bool) -> None:
        if inst.src is not None:
            if inst.src.cls == "i":
                src = self._reg(inst.src)
                if src != REG_RET:
                    self._i(f"mv r{REG_RET}, r{src}")
            else:
                src = self._reg(inst.src)
                mv = "mv.df" if inst.src.cls == "d" else "mv.sf"
                if src != FP_RET_PAIR:
                    self._i(f"{mv} f{FP_RET_PAIR}, f{src}")
        if not is_last:
            self._i(f"br {self.ret_label}")

    def _emit_cjump(self, inst: CJump, next_label: str | None) -> None:
        cond = inst.cond
        if inst.b is None:
            if inst.if_true == next_label:
                flipped = Cond.NE if cond == Cond.EQ else Cond.EQ
                self._branch_zero(flipped, self._reg(inst.a), inst.if_false)
            else:
                self._branch_zero(cond, self._reg(inst.a), inst.if_true)
                if inst.if_false != next_label:
                    self._i(f"br {inst.if_false}")
            return
        a, b = self._reg(inst.a), self._reg(inst.b)
        if inst.if_true == next_label:
            from ..isa.operations import COND_NEGATE
            self._branch_cond(COND_NEGATE[cond], a, b, inst.if_false)
        else:
            self._branch_cond(cond, a, b, inst.if_true)
            if inst.if_false != next_label:
                self._i(f"br {inst.if_false}")

    def _emit_cjump_imm(self, inst: CJumpImm, next_label: str | None) -> None:
        from ..isa.operations import COND_NEGATE
        a = self._reg(inst.a)
        if inst.if_true == next_label:
            cond = COND_NEGATE[inst.cond]
            self._i(f"cmpi{cond.value} r{REG_AT}, r{a}, {inst.value}")
            self._i(f"bnz r{REG_AT}, {inst.if_false}")
        else:
            self._i(f"cmpi{inst.cond.value} r{REG_AT}, r{a}, {inst.value}")
            self._i(f"bnz r{REG_AT}, {inst.if_true}")
            if inst.if_false != next_label:
                self._i(f"br {inst.if_false}")


# --------------------------------------------------------------------------
# Whole-module generation.
# --------------------------------------------------------------------------


def _emit_start(writer: AsmWriter, target: TargetSpec) -> None:
    writer.label("_start")
    if target.isa.name == "D16":
        pool = PoolManager(writer, "crt0")
        writer.instr(f"ldc r{REG_SP}, {pool.ref('.word __stack_top')}")
        writer.instr(f"ldc r{REG_GP}, {pool.ref('.word __gp')}")
        writer.instr(f"ldc r{REG_AT}, {pool.ref('.word main')}")
        writer.instr(f"jl r{REG_AT}")
        writer.instr("trap 0")
        pool.flush(jump_over=False)
    else:
        writer.instr(f"mvhi r{REG_SP}, %hi(__stack_top)")
        writer.instr(f"addi r{REG_SP}, r{REG_SP}, %lo(__stack_top)")
        writer.instr(f"mvhi r{REG_GP}, %hi(__gp)")
        writer.instr(f"addi r{REG_GP}, r{REG_GP}, %lo(__gp)")
        writer.instr("jld main")
        writer.instr("trap 0")


#: Each function's emitted assembly, by everything its emission reads:
#:
#: * the target's full spec, not only its name;
#: * whether the scheduler runs;
#: * the writer's position modulo 4: D16's pool flush pads to a word
#:   from the absolute position, so the writer's advance depends on it;
#: * the gp offset of every global the function names: word scalars are
#:   laid out first, so one program's scalars move another's arrays;
#: * the fingerprint of the optimized function.
#:
#: The value is the function's text, the writer's advance over it and
#: the function as emission legalized it, frozen: callers such as the
#: binary translation validator read the legalized IR and its spill
#: slots.  In process only, as :data:`repro.cc.opt._OPTIMIZED` is.
_GENERATED: dict[tuple, tuple[str, int, bytes]] = {}


def _named_globals(func: Function) -> list[str]:
    """The globals ``func``'s instructions address, sorted."""
    names = set()
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, AddrGlobal):
                names.add(inst.name)
            elif isinstance(inst, (Load, Store, FLoad, FStore)) \
                    and isinstance(inst.base, str):
                names.add(inst.base)
    return sorted(names)


def generate_assembly(module: Module, target: TargetSpec, *,
                      opt_level: int = 2) -> str:
    """Generate a complete assembly file for ``module`` on ``target``.

    ``-O0`` emits each block's instructions in IR order; ``-O1`` and up
    run the list scheduler.  Code generation legalizes each function in
    place; a function emitted before in this process under the same
    :data:`_GENERATED` key is restored from there instead.
    """
    offsets = layout_data(module)
    writer = AsmWriter(target.isa.width_bytes)
    writer.directive(".text")
    writer.directive(".global _start")
    _emit_start(writer, target)
    schedule = opt_level >= 1
    for func in module.functions:
        key = (target, schedule, writer.position % 4,
               tuple((name, offsets.get(name))
                     for name in _named_globals(func)),
               fingerprint(func))
        emitted = _GENERATED.get(key)
        if emitted is None:
            start, first = writer.position, len(writer.lines)
            FunctionEmitter(func, target, offsets, writer,
                            schedule=schedule).emit()
            _GENERATED[key] = ("\n".join(writer.lines[first:]),
                               writer.position - start, freeze(func))
        else:
            text, advance, legalized = emitted
            writer.lines.append(text)
            writer.position += advance
            thaw(func, legalized)
    data = emit_data(module, offsets)
    return writer.text() + data
