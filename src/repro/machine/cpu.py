"""The architecture simulator: functional execution + pipeline timing.

:class:`Machine` loads a linked executable (either ISA), pre-decodes its
text segment, and executes it while accounting the paper's performance
quantities in a single pass:

* path length (instruction count),
* delayed-load and math-unit interlock cycles, by the rules of
  :class:`repro.machine.pipeline.HazardModel`: the stepping loop
  applies them inline, one instruction at a time, and compiled blocks
  take their schedule from the model itself when they are generated
  (:mod:`repro.machine.blocks`),
* word- and doubleword-granularity instruction fetch transactions,
  modelling the fetch buffer of a 32- or 64-bit memory port: a new
  transaction is counted whenever execution leaves the currently
  buffered word/doubleword, including after taken control transfers,
* optional instruction/data address traces for the cache simulator.

Each decoded instruction is compiled to a small Python closure that
mutates the architectural state and returns the next PC, which keeps the
interpreter loop tight without sacrificing one-instruction-at-a-time
clarity.
"""

from __future__ import annotations

import copy
import os
from array import array
from dataclasses import dataclass
from typing import Any, Mapping

from ..asm.objfile import Executable
from ..isa import DecodingError, Instr, Op, OpKind, get_isa
from ..isa.common import to_s32
from ..isa.refs import ldc_pool_addr
from ..isa.operations import Cond
from .blocks import (HOT_THRESHOLD, CompiledBlock, NoProgress,
                     _clamp_s32, _div_by_zero, _f32_bits_to_float,
                     _f64_bits_to_float, _float_to_f32_bits,
                     _float_to_f64_bits, compile_block)
from .memory import DEFAULT_MEM_SIZE, Memory, MemoryError_
from .pipeline import PipelineParams, hazard_indices
from .stats import RunStats
from .traps import TrapHandler

WORD_MASK = 0xFFFFFFFF

#: Default watchdog fuel (instructions) for :meth:`Machine.run`.
DEFAULT_FUEL = 2_000_000_000

#: The successor lookup of a block that must not chain (see ``run``).
_ALONE = {}.get

#: Retired instructions between the snapshots a checkpointed run takes
#: (:func:`run_executable`).  A fault campaign restores the last one at
#: or before each trigger, so a site walks fewer than this many golden
#: instructions.  With a restore per site, 25,000 and 100,000 moved the
#: injection phase of the ``faults`` benchmark's cells by less than its
#: run-to-run spread, at 4 and at 20 faults per cell, while 25,000 took
#: twice the snapshots (EXPERIMENTS.md).
CHECKPOINT_EVERY = 50_000

#: At most this many snapshots per run: past them the run goes on
#: unpaused, so a golden run that never ends holds bounded memory until
#: its watchdog fires.
MAX_CHECKPOINTS = 1000

#: A snapshot stores memory as the pages of this many bytes that differ
#: from the loaded image.
PAGE_BYTES = 4096

#: The machine state, besides memory, traces and patched text, that a
#: :class:`Snapshot` holds.
_STATE = ("g", "f", "fpstat", "pc", "halted", "traps", "_ready", "_rkind",
          "_st", "counts", "block_instructions", "block_fallbacks")

#: Execution engines: ``blocks`` dispatches fused basic-block closures
#: (see :mod:`repro.machine.blocks`), traced or not; ``step`` is the
#: seed's one-instruction-at-a-time interpreter, retained as the oracle
#: for equivalence tests.
ENGINES = ("blocks", "step")


class MachineError(Exception):
    """Runtime failure of the simulated machine."""


class MachineTimeout(MachineError):
    """Watchdog expiry: the program exceeded its fuel or stopped making
    progress.  Carries enough context (pc, instruction and cycle counts,
    the last trap handled) to diagnose the hang without re-running.
    """

    def __init__(self, reason: str, pc: int = 0, executed: int = 0,
                 cycles: int = 0, last_trap: int | None = None):
        self.reason = reason
        self.pc = pc
        self.executed = executed
        self.cycles = cycles
        self.last_trap = last_trap
        trap = "none" if last_trap is None else str(last_trap)
        super().__init__(
            f"{reason}: pc={pc:#x} after {executed} instructions, "
            f"{cycles} cycles, last trap {trap}")

    def __reduce__(self):  # exceptions cross process-pool boundaries
        return (MachineTimeout, (self.reason, self.pc, self.executed,
                                 self.cycles, self.last_trap))


_INT_CMP = {
    Cond.LT: lambda a, b: to_s32(a) < to_s32(b),
    Cond.LTU: lambda a, b: a < b,
    Cond.LE: lambda a, b: to_s32(a) <= to_s32(b),
    Cond.LEU: lambda a, b: a <= b,
    Cond.EQ: lambda a, b: a == b,
    Cond.NE: lambda a, b: a != b,
    Cond.GT: lambda a, b: to_s32(a) > to_s32(b),
    Cond.GTU: lambda a, b: a > b,
    Cond.GE: lambda a, b: to_s32(a) >= to_s32(b),
    Cond.GEU: lambda a, b: a >= b,
}

_FLOAT_CMP = {
    Cond.LT: lambda a, b: a < b,
    Cond.LTU: lambda a, b: a < b,
    Cond.LE: lambda a, b: a <= b,
    Cond.LEU: lambda a, b: a <= b,
    Cond.EQ: lambda a, b: a == b,
    Cond.NE: lambda a, b: a != b,
    Cond.GT: lambda a, b: a > b,
    Cond.GTU: lambda a, b: a > b,
    Cond.GE: lambda a, b: a >= b,
    Cond.GEU: lambda a, b: a >= b,
}

_INT_ALU = {
    Op.ADD: lambda a, b: (a + b) & WORD_MASK,
    Op.SUB: lambda a, b: (a - b) & WORD_MASK,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHRA: lambda a, b: (to_s32(a) >> (b & 31)) & WORD_MASK,
    Op.SHR: lambda a, b: a >> (b & 31),
    Op.SHL: lambda a, b: (a << (b & 31)) & WORD_MASK,
}

_INT_ALU_IMM = {
    Op.ADDI: Op.ADD, Op.SUBI: Op.SUB, Op.ANDI: Op.AND, Op.ORI: Op.OR,
    Op.XORI: Op.XOR, Op.SHRAI: Op.SHRA, Op.SHRI: Op.SHR, Op.SHLI: Op.SHL,
}

_FP3_SINGLE = {
    Op.ADD_SF: lambda a, b: a + b,
    Op.SUB_SF: lambda a, b: a - b,
    Op.MUL_SF: lambda a, b: a * b,
    Op.DIV_SF: lambda a, b: a / b if b else _div_by_zero(a, b),
}

_FP3_DOUBLE = {
    Op.ADD_DF: lambda a, b: a + b,
    Op.SUB_DF: lambda a, b: a - b,
    Op.MUL_DF: lambda a, b: a * b,
    Op.DIV_DF: lambda a, b: a / b if b else _div_by_zero(a, b),
}


def _copy_state(source: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of the :data:`_STATE` entries of ``source`` (a machine's
    ``vars()`` or a snapshot's ``state``).  Every entry is a value or a
    flat container of values except the trap handler, copied deep."""
    return {name: (copy.deepcopy if name == "traps" else copy.copy)(
        source[name]) for name in _STATE}


@dataclass(frozen=True)
class Snapshot:
    """A paused machine's state, for :meth:`Machine.restore`: the
    entries of :data:`_STATE`, with memory held as the
    :data:`PAGE_BYTES` pages that differ from the loaded image."""

    state: dict[str, Any]
    pages: tuple[tuple[int, bytes], ...]
    mem_size: int

    @property
    def executed(self) -> int:
        """Instructions retired when the snapshot was taken."""
        return self.state["_st"]["executed"]


def decoded_text(exe: Executable) -> list[Instr | None]:
    """The executable's text segment decoded, one entry per instruction
    slot (None where a slot holds constant-pool data, not an
    instruction).

    Decoding depends only on the immutable text bytes, so the list is
    computed once and kept on the executable; callers must not mutate
    it.  A run's ``exec_counts`` pair with it position by position.
    """
    decoded = getattr(exe, "_decoded_text", None)
    if decoded is None:
        isa = get_isa(exe.isa_name)
        width = isa.width_bytes
        decoded = []
        for idx in range(len(exe.text) // width):
            try:
                instr = isa.decode_bytes(exe.text, idx * width)
            except DecodingError:
                instr = None
            decoded.append(instr)
        exe._decoded_text = decoded
    return decoded


def _slot_meta(instr: Instr | None, params: PipelineParams,
               ) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int]:
    """One text slot's hazard metadata: the ready-vector indices it
    reads and writes, its math-unit occupancy (0 = not math), the
    cycles until its results are usable, and its writer kind (0 = alu,
    1 = load, 2 = math).  A slot holding no instruction has none."""
    if instr is None:
        return (), (), 0, 1, 0
    reads, writes = hazard_indices(instr)
    info = instr.info
    return (reads, writes, params.occupancy(info),
            params.result_latency(info),
            2 if info.kind == OpKind.MATH
            else 1 if info.kind == OpKind.LOAD else 0)


class Machine:
    """A loaded program plus architectural state, ready to run."""

    def __init__(self, exe: Executable, *, params: PipelineParams | None = None,
                 stdin: bytes = b"", mem_size: int = DEFAULT_MEM_SIZE,
                 trace_instructions: bool = False, trace_data: bool = False,
                 engine: str | None = None):
        if engine is None:
            engine = os.environ.get("REPRO_SIM_ENGINE", "blocks")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {ENGINES}")
        self.engine = engine
        self.exe = exe
        self.isa = get_isa(exe.isa_name)
        self.params = params or PipelineParams()
        self.mem = Memory(mem_size)
        self.mem.load_executable(exe)
        self.g = [0] * 32
        self.f = [0] * 32
        self.fpstat = [0]
        self.pc = exe.entry
        self.halted = False
        heap_base = (exe.data_base + len(exe.data) + 15) & ~15
        self.traps = TrapHandler(stdin=stdin, heap_base=heap_base,
                                 heap_limit=mem_size - 0x1_0000)
        self.itrace: array | None = array("I") if trace_instructions else None
        self.dtrace: array | None = array("I") if trace_data else None
        # Pipeline scoreboard and cumulative counters persist across
        # run() calls, so execution can pause (``stop_after``) and
        # resume — the fault injector perturbs state in between.
        self._ready = [0] * 65
        self._rkind = [0] * 65         # 0 = alu, 1 = load, 2 = math
        self._st = {"math_free": 0, "time": 0, "interlocks": 0,
                    "load_il": 0, "math_il": 0, "ifw": 0, "ifd": 0,
                    "cur_word": -1, "cur_dword": -1, "executed": 0}
        # Block code objects embed nothing machine-specific, so they
        # live on the executable, shared by every machine running the
        # same image under the same pipeline parameters and recording
        # the same traces (the dict-typed params object is fingerprinted
        # into a hashable key).  Slots this machine patches are tracked
        # so their blocks never use (or pollute) the shared cache.
        cache = getattr(exe, "_block_code_cache", None)
        if cache is None:
            cache = exe._block_code_cache = {}
        self._code_cache = cache
        self._params_key = (self.params.load_delay,
                            tuple(sorted(self.params.math_latency.items())))
        self._code_key = (self._params_key, self.itrace is not None,
                          self.dtrace is not None)
        self._patched: set[int] = set()
        #: Instructions retired inside compiled blocks, and block entries
        #: stepped because the scoreboard failed their entry test.
        self.block_instructions = 0
        self.block_fallbacks = 0
        self._decode_text()

    # -------------------------------------------------------- decoding

    def _decode_text(self) -> None:
        exe = self.exe
        decoded = decoded_text(exe)
        count = len(decoded)
        self.handlers: list = [None] * count
        self.counts = [0] * count
        # Block-engine state: lazily compiled blocks keyed by entry slot
        # (False marks an uncompilable entry), the live-block registry
        # for invalidation/count materialization, and the spill scratch
        # a block flushes its in-flight counters into before any
        # operation that can raise.
        self._blocks: list = [None] * count
        self._live: dict[int, object] = {}
        self._spill: list[int] = [0] * 11
        # Compiled blocks by entry pc, for the dispatcher to go from a
        # block straight to the next (blocks ending in TRAP stay out).
        self._chain: dict[int, CompiledBlock] = {}
        # The decoded text (:func:`decoded_text`) and the per-slot
        # hazard/latency tables, which depend only on (text, pipeline
        # params), are computed once and shared across machines via the
        # executable.  Each machine works on shallow copies: patch_text
        # rewrites the machine's own lists, never the shared originals.
        meta_cache = getattr(exe, "_slot_meta_cache", None)
        if meta_cache is None:
            meta_cache = exe._slot_meta_cache = {}
        meta = meta_cache.get(self._params_key)
        if meta is None:
            meta = ([], [], [], [], [])
            for instr in decoded:
                for column, value in zip(meta,
                                         _slot_meta(instr, self.params)):
                    column.append(value)
            meta_cache[self._params_key] = meta
        self.program: list[Instr | None] = list(decoded)
        self.reads_l = list(meta[0])
        self.writes_l = list(meta[1])
        self.mlat = list(meta[2])
        self.rlat = list(meta[3])
        self.wkind = list(meta[4])

    def _install(self, idx: int, instr: Instr | None) -> None:
        """(Re)build one pre-decoded slot's handler and hazard metadata.

        Any compiled block covering the slot is invalidated (its lazily
        held execution count is materialized first), so a patched slot
        can never execute stale fused code.
        """
        self._invalidate_blocks(idx)
        self.program[idx] = instr
        (self.reads_l[idx], self.writes_l[idx], self.mlat[idx],
         self.rlat[idx], self.wkind[idx]) = _slot_meta(instr, self.params)
        # Handler closures are built on first execution (handler_for):
        # most static slots never run, and hot slots end up fused into
        # compiled blocks that bypass the handler entirely.
        self.handlers[idx] = None

    # ------------------------------------------------ block bookkeeping

    def handler_for(self, idx: int):
        """The slot's handler closure, compiled on first use (or None
        for a non-instruction slot)."""
        handler = self.handlers[idx]
        if handler is None:
            instr = self.program[idx]
            if instr is not None:
                handler = self.handlers[idx] = self._compile(instr)
        return handler

    def _invalidate_blocks(self, idx: int) -> None:
        """Drop every compiled block covering slot ``idx``."""
        dead = [blk for blk in self._live.values()
                if blk.entry <= idx < blk.entry + blk.n]
        for blk in dead:
            self._fold(blk)
            self._blocks[blk.entry] = None
            del self._live[blk.entry]
            self._chain.pop(self._pc_of(blk.entry), None)
        # The slot's own entry marker may be stale either way (a False
        # "uncompilable" mark, or vice versa) once the slot is patched.
        self._blocks[idx] = None

    def _fold(self, blk) -> None:
        """Fold a block's lazily held execution count into ``counts``
        and ``block_instructions``."""
        if blk.count:
            counts = self.counts
            for slot in blk.idxs:
                counts[slot] += blk.count
            self.block_instructions += blk.count * blk.n
            blk.count = 0

    def _materialize_counts(self) -> None:
        """Fold lazily held per-block execution counts into ``counts``."""
        for blk in self._live.values():
            self._fold(blk)

    def _pc_of(self, idx: int) -> int:
        """The address of text slot ``idx``."""
        return self.exe.text_base + idx * self.isa.width_bytes

    def _compile_entry(self, idx: int):
        """Compile (or mark uncompilable) the block entered at ``idx``."""
        blk = compile_block(self, idx)
        if blk is None:
            self._blocks[idx] = False
            return False
        self._blocks[idx] = blk
        self._live[idx] = blk
        # A block that ends in TRAP may halt the machine, so no block
        # chains into it: the dispatcher's outer loop, which checks
        # ``halted``, enters it.
        if self.program[blk.idxs[-1]].op != Op.TRAP:
            self._chain[self._pc_of(idx)] = blk
        return blk

    def _recover_spill(self, blk, executed: int):
        """Rebuild exact per-instruction state after a mid-block raise.

        The compiled block's exception handler spilled the state as of
        the raising slot (and the slot's address) and wrote the
        scoreboard entries of the slots up to it; this folds the
        partially executed slots' counts in, cuts the instruction trace
        (which the block extended once its entry test passed) back to
        the retired slots, and returns the updated loop state for the
        dispatcher to persist.  The raising slot counts as retired, as
        it does when stepped.
        """
        spill = self._spill
        done = spill[0]
        counts = self.counts
        for slot in blk.idxs[:done]:
            counts[slot] += 1
        self.block_instructions += done
        itrace = self.itrace
        if itrace is not None:
            del itrace[len(itrace) - blk.n + done:]
        return (executed + done, spill[1], spill[2], spill[3], spill[4],
                spill[5], spill[6], spill[7], spill[8], spill[9],
                spill[10])

    # ------------------------------------------------- fault injection

    def index_of(self, pc: int) -> int:
        """Pre-decoded slot index for an address in the text segment."""
        shift = 1 if self.isa.width_bytes == 2 else 2
        idx = (pc - self.exe.text_base) >> shift
        if idx < 0 or idx >= len(self.program):
            raise MachineError(f"PC {pc:#x} outside text segment")
        return idx

    def patch_text(self, idx: int, raw: bytes) -> Instr | None:
        """Overwrite one text slot with ``raw`` bytes (fault injection).

        Rewrites the machine's *own* copies — the data-memory image and
        the pre-decoded handler tables — never the shared
        :class:`Executable`.  An undecodable word installs an empty slot,
        which raises :class:`MachineError` when execution reaches it
        (the machine "detects" the corrupt fetch).  Returns the decoded
        instruction, or None when the word no longer decodes.
        """
        width = self.isa.width_bytes
        if len(raw) != width:
            raise ValueError(f"expected {width} raw bytes, got {len(raw)}")
        addr = self.exe.text_base + idx * width
        self.mem.data[addr:addr + width] = raw
        try:
            instr = self.isa.decode_bytes(bytes(raw), 0)
        except DecodingError:
            instr = None
        self._patched.add(idx)
        self._install(idx, instr)
        return instr

    def snapshot(self) -> Snapshot:
        """This paused machine's state, for :meth:`restore`.

        Memory is compared with the loaded image page by page, so
        :meth:`run` keeps no record of its stores.  A machine with
        patched text has no snapshot: its decode differs from the
        image's.
        """
        if self._patched:
            raise ValueError("a machine with patched text has no snapshot")
        image = Memory(self.mem.size)
        image.load_executable(self.exe)
        data, loaded = self.mem.data, image.data
        pages = tuple(
            (addr, bytes(data[addr:addr + PAGE_BYTES]))
            for addr in range(0, len(data), PAGE_BYTES)
            if data[addr:addr + PAGE_BYTES] != loaded[addr:addr + PAGE_BYTES])
        return Snapshot(state=_copy_state(vars(self)), pages=pages,
                        mem_size=self.mem.size)

    @classmethod
    def restore(cls, exe: Executable, snapshot: Snapshot, *,
                params: PipelineParams | None = None) -> "Machine":
        """A new machine of ``exe`` in ``snapshot``'s state, untraced.

        ``params`` must be the snapshotted machine's.  Resuming the
        machine retires exactly what resuming the snapshotted one would.
        It shares only the executable's read-only decode, slot-metadata
        and block-code caches: handler closures and compiled blocks bind
        their own machine's registers and memory, so it builds its own
        on first use.  Nothing done to it reaches ``snapshot``, which a
        fault campaign restores once per site.
        """
        machine = cls(exe, params=params, mem_size=snapshot.mem_size)
        data = machine.mem.data
        for addr, page in snapshot.pages:
            data[addr:addr + len(page)] = page
        vars(machine).update(_copy_state(snapshot.state))
        return machine

    def _compile(self, instr: Instr):
        """Build the execution closure for one decoded instruction."""
        op = instr.op
        width = self.isa.width_bytes
        g, f = self.g, self.f
        mem = self.mem
        m = self
        rd, rs1, rs2, imm, cond = (instr.rd, instr.rs1, instr.rs2,
                                   instr.imm, instr.cond)
        zero_r0 = self.isa.name == "DLXe"

        handler = self._compile_inner(instr, width, g, f, mem, m,
                                      rd, rs1, rs2, imm, cond)
        if zero_r0 and rd == 0 and "rd" in instr.info.writes \
                and instr.info.reg_class.get("rd") == "g":
            inner = handler

            def zeroed(pc, _inner=inner):
                next_pc = _inner(pc)
                g[0] = 0
                return next_pc
            return zeroed
        return handler

    def _compile_inner(self, instr, width, g, f, mem, m,
                       rd, rs1, rs2, imm, cond):
        op = instr.op

        # ---- integer ALU -------------------------------------------------
        if op in _INT_ALU:
            fn = _INT_ALU[op]

            def alu(pc):
                g[rd] = fn(g[rs1], g[rs2])
                return pc + width
            return alu
        if op in _INT_ALU_IMM:
            fn = _INT_ALU[_INT_ALU_IMM[op]]
            uimm = imm & WORD_MASK

            def alui(pc):
                g[rd] = fn(g[rs1], uimm)
                return pc + width
            return alui
        if op == Op.NEG:
            def neg(pc):
                g[rd] = (-g[rs1]) & WORD_MASK
                return pc + width
            return neg
        if op == Op.INV:
            def inv(pc):
                g[rd] = g[rs1] ^ WORD_MASK
                return pc + width
            return inv
        if op == Op.MV:
            def mv(pc):
                g[rd] = g[rs1]
                return pc + width
            return mv
        if op == Op.MVI:
            value = imm & WORD_MASK

            def mvi(pc):
                g[rd] = value
                return pc + width
            return mvi
        if op == Op.MVHI:
            value = (imm << 16) & WORD_MASK

            def mvhi(pc):
                g[rd] = value
                return pc + width
            return mvhi
        if op == Op.CMP:
            fn = _INT_CMP[cond]

            def cmp_(pc):
                g[rd] = 1 if fn(g[rs1], g[rs2]) else 0
                return pc + width
            return cmp_
        if op == Op.CMPI:
            fn = _INT_CMP[cond]
            uimm = imm & WORD_MASK

            def cmpi(pc):
                g[rd] = 1 if fn(g[rs1], uimm) else 0
                return pc + width
            return cmpi
        if op == Op.MUL:
            def mul(pc):
                g[rd] = (to_s32(g[rs1]) * to_s32(g[rs2])) & WORD_MASK
                return pc + width
            return mul
        if op in (Op.DIV, Op.REM):
            want_rem = op == Op.REM

            def divrem(pc):
                a, b = to_s32(g[rs1]), to_s32(g[rs2])
                if b == 0:
                    raise MachineError(f"division by zero at pc={pc:#x}")
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                r = a - q * b
                g[rd] = (r if want_rem else q) & WORD_MASK
                return pc + width
            return divrem

        # ---- memory ------------------------------------------------------
        if op in (Op.LD, Op.LDH, Op.LDHU, Op.LDB, Op.LDBU):
            reader = {
                Op.LD: mem.read_word,
                Op.LDH: lambda a: mem.read_half(a, signed=True),
                Op.LDHU: mem.read_half,
                Op.LDB: lambda a: mem.read_byte(a, signed=True),
                Op.LDBU: mem.read_byte,
            }[op]

            def load(pc):
                addr = (g[rs1] + imm) & WORD_MASK
                value = reader(addr)
                if m.dtrace is not None:
                    m.dtrace.append(addr & ~3)
                g[rd] = value & WORD_MASK
                return pc + width
            return load
        if op == Op.LDC:
            def ldc(pc):
                addr = ldc_pool_addr(pc, imm)
                value = mem.read_word(addr)
                if m.dtrace is not None:
                    m.dtrace.append(addr)
                g[rd] = value
                return pc + width
            return ldc
        if op in (Op.ST, Op.STH, Op.STB):
            writer = {Op.ST: mem.write_word, Op.STH: mem.write_half,
                      Op.STB: mem.write_byte}[op]

            def store(pc):
                addr = (g[rs1] + imm) & WORD_MASK
                writer(addr, g[rs2])
                if m.dtrace is not None:
                    m.dtrace.append((addr & ~3) | 1)
                return pc + width
            return store

        # ---- control -----------------------------------------------------
        if op == Op.BR:
            def br(pc):
                return pc + imm
            return br
        if op == Op.BZ:
            def bz(pc):
                return pc + imm if g[rs1] == 0 else pc + width
            return bz
        if op == Op.BNZ:
            def bnz(pc):
                return pc + imm if g[rs1] != 0 else pc + width
            return bnz
        if op == Op.J:
            def jr(pc):
                return g[rs1]
            return jr
        if op == Op.JZ:
            def jz(pc):
                return g[rs1] if g[rs2] == 0 else pc + width
            return jz
        if op == Op.JNZ:
            def jnz(pc):
                return g[rs1] if g[rs2] != 0 else pc + width
            return jnz
        if op == Op.JL:
            def jl(pc):
                g[1] = pc + width
                return g[rs1]
            return jl
        if op == Op.JD:
            def jd(pc):
                return imm
            return jd
        if op == Op.JLD:
            def jld(pc):
                g[1] = pc + width
                return imm
            return jld

        # ---- floating point ----------------------------------------------
        if op in _FP3_SINGLE:
            fn = _FP3_SINGLE[op]

            def fp3s(pc):
                a = _f32_bits_to_float(f[rs1])
                b = _f32_bits_to_float(f[rs2])
                f[rd] = _float_to_f32_bits(fn(a, b))
                return pc + width
            return fp3s
        if op in _FP3_DOUBLE:
            fn = _FP3_DOUBLE[op]

            def fp3d(pc):
                a = _f64_bits_to_float(f[rs1], f[rs1 + 1])
                b = _f64_bits_to_float(f[rs2], f[rs2 + 1])
                lo, hi = _float_to_f64_bits(fn(a, b))
                f[rd], f[rd + 1] = lo, hi
                return pc + width
            return fp3d
        if op == Op.NEG_SF:
            def negs(pc):
                f[rd] = f[rs1] ^ 0x80000000
                return pc + width
            return negs
        if op == Op.NEG_DF:
            def negd(pc):
                f[rd] = f[rs1]
                f[rd + 1] = f[rs1 + 1] ^ 0x80000000
                return pc + width
            return negd
        if op == Op.CMP_SF:
            fn = _FLOAT_CMP[cond]
            fpstat = m.fpstat

            def cmps(pc):
                a = _f32_bits_to_float(f[rs1])
                b = _f32_bits_to_float(f[rs2])
                fpstat[0] = 1 if fn(a, b) else 0
                return pc + width
            return cmps
        if op == Op.CMP_DF:
            fn = _FLOAT_CMP[cond]
            fpstat = m.fpstat

            def cmpd(pc):
                a = _f64_bits_to_float(f[rs1], f[rs1 + 1])
                b = _f64_bits_to_float(f[rs2], f[rs2 + 1])
                fpstat[0] = 1 if fn(a, b) else 0
                return pc + width
            return cmpd
        if op == Op.SI2SF:
            def si2sf(pc):
                f[rd] = _float_to_f32_bits(float(to_s32(f[rs1])))
                return pc + width
            return si2sf
        if op == Op.SI2DF:
            def si2df(pc):
                lo, hi = _float_to_f64_bits(float(to_s32(f[rs1])))
                f[rd], f[rd + 1] = lo, hi
                return pc + width
            return si2df
        if op == Op.SF2SI:
            def sf2si(pc):
                f[rd] = _clamp_s32(_f32_bits_to_float(f[rs1]))
                return pc + width
            return sf2si
        if op == Op.DF2SI:
            def df2si(pc):
                f[rd] = _clamp_s32(_f64_bits_to_float(f[rs1], f[rs1 + 1]))
                return pc + width
            return df2si
        if op == Op.SF2DF:
            def sf2df(pc):
                lo, hi = _float_to_f64_bits(_f32_bits_to_float(f[rs1]))
                f[rd], f[rd + 1] = lo, hi
                return pc + width
            return sf2df
        if op == Op.DF2SF:
            def df2sf(pc):
                f[rd] = _float_to_f32_bits(
                    _f64_bits_to_float(f[rs1], f[rs1 + 1]))
                return pc + width
            return df2sf
        if op == Op.MV_SF:
            def mvsf(pc):
                f[rd] = f[rs1]
                return pc + width
            return mvsf
        if op == Op.MV_DF:
            def mvdf(pc):
                f[rd] = f[rs1]
                f[rd + 1] = f[rs1 + 1]
                return pc + width
            return mvdf
        if op == Op.MVIF:
            def mvif(pc):
                f[rd] = g[rs1]
                return pc + width
            return mvif
        if op == Op.MVFI:
            def mvfi(pc):
                g[rd] = f[rs1]
                return pc + width
            return mvfi

        # ---- special -----------------------------------------------------
        if op == Op.TRAP:
            traps = m.traps

            def trap(pc):
                result = traps.handle(imm, g[2], pc)
                if traps.exited:
                    m.halted = True
                elif result is not None:
                    g[2] = result
                return pc + width
            return trap
        if op == Op.RDSR:
            fpstat = m.fpstat

            def rdsr(pc):
                g[rd] = fpstat[0]
                return pc + width
            return rdsr
        if op == Op.NOP:
            def nop(pc):
                return pc + width
            return nop
        raise MachineError(f"no handler for {op.value}")  # pragma: no cover

    # -------------------------------------------------------- execution

    @property
    def instructions_executed(self) -> int:
        """Instructions retired so far (valid mid-run and after errors)."""
        return self._st["executed"]

    @property
    def cycle_time(self) -> int:
        """Issue-clock position so far (valid mid-run and after errors)."""
        return self._st["time"]

    def run(self, max_instructions: int = DEFAULT_FUEL, *,
            max_cycles: int | None = None,
            stop_after: int | None = None) -> RunStats:
        """Execute until the program exits; returns collected statistics.

        Watchdogs: ``max_instructions`` and ``max_cycles`` bound the
        *cumulative* execution and raise :class:`MachineTimeout` (with
        pc/cycle context) when exceeded; a control transfer to its own
        address is detected immediately as a no-progress loop.

        ``stop_after`` pauses execution once the cumulative retired
        instruction count reaches it, returning a snapshot of the
        statistics with the machine still live — calling :meth:`run`
        again resumes exactly where it stopped (the pipeline scoreboard
        persists).  This is the fault injector's hook.
        """
        base = self.exe.text_base
        shift = 1 if self.isa.width_bytes == 2 else 2
        handlers = self.handlers
        counts = self.counts
        reads_l = self.reads_l
        writes_l = self.writes_l
        mlat = self.mlat
        rlat = self.rlat
        wk = self.wkind
        limit = len(handlers)
        itrace = self.itrace

        st = self._st
        ready = self._ready
        wkind = self._rkind
        math_free = st["math_free"]
        time = st["time"]
        interlocks = st["interlocks"]
        load_il = st["load_il"]
        math_il = st["math_il"]
        ifw = st["ifw"]
        ifd = st["ifd"]
        cur_word = st["cur_word"]
        cur_dword = st["cur_dword"]
        executed = st["executed"]
        stop_at = executed + (1 << 62) if stop_after is None else stop_after
        cycle_limit = (1 << 62) if max_cycles is None else max_cycles
        # A block runs only if all of its slots retire before both the
        # pause point and the fuel limit.
        retire_limit = min(stop_at, max_instructions)
        pc = self.pc

        blocks = self._blocks
        chain = self._chain
        spill = self._spill
        spill[0] = -1
        width = self.isa.width_bytes
        wmask = width - 1
        CB = CompiledBlock
        code_cache = self._code_cache
        ckey = self._code_key
        # The block engine requires exact slot alignment (compiled
        # blocks bake the pc in); anything else -- and the last
        # instructions before a fuel/cycle/stop boundary -- falls
        # through to the per-instruction stepping path below, which is
        # byte-for-byte the seed interpreter.  Traced machines run
        # blocks too: each block records its own share of the traces.
        fast = self.engine == "blocks"
        # Block entries are only ever control-transfer targets (plus
        # the entry/resume pc): while stepping through a cold run, the
        # fall-through slots are this block's interior, not entries of
        # their own, so the dispatcher consults the block table only
        # after a transfer.  ``blocks[idx]`` holds None (never seen),
        # False (uncompilable), a warm-up counter, or the CompiledBlock.
        transfer = True
        # A block whose entry test fails is stepped; once its last
        # slot retires (``executed == resume``) the table is consulted
        # again, as after a compiled run of the block.
        resume = -1

        try:
            while not self.halted and executed < stop_at:
                idx = (pc - base) >> shift
                if idx < 0 or idx >= limit:
                    raise MachineError(f"PC {pc:#x} outside text segment")
                if fast and transfer and not (pc - base) & wmask:
                    blk = blocks[idx]
                    if blk.__class__ is not CB:
                        if blk is None:
                            # First touch: compile at once when another
                            # machine already generated this block's
                            # code, otherwise start the warm-up count.
                            blk = (HOT_THRESHOLD if (idx, ckey) in code_cache
                                   else 0)
                        if blk is not False:
                            if blk >= HOT_THRESHOLD:
                                blk = self._compile_entry(idx)
                            else:
                                blocks[idx] = blk + 1
                                blk = False
                    if blk is not False \
                            and executed + blk.n <= retire_limit \
                            and time + blk.cycles <= cycle_limit:
                        # Run blocks back to back.  Only a block in the
                        # chain map leads on (one ending in TRAP may
                        # halt), and a successor that would cross a
                        # limit goes back to the outer loop.
                        follow = chain.get if pc in chain else _ALONE
                        try:
                            while True:
                                out = blk.fn(time, math_free, interlocks,
                                             load_il, math_il, cur_word,
                                             cur_dword, ifw, ifd)
                                if out is None:
                                    self.block_fallbacks += 1
                                    resume = executed + blk.n
                                    break
                                (pc, time, math_free, interlocks, load_il,
                                 math_il, cur_word, cur_dword, ifw,
                                 ifd) = out
                                blk.count += 1
                                executed += blk.n
                                blk = follow(pc)
                                if blk is None \
                                        or executed + blk.n > retire_limit \
                                        or time + blk.cycles > cycle_limit:
                                    blk = None
                                    break
                        except NoProgress:
                            (executed, time, math_free, interlocks,
                             load_il, math_il, cur_word, cur_dword,
                             ifw, ifd, pc) = \
                                self._recover_spill(blk, executed)
                            raise MachineTimeout(
                                "no-progress loop (instruction branches "
                                "to itself)", pc, executed, time,
                                self.traps.last_trap) from None
                        except (MemoryError_, MachineError) as exc:
                            if spill[0] < 0:
                                raise
                            (executed, time, math_free, interlocks,
                             load_il, math_il, cur_word, cur_dword,
                             ifw, ifd, pc) = \
                                self._recover_spill(blk, executed)
                            raise MachineError(
                                f"at pc={pc:#x}: {exc}") from exc
                        except BaseException:
                            if spill[0] >= 0:
                                (executed, time, math_free, interlocks,
                                 load_il, math_il, cur_word, cur_dword,
                                 ifw, ifd, pc) = \
                                    self._recover_spill(blk, executed)
                            raise
                        if blk is None:
                            continue
                        # ``blk`` failed its entry test: step it.
                        idx = (pc - base) >> shift
                handler = handlers[idx]
                if handler is None:
                    handler = self.handler_for(idx)
                    if handler is None:
                        raise MachineError(
                            f"executed non-instruction at {pc:#x}")
                counts[idx] += 1
                executed += 1
                if executed > max_instructions:
                    raise MachineTimeout(
                        f"exceeded instruction limit {max_instructions}",
                        pc, executed, time, self.traps.last_trap)
                if itrace is not None:
                    itrace.append(pc)

                block = pc >> 2
                if block != cur_word:
                    ifw += 1
                    cur_word = block
                block >>= 1
                if block != cur_dword:
                    ifd += 1
                    cur_dword = block

                issue_at = time + 1
                need = issue_at
                for index in reads_l[idx]:
                    if ready[index] > need:
                        need = ready[index]
                latency = mlat[idx]
                math_blocked = False
                if latency and math_free > need:
                    need = math_free
                    math_blocked = True
                if need != issue_at:
                    stall = need - issue_at
                    interlocks += stall
                    if math_blocked or any(
                            ready[index] == need and wkind[index] == 2
                            for index in reads_l[idx]):
                        math_il += stall
                    else:
                        load_il += stall
                time = need
                if time > cycle_limit:
                    raise MachineTimeout(
                        f"exceeded cycle limit {max_cycles}",
                        pc, executed, time, self.traps.last_trap)
                if latency:
                    math_free = time + latency
                result_at = time + rlat[idx]
                kind = wk[idx]
                for index in writes_l[idx]:
                    ready[index] = result_at
                    wkind[index] = kind

                try:
                    new_pc = handler(pc)
                except (MemoryError_, MachineError) as exc:
                    raise MachineError(f"at pc={pc:#x}: {exc}") from exc
                if new_pc == pc:
                    # A control transfer to its own address can never
                    # terminate: no other instruction runs in between,
                    # so the machine state feeding it cannot change.
                    raise MachineTimeout(
                        "no-progress loop (instruction branches to "
                        "itself)", pc, executed, time,
                        self.traps.last_trap)
                transfer = new_pc != pc + width or executed == resume
                pc = new_pc
        finally:
            # Persist state even on errors, so watchdog handlers and the
            # fault classifier can read pc/executed/cycles afterwards.
            # Lazily held per-block execution counts are folded into the
            # per-slot vector so stats are exact on every exit path.
            self._materialize_counts()
            self.pc = pc
            st.update(math_free=math_free, time=time,
                      interlocks=interlocks, load_il=load_il,
                      math_il=math_il, ifw=ifw, ifd=ifd,
                      cur_word=cur_word, cur_dword=cur_dword,
                      executed=executed)
        return self._stats(executed, interlocks, load_il, math_il, ifw, ifd)

    def _stats(self, executed, interlocks, load_il, math_il, ifw, ifd):
        loads = stores = 0
        for instr, count in zip(self.program, self.counts):
            if instr is None or count == 0:
                continue
            kind = instr.info.kind
            if kind == OpKind.LOAD:
                loads += count
            elif kind == OpKind.STORE:
                stores += count
        return RunStats(
            instructions=executed, loads=loads, stores=stores,
            interlocks=interlocks, load_interlocks=load_il,
            math_interlocks=math_il, ifetch_words=ifw, ifetch_dwords=ifd,
            exit_code=self.traps.exit_code, output=self.traps.output_text,
            exec_counts=self.counts)


def run_executable(exe: Executable, *, stdin: bytes = b"",
                   params: PipelineParams | None = None,
                   trace_instructions: bool = False,
                   trace_data: bool = False,
                   max_instructions: int = DEFAULT_FUEL,
                   max_cycles: int | None = None,
                   engine: str | None = None,
                   checkpoints: list[Snapshot] | None = None,
                   ) -> tuple[RunStats, Machine]:
    """Load and run an executable; returns (stats, machine).

    With ``checkpoints``, the run pauses every :data:`CHECKPOINT_EVERY`
    retired instructions, up to :data:`MAX_CHECKPOINTS` times, and
    appends a :meth:`~Machine.snapshot` to the list at each pause before
    the program exits.  The statistics are those of an unpaused run.
    """
    machine = Machine(exe, params=params, stdin=stdin,
                      trace_instructions=trace_instructions,
                      trace_data=trace_data, engine=engine)
    while True:
        pause = (machine.instructions_executed + CHECKPOINT_EVERY
                 if checkpoints is not None
                 and len(checkpoints) < MAX_CHECKPOINTS else None)
        stats = machine.run(max_instructions=max_instructions,
                            max_cycles=max_cycles, stop_after=pause)
        if checkpoints is None or pause is None or machine.halted:
            return stats, machine
        checkpoints.append(machine.snapshot())
