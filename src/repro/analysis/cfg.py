"""Control-flow graph recovery over linked binary images.

:func:`build_cfg` performs the static reachability sweep that
``binlint`` pioneered — a depth-first walk from the entry point and
every function label, classifying text words as code or (D16)
literal-pool data — and additionally partitions the reachable
instructions into single-entry basic blocks with explicit successor
edges.  The resulting :class:`BinaryCFG` is the shared substrate of
every binary-level analysis:

* the binary linter (``BIN00x`` reachability and round-trip rules),
* the abstract interpreter (:mod:`repro.analysis.absint`), and
* the static cycle-bound estimator (:mod:`repro.analysis.timing`).

Successor edges cover *static* control flow only.  Register-indirect
jumps (``j``/``jz``/``jnz``/``jl``) have unknown targets at this level;
their blocks are marked with :attr:`BasicBlock.indirect` and the value
analysis refines them (in this toolchain's output they are returns,
pool-loaded calls, or jump-table-free tail positions, so every indirect
target is a function label and therefore already a reachability root).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..asm.objfile import Executable
from ..isa import DecodingError, Instr, IsaSpec, Op, OpKind
from ..isa.refs import ldc_pool_addr, transfer_target

#: Calls (direct and register-indirect).
CALL_OPS = (Op.JL, Op.JLD)
#: Ops after which execution cannot fall through.
NO_FALLTHROUGH = (Op.BR, Op.J, Op.JD)


def is_halt(instr: Instr) -> bool:
    """Trap 0 halts the machine: it terminates a block with no successor."""
    return instr.op == Op.TRAP and instr.imm == 0


@dataclass
class BasicBlock:
    """A maximal single-entry run of reachable instructions."""

    start: int
    instrs: list[tuple[int, Instr]]          # (address, instruction)
    succs: tuple[int, ...] = ()              # successor block start addrs
    indirect: bool = False                   # ends in a register jump
    is_call: bool = False                    # ends in jl / jld
    is_return: bool = False                  # ends in ``j r1``
    is_halt: bool = False                    # ends in trap 0

    _end: int = 0

    @property
    def end(self) -> int:
        """First address past the block."""
        return self._end

    @property
    def terminator(self) -> tuple[int, Instr]:
        return self.instrs[-1]


@dataclass
class BinaryCFG:
    """The recovered control-flow structure of one linked image."""

    exe: Executable
    isa: IsaSpec
    base: int
    end: int
    width: int
    blocks: dict[int, BasicBlock]            # start address -> block
    funcs: list[tuple[int, str]]             # sorted (address, name)
    visited: set[int]                        # reachable code addresses
    pool: set[int]                           # literal-pool byte addresses
    branch_targets: list[tuple[int, int]]    # (branch addr, target addr)
    ldc_refs: list[tuple[int, int]]          # (ldc addr, pool word addr)
    decoded: dict[int, tuple[int, object]] = field(repr=False,
                                                   default_factory=dict)

    # ------------------------------------------------------------ lookups

    def instr_at(self, addr: int) -> tuple[int, object]:
        """(word, Instr-or-DecodingError) for the text word at ``addr``."""
        if addr in self.decoded:
            return self.decoded[addr]
        word = int.from_bytes(
            self.exe.text[addr - self.base:addr - self.base + self.width],
            "little")
        try:
            result = (word, self.isa.decode(word))
        except DecodingError as exc:
            result = (word, exc)
        self.decoded[addr] = result
        return result

    def read_word(self, addr: int) -> int | None:
        """A 32-bit little-endian text word (e.g. a D16 pool constant)."""
        offset = addr - self.base
        if offset < 0 or offset + 4 > len(self.exe.text):
            return None
        return int.from_bytes(self.exe.text[offset:offset + 4], "little")

    def func_of(self, addr: int) -> tuple[int, str] | None:
        """The (start, name) of the function containing ``addr``."""
        index = bisect_right(self._func_addrs, addr) - 1
        return self.funcs[index] if index >= 0 else None

    def func_span(self, fstart: int) -> tuple[int, int]:
        """[start, end) address range of the function at ``fstart``."""
        index = self._func_addrs.index(fstart)
        span_end = (self.funcs[index + 1][0]
                    if index + 1 < len(self.funcs) else self.end)
        return fstart, span_end

    def function_blocks(self, fstart: int) -> list[BasicBlock]:
        """The blocks lying inside one function's address span."""
        start, span_end = self.func_span(fstart)
        return [block for addr, block in sorted(self.blocks.items())
                if start <= addr < span_end]

    def describe(self, addr: int) -> str:
        """address -> ``text:0xADDR (name+off)`` for findings."""
        index = bisect_right(self._mark_addrs, addr) - 1
        if index < 0:
            return f"text:{addr:#x}"
        mark_addr, name = self._marks[index]
        offset = addr - mark_addr
        suffix = f"+{offset:#x}" if offset else ""
        return f"text:{addr:#x} ({name}{suffix})"

    # ---------------------------------------------------------- internals

    def _index_symbols(self, symbols: dict[str, int]) -> None:
        self._func_addrs = [addr for addr, _name in self.funcs]
        self._marks = sorted(
            (addr, name) for name, addr in symbols.items()
            if self.base <= addr <= self.end)
        self._mark_addrs = [addr for addr, _name in self._marks]


def build_cfg(exe: Executable, isa: IsaSpec, *,
              symbols: dict[str, int] | None = None,
              extra_funcs: dict[int, str] | None = None) -> BinaryCFG:
    """Recover the reachable control-flow graph of a linked image.

    ``symbols`` maps label names to absolute text addresses (the
    executable's own table only retains globals; the lint driver passes
    the full label map from the object file).  Non-dot text symbols are
    treated as function starts: reachability roots, block leaders, and
    calling-convention extents.

    ``extra_funcs`` (address -> synthesized name) adds function starts
    beyond the symbol table — the abstract interpreter feeds resolved
    register-indirect call targets back through it
    (:func:`repro.analysis.absint.resolve_cfg`) so stripped images
    still recover full coverage.
    """
    symbols = dict(symbols if symbols is not None else exe.symbols)
    base, text = exe.text_base, bytes(exe.text)
    end = base + len(text)
    width = isa.width_bytes
    func_map = {addr: name for name, addr in sorted(symbols.items())
                if not name.startswith(".") and base <= addr < end}
    for addr, name in (extra_funcs or {}).items():
        if base <= addr < end:
            func_map.setdefault(addr, name)
            symbols.setdefault(name, addr)
    funcs = sorted((addr, name) for addr, name in func_map.items())

    cfg = BinaryCFG(exe=exe, isa=isa, base=base, end=end, width=width,
                    blocks={}, funcs=funcs, visited=set(), pool=set(),
                    branch_targets=[], ldc_refs=[])
    cfg._index_symbols(symbols)

    # --- reachability sweep (identical rules to the original binlint
    # walk: follow static targets, treat trap 0 and the no-fallthrough
    # ops as block-enders, collect D16 literal-pool words).
    visited, pool = cfg.visited, cfg.pool
    leaders: set[int] = {exe.entry} | {addr for addr, _name in funcs}
    stack = [exe.entry] + [addr for addr, _name in funcs]
    while stack:
        pc = stack.pop()
        if pc in visited or not base <= pc < end:
            continue
        visited.add(pc)
        _word, instr = cfg.instr_at(pc)
        if isinstance(instr, DecodingError):
            continue
        op = instr.op
        if op == Op.LDC:
            addr = ldc_pool_addr(pc, instr.imm)
            cfg.ldc_refs.append((pc, addr))
            if base <= addr < end:
                pool.update(range(addr, addr + 4))
        tgt = transfer_target(pc, instr)
        if tgt is not None:
            cfg.branch_targets.append((pc, tgt))
            if base <= tgt < end:
                leaders.add(tgt)
                stack.append(tgt)
        if is_halt(instr):
            continue
        if op not in NO_FALLTHROUGH:
            if instr.info.kind in (OpKind.BRANCH, OpKind.JUMP):
                leaders.add(pc + width)      # fall-through edge of a CTI
            stack.append(pc + width)

    # --- block partition: walk each leader forward until the next
    # control transfer, the next leader, or the edge of reachability.
    for leader in sorted(leaders):
        if leader not in visited:
            continue
        _word, first = cfg.instr_at(leader)
        if isinstance(first, DecodingError):
            continue
        instrs: list[tuple[int, Instr]] = []
        pc = leader
        while True:
            _word, instr = cfg.instr_at(pc)
            if isinstance(instr, DecodingError):
                break
            instrs.append((pc, instr))
            ends_block = (instr.info.kind in (OpKind.BRANCH, OpKind.JUMP)
                          or is_halt(instr))
            pc += width
            if ends_block or pc in leaders or pc not in visited:
                break
        if not instrs:
            continue
        block = BasicBlock(start=leader, instrs=instrs)
        block._end = pc
        _finish_block(cfg, block)
        cfg.blocks[leader] = block
    return cfg


def _finish_block(cfg: BinaryCFG, block: BasicBlock) -> None:
    """Classify the terminator and attach static successor edges."""
    last_pc, last = block.terminator
    op = last.op
    fall = last_pc + cfg.width
    succs: list[int] = []
    if is_halt(last):
        block.is_halt = True
    elif op in (Op.BR, Op.JD):
        tgt = transfer_target(last_pc, last)
        if cfg.base <= tgt < cfg.end:
            succs.append(tgt)
    elif op in (Op.BZ, Op.BNZ):
        succs.append(fall)
        tgt = transfer_target(last_pc, last)
        if cfg.base <= tgt < cfg.end:
            succs.append(tgt)
    elif op in CALL_OPS:
        # A call returns to its fall-through site; the callee is a
        # separate root, so the edge stays intra-procedural.
        block.is_call = True
        if fall in cfg.blocks or fall in cfg.visited:
            succs.append(fall)
    elif op == Op.J:
        block.indirect = True
        block.is_return = last.rs1 == 1      # ``j r1``: the return idiom
    elif op in (Op.JZ, Op.JNZ):
        block.indirect = True
        succs.append(fall)
    elif fall in cfg.visited:
        succs.append(fall)                   # plain fall-through
    block.succs = tuple(succs)
