"""Binary and assembly linter for D16/DLXe program images.

Two entry points:

* :func:`lint_assembly` range-checks every instruction statement of an
  assembly listing against the target ISA (``supports``), reporting
  each violation as an ENC001 finding instead of stopping at the first
  assembler error.
* :func:`lint_executable` walks a linked image via the shared
  control-flow recovery of :mod:`repro.analysis.cfg`: a static
  reachability sweep from the entry point and every function label
  classifies text words as code or (D16) literal-pool data, then the
  linter checks that every reachable word decodes (BIN002) and
  re-encodes byte-identically (BIN001), that static control-flow
  targets stay inside the text segment (BIN003) and never land in pool
  data (BIN004), and warns about decodable-but-unreached words
  (BIN005).  With a :class:`~repro.cc.target.TargetSpec` it
  additionally lints the calling convention: a callee-saved register
  written inside a function with no matching spill-store to the frame
  is CC001, and a function that makes calls without saving the link
  register is CC002.

The calling-convention check is evidence-based: a store of the
register to a stack-pointer- or assembler-temporary-based address
counts as a save, and an ``mvfi`` reading a floating-point register
counts as saving its pair.  This can miss a clobber (never invent one)
when a function stores the register for unrelated reasons.
"""

from __future__ import annotations

from ..asm.assembler import AsmError, Assembler
from collections.abc import Iterator

from ..cc.target import REG_LINK, TargetSpec
from ..isa import DecodingError, IsaSpec, OP_INFO, Op
from .cfg import BinaryCFG, CALL_OPS
from .findings import Finding, finding

_SAVE_BASES = (9, 15)     # assembler temporary (AT), stack pointer


def lint_assembly(source: str, isa: IsaSpec) -> list[Finding]:
    """Check every instruction of ``source`` against ``isa``'s limits."""
    out: list[Finding] = []
    asm = Assembler(isa)
    try:
        scanned = list(asm.scan(source))
    except AsmError as exc:
        return [finding("ENC001", f"{isa.name}:line {exc.line_no}",
                        str(exc))]
    for stmt, instr, error in scanned:
        loc = f"{isa.name}:line {stmt.line_no}"
        if error is not None:
            out.append(finding("ENC001", loc, str(error)))
            continue
        reason = isa.supports(instr)
        if reason is not None:
            out.append(finding("ENC001", loc, f"'{instr}': {reason}"))
    return out


def lint_executable(cfg: BinaryCFG, *,
                    target: TargetSpec | None) -> list[Finding]:
    """Lint a linked image; see the module docstring for the rules.

    ``cfg`` is the image's reachability sweep
    (:func:`repro.analysis.cfg.build_cfg`); the lint driver builds it
    from the object file's full label map, whose non-dot text symbols
    are function starts: reachability roots and calling-convention
    extents.  With a ``target`` the calling convention is linted too.
    """
    isa, base, end, width = cfg.isa, cfg.base, cfg.end, cfg.width
    describe = cfg.describe

    out: list[Finding] = []
    for pc in sorted(cfg.visited):
        word, instr = cfg.instr_at(pc)
        if isinstance(instr, DecodingError):
            out.append(finding(
                "BIN002", describe(pc),
                f"word {word:#0{2 + width * 2}x} is reachable but does "
                f"not decode: {instr}"))
            continue
        if isa.encode(instr) != word:
            out.append(finding(
                "BIN001", describe(pc),
                f"{word:#0{2 + width * 2}x} decodes to '{instr}' which "
                f"re-encodes to {isa.encode(instr):#x}"))

    for pc, addr in cfg.ldc_refs:
        if not base <= addr < end:
            _word, instr = cfg.instr_at(pc)
            out.append(finding(
                "BIN003", describe(pc),
                f"'{instr}' pool reference {addr:#x} is outside "
                f"the text segment"))
    for pc, tgt in cfg.branch_targets:
        _word, instr = cfg.instr_at(pc)
        if not base <= tgt < end:
            out.append(finding(
                "BIN003", describe(pc),
                f"'{instr}' targets {tgt:#x}, outside the text "
                f"segment [{base:#x}, {end:#x})"))
        elif tgt in cfg.pool:
            out.append(finding(
                "BIN004", describe(pc),
                f"'{instr}' targets {tgt:#x} ({describe(tgt)}), which "
                f"is literal-pool data"))
    for addr in sorted(cfg.visited & cfg.pool):
        out.append(finding(
            "BIN004", describe(addr),
            "literal-pool data is reachable as code"))

    out.extend(_unreachable_runs(cfg))
    if target is not None:
        out.extend(_lint_calling_convention(cfg, target))
    return out


def _unreachable_runs(cfg: BinaryCFG) -> Iterator[Finding]:
    """BIN005 warnings, merged into contiguous address runs.

    Only decodable words count: pool slack, alignment padding, and
    other non-code bytes do not decode on either ISA (guaranteed by
    the strict decoders), so flagging them would be noise.
    """
    run_start = None
    count = 0
    for pc in range(cfg.base, cfg.end, cfg.width):
        dead = pc not in cfg.visited and pc not in cfg.pool \
            and not isinstance(cfg.instr_at(pc)[1], DecodingError)
        if dead and run_start is None:
            run_start, count = pc, 1
        elif dead:
            count += 1
        elif run_start is not None:
            yield finding(
                "BIN005", cfg.describe(run_start),
                f"{count} decodable instruction(s) at "
                f"[{run_start:#x}, {run_start + count * cfg.width:#x}) "
                f"are unreachable from the entry point and every "
                f"function")
            run_start = None
    if run_start is not None:
        yield finding(
            "BIN005", cfg.describe(run_start),
            f"{count} decodable instruction(s) at "
            f"[{run_start:#x}, {cfg.end:#x}) are unreachable from the "
            f"entry point and every function")


def _lint_calling_convention(cfg: BinaryCFG,
                             target: TargetSpec) -> Iterator[Finding]:
    """CC001/CC002 over each function's visited instructions."""
    for start, name in cfg.funcs:
        _start, span_end = cfg.func_span(start)
        int_writes: dict[int, int] = {}     # reg -> first write address
        fp_writes: dict[int, int] = {}      # even pair -> first write
        saved: set[int] = set()
        saved_pairs: set[int] = set()
        link_saved = False
        calls: list[int] = []
        for pc in range(start, span_end, cfg.width):
            if pc not in cfg.visited:
                continue
            _word, instr = cfg.instr_at(pc)
            if isinstance(instr, DecodingError):
                continue
            info = OP_INFO[instr.op]
            if instr.op == Op.ST and instr.rs1 in _SAVE_BASES:
                saved.add(instr.rs2)
                if instr.rs2 == REG_LINK:
                    link_saved = True
            if instr.op == Op.MVFI:
                saved_pairs.add(instr.rs1 & ~1)
            if instr.op in CALL_OPS:
                calls.append(pc)
            for field in info.writes:
                reg = getattr(instr, field)
                if reg is None:
                    continue
                if info.reg_class.get(field) == "f":
                    pair = reg & ~1
                    if pair in target.callee_saved_fp_pairs:
                        fp_writes.setdefault(pair, pc)
                elif reg in target.callee_saved_int:
                    int_writes.setdefault(reg, pc)
        for reg, pc in sorted(int_writes.items()):
            if reg not in saved:
                yield finding(
                    "CC001", cfg.describe(pc),
                    f"callee-saved r{reg} written in {name} with no "
                    f"spill to the frame")
        for pair, pc in sorted(fp_writes.items()):
            if pair not in saved_pairs:
                yield finding(
                    "CC001", cfg.describe(pc),
                    f"callee-saved f{pair} pair written in {name} with "
                    f"no save to the frame")
        if calls and not link_saved and name != "_start":
            yield finding(
                "CC002", cfg.describe(calls[0]),
                f"{name} makes calls but never saves the link "
                f"register r{REG_LINK}")
