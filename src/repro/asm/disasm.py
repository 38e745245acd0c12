"""Disassembler for linked executables (debugging aid).

Every decodable word renders as its assembly form; anything else (pool
constants, padding) falls back to ``.word``.  Control transfers and
PC-relative pool loads are annotated with their resolved absolute
target and, when the symbol table covers it, the nearest label — which
makes listings cross-referenceable with the binary linter's findings.
"""

from __future__ import annotations

from ..isa import DecodingError, Instr, IsaSpec, Op, get_isa
from ..isa.refs import ldc_pool_addr, transfer_target
from .objfile import Executable


def check_roundtrip(isa: IsaSpec, instr: Instr) -> str | None:
    """Encode -> decode -> re-encode; ``None`` if byte-identical.

    Returns a description of the first mismatch otherwise.  The binary
    linter's BIN001 rule and the encoding property tests are built on
    this invariant: for every encodable instruction the decoder must
    recover an instruction producing the same word.
    """
    word = isa.encode(instr)
    try:
        decoded = isa.decode(word)
    except DecodingError as exc:
        return f"'{instr}' encodes to {word:#x} which does not decode: {exc}"
    back = isa.encode(decoded)
    if back != word:
        return (f"'{instr}' -> {word:#x} -> '{decoded}' -> {back:#x}: "
                f"round-trip is not byte-identical")
    return None


def _target_of(instr: Instr, address: int) -> int | None:
    """Absolute address referenced by a control/pool instruction."""
    if instr.op == Op.LDC:
        return ldc_pool_addr(address, instr.imm)
    return transfer_target(address, instr)


def disassemble(exe: Executable, *,
                count: int | None = None) -> list[tuple[int, str]]:
    """Disassemble the text segment (its first ``count`` slots, or all
    of it); returns (address, text) pairs."""
    isa = get_isa(exe.isa_name)
    rev_symbols: dict[int, str] = {}
    for name, addr in sorted(exe.symbols.items()):
        rev_symbols.setdefault(addr, name)
    out: list[tuple[int, str]] = []
    address = exe.text_base
    end = exe.text_base + len(exe.text)
    emitted = 0
    while address < end:
        if count is not None and emitted >= count:
            break
        offset = address - exe.text_base
        try:
            instr = isa.decode_bytes(exe.text, offset)
            text = str(instr)
            target = _target_of(instr, address)
            if target is not None:
                name = rev_symbols.get(target)
                text += f"\t; {target:#x}" + (f" <{name}>" if name else "")
        except DecodingError:
            word = int.from_bytes(
                exe.text[offset:offset + isa.width_bytes], "little")
            text = f".word {word:#x}"
        label = rev_symbols.get(address)
        if label is not None:
            text = f"{label}: {text}"
        out.append((address, text))
        address += isa.width_bytes
        emitted += 1
    return out


def format_listing(exe: Executable, *, count: int | None = None) -> str:
    """Human-readable disassembly listing with raw instruction words."""
    isa = get_isa(exe.isa_name)
    lines = []
    for addr, text in disassemble(exe, count=count):
        offset = addr - exe.text_base
        word = int.from_bytes(exe.text[offset:offset + isa.width_bytes],
                              "little")
        lines.append(f"{addr:#010x}  {word:0{isa.width_bytes * 2}x}  {text}")
    return "\n".join(lines)
