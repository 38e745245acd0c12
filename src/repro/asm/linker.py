"""Linker: lay out object files, resolve symbols, patch relocations.

Memory map of a linked executable::

    TEXT_BASE (0x1000):               all text sections, in object order
    data_base (text end, 16-aligned): all data sections, in object order
    __gp   = data_base            (global pointer for gp-relative access)
    __stack_top = STACK_TOP       (initial stack pointer)

The linker defines ``__gp``, ``__data_start``, ``__data_end`` and
``__stack_top``; the entry point is the global symbol ``_start``.
Every non-dot text label, local or global, is recorded as a function
start in :attr:`Executable.functions`.
"""

from __future__ import annotations

import struct

from .objfile import Executable, LinkError, ObjectFile, Reloc

TEXT_BASE = 0x1000
STACK_TOP = 0x0010_0000          # 1 MiB; grows down
DATA_ALIGN = 16
ENTRY_SYMBOL = "_start"


def link(objects: list[ObjectFile]) -> Executable:
    """Link ``objects`` into an executable image at :data:`TEXT_BASE`."""
    if not objects:
        raise LinkError("nothing to link")
    isa_name = objects[0].isa_name
    if any(o.isa_name != isa_name for o in objects):
        raise LinkError("cannot mix ISAs in one link")

    # Concatenate sections, remembering each object's placement.
    text = bytearray()
    data = bytearray()
    placements: list[dict[str, int]] = []
    for obj in objects:
        place = {}
        for name, buf in (("text", text), ("data", data)):
            section = obj.sections.get(name)
            pad = (-len(buf)) % 4
            buf.extend(b"\0" * pad)
            place[name] = len(buf)
            if section is not None:
                buf.extend(section.data)
        placements.append(place)

    data_base = TEXT_BASE + len(text)
    data_base += (-data_base) % DATA_ALIGN

    # Global symbol table.
    bases = {"text": TEXT_BASE, "data": data_base}
    symbols: dict[str, int] = {
        "__gp": data_base,
        "__data_start": data_base,
        "__data_end": data_base + len(data),
        "__stack_top": STACK_TOP,
    }
    # Function starts: every non-dot label inside the text segment, the
    # rule CFG recovery uses; a local name defined by two objects keeps
    # its first address.
    text_end = TEXT_BASE + len(text)
    functions: dict[str, int] = {}
    local_tables: list[dict[str, int]] = []
    for obj, place in zip(objects, placements):
        table = {}
        for sym in obj.symbols.values():
            if sym.section == "abs":
                address = sym.value
            else:
                address = bases[sym.section] + place[sym.section] + sym.value
            table[sym.name] = address
            if sym.section == "text" and not sym.name.startswith(".") \
                    and address < text_end:
                functions.setdefault(sym.name, address)
            if sym.is_global:
                if sym.name in symbols and symbols[sym.name] != address:
                    raise LinkError(f"duplicate global symbol {sym.name!r}")
                symbols[sym.name] = address
        local_tables.append(table)

    # Patch relocations.
    buffers = {"text": text, "data": data}
    for obj, place, table in zip(objects, placements, local_tables):
        for reloc in obj.relocations:
            value = table.get(reloc.symbol, symbols.get(reloc.symbol))
            if value is None:
                raise LinkError(f"undefined symbol {reloc.symbol!r}")
            value += reloc.addend
            buf = buffers[reloc.section]
            at = place[reloc.section] + reloc.offset
            _patch(buf, at, reloc.kind, value, reloc.symbol)

    entry = None
    for table in local_tables:
        if ENTRY_SYMBOL in table:
            entry = table[ENTRY_SYMBOL]
            break
    if entry is None:
        raise LinkError(f"no entry symbol {ENTRY_SYMBOL!r}")

    return Executable(isa_name=isa_name, text_base=TEXT_BASE,
                      text=bytes(text), data_base=data_base,
                      data=bytes(data), entry=entry, symbols=symbols,
                      functions=functions)


def _patch(buf: bytearray, at: int, kind: Reloc, value: int,
           symbol: str) -> None:
    if kind == Reloc.WORD32:
        struct.pack_into("<I", buf, at, value & 0xFFFFFFFF)
        return

    (word,) = struct.unpack_from("<I", buf, at)
    if kind == Reloc.HI16:
        lo = value & 0xFFFF
        hi = (value >> 16) + (1 if lo >= 0x8000 else 0)
        word = (word & 0xFFFF0000) | (hi & 0xFFFF)
    elif kind == Reloc.LO16:
        word = (word & 0xFFFF0000) | (value & 0xFFFF)
    elif kind == Reloc.ABS16:
        if not 0 <= value <= 0x7FFF:
            raise LinkError(
                f"%abs16({symbol}) = {value:#x} does not fit in a signed "
                "16-bit immediate")
        word = (word & 0xFFFF0000) | value
    elif kind == Reloc.J26:
        if value % 4:
            raise LinkError(f"jump target {symbol} not word-aligned")
        if value // 4 >= 1 << 26:
            raise LinkError(f"jump target {symbol} out of J-type range")
        word = (word & 0xFC000000) | (value // 4)
    else:  # pragma: no cover - exhaustive over Reloc
        raise LinkError(f"unhandled relocation kind {kind}")
    struct.pack_into("<I", buf, at, word)
