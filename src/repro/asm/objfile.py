"""Object-file model: sections, symbols, relocations, executables.

An :class:`ObjectFile` is what the assembler emits for one translation
unit; the linker lays object files out in memory, resolves symbols, patches
relocations, and produces an :class:`Executable`.  The executable's
``binary_size`` (text + data bytes) is the paper's code-density metric
("the number of bytes in the stripped binary executable file, including
both text and data segments").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Reloc(enum.Enum):
    """Relocation kinds patched at link time."""

    WORD32 = "word32"    # 32-bit data/pool word := symbol address + addend
    HI16 = "hi16"        # DLXe mvhi: upper 16 bits, with %lo carry adjust
    LO16 = "lo16"        # DLXe I-type imm: lower 16 bits (signed view)
    ABS16 = "abs16"      # DLXe I-type imm := full address (must fit 16 bits)
    J26 = "j26"          # DLXe J-type: word-scaled absolute address


@dataclass(frozen=True)
class Relocation:
    section: str
    offset: int          # byte offset within the section
    kind: Reloc
    symbol: str
    addend: int = 0


@dataclass(frozen=True)
class Symbol:
    name: str
    section: str         # "text", "data", or "abs"
    value: int           # offset within section (or absolute value)
    is_global: bool = False


@dataclass
class Section:
    name: str
    data: bytearray = field(default_factory=bytearray)

    @property
    def size(self) -> int:
        return len(self.data)


class LinkError(Exception):
    """Symbol resolution or relocation failure."""


@dataclass
class ObjectFile:
    """Relocatable output of one assembly unit."""

    isa_name: str
    sections: dict[str, Section] = field(default_factory=dict)
    symbols: dict[str, Symbol] = field(default_factory=dict)
    relocations: list[Relocation] = field(default_factory=list)

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]


def text_labels(obj: ObjectFile, exe: Executable) -> dict[str, int]:
    """Absolute address of every text label of ``obj``, locals included.

    ``exe`` must be ``obj`` linked alone, so that text offsets translate
    directly to addresses.  The executable's own symbol table keeps
    only globals.
    """
    return {sym.name: exe.text_base + sym.value
            for sym in obj.symbols.values() if sym.section == "text"}


@dataclass
class Executable:
    """A linked, loadable program image."""

    isa_name: str
    text_base: int
    text: bytes
    data_base: int
    data: bytes
    entry: int
    symbols: dict[str, int]   # name -> absolute address
    #: Function starts: name -> absolute address of every non-dot text
    #: label, locals included (``symbols`` keeps only globals).
    functions: dict[str, int] = field(default_factory=dict)

    @property
    def text_size(self) -> int:
        return len(self.text)

    @property
    def binary_size(self) -> int:
        """Stripped-binary size: text + data bytes (the density metric)."""
        return len(self.text) + len(self.data)

    def segments(self) -> list[tuple[int, bytes]]:
        """(base, bytes) pairs to load into memory."""
        return [(self.text_base, self.text), (self.data_base, self.data)]

    def __getstate__(self):
        # The simulator parks its compiled-block code cache on the
        # executable (shared by every Machine running this image); code
        # objects don't pickle, so the cache stays behind when the exe
        # crosses a process boundary (fault campaigns, the lab cache).
        state = self.__dict__.copy()
        state.pop("_block_code_cache", None)
        state.pop("_decoded_text", None)
        state.pop("_slot_meta_cache", None)
        return state

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise LinkError(f"undefined symbol {name!r}") from None
