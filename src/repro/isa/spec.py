"""ISA descriptor objects tying an encoding module to its parameters."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from . import d16, dlxe
from .instruction import Instr


@dataclass(frozen=True)
class IsaSpec:
    """Everything the rest of the system needs to know about one encoding."""

    name: str
    width_bytes: int
    num_gregs: int
    num_fregs: int
    encode: Callable[[Instr], int]
    decode: Callable[[int], Instr]
    supports: Callable[[Instr], str | None]
    canonicalize: Callable[[Instr], Instr]
    branch_range: tuple[int, int]
    has_direct_jumps: bool
    #: struct format for one instruction word (little-endian)
    _pack: str = field(repr=False, default="<H")

    @property
    def width_bits(self) -> int:
        return self.width_bytes * 8

    def decode_bytes(self, data: bytes, offset: int = 0) -> Instr:
        """Decode one instruction from little-endian bytes at ``offset``."""
        (word,) = struct.unpack_from(self._pack, data, offset)
        return self.decode(word)


D16 = IsaSpec(
    name="D16",
    width_bytes=d16.WIDTH_BYTES,
    num_gregs=d16.NUM_GREGS,
    num_fregs=d16.NUM_FREGS,
    encode=d16.encode,
    decode=d16.decode,
    supports=d16.supports,
    canonicalize=lambda instr: instr,
    branch_range=d16.BR_RANGE,
    has_direct_jumps=False,
    _pack="<H",
)

DLXE = IsaSpec(
    name="DLXe",
    width_bytes=dlxe.WIDTH_BYTES,
    num_gregs=dlxe.NUM_GREGS,
    num_fregs=dlxe.NUM_FREGS,
    encode=dlxe.encode,
    decode=dlxe.decode,
    supports=dlxe.supports,
    canonicalize=dlxe.canonicalize,
    branch_range=dlxe.BR_RANGE,
    has_direct_jumps=True,
    _pack="<I",
)

ISAS = {"d16": D16, "dlxe": DLXE}


def get_isa(name: str) -> IsaSpec:
    """Look up an ISA by case-insensitive name."""
    try:
        return ISAS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown ISA {name!r}; "
                       f"expected one of {sorted(ISAS)}") from None
