"""Flat byte-addressed memory for the simulated machine.

Little-endian, with alignment checking: word accesses must be 4-aligned
and halfword accesses 2-aligned (misalignment almost always indicates a
code-generation bug, so it is an error rather than silently rotated).
"""

from __future__ import annotations

from ..asm.objfile import Executable


class MemoryError_(Exception):
    """Out-of-range or misaligned memory access."""


#: Default simulated memory size, shared with the static analyses (an
#: access provably outside [0, DEFAULT_MEM_SIZE) faults at run time).
DEFAULT_MEM_SIZE = 0x0010_0000


class Memory:
    """A fixed-size, zero-initialized byte-addressable memory."""

    def __init__(self, size: int = DEFAULT_MEM_SIZE):
        self.size = size
        self.data = bytearray(size)

    def load_executable(self, exe: Executable) -> None:
        """Copy an executable's segments into memory."""
        for base, segment in exe.segments():
            end = base + len(segment)
            if end > self.size:
                raise MemoryError_(
                    f"segment [{base:#x}, {end:#x}) exceeds memory size "
                    f"{self.size:#x}")
            self.data[base:end] = segment

    # ------------------------------------------------------------- reads

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise MemoryError_(f"access at {addr:#x} out of range")
        if addr % size:
            raise MemoryError_(f"misaligned {size}-byte access at {addr:#x}")

    # The bounds/alignment test is inlined into every accessor (rather
    # than calling _check) because these run once per simulated load or
    # store -- the call overhead is measurable across a benchmark
    # suite.  _check stays as the single source of the error messages.

    def read_word(self, addr: int) -> int:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def read_half(self, addr: int, signed: bool = False) -> int:
        if addr < 0 or addr + 2 > self.size or addr & 1:
            self._check(addr, 2)
        value = int.from_bytes(self.data[addr:addr + 2], "little")
        if signed and value & 0x8000:
            return value - 0x1_0000
        return value

    def read_byte(self, addr: int, signed: bool = False) -> int:
        if addr < 0 or addr >= self.size:
            self._check(addr, 1)
        value = self.data[addr]
        if signed and value & 0x80:
            return value - 0x100
        return value

    def read_bytes(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(f"access at {addr:#x} out of range")
        return bytes(self.data[addr:addr + length])

    # ------------------------------------------------------------ writes

    def write_word(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def write_half(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 2 > self.size or addr & 1:
            self._check(addr, 2)
        self.data[addr:addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def write_byte(self, addr: int, value: int) -> None:
        if addr < 0 or addr >= self.size:
            self._check(addr, 1)
        self.data[addr] = value & 0xFF
