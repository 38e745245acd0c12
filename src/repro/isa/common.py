"""Shared low-level helpers and constants for the D16 and DLXe ISAs.

Both instruction sets describe the same 32-bit, byte-addressed machine:
words are 4 bytes, halfwords 2 bytes, and all values are little-endian.
"""

from __future__ import annotations

WORD_BITS = 32


class IsaError(Exception):
    """Base class for ISA-level errors."""


class EncodingError(IsaError):
    """An instruction cannot be represented in the target encoding."""


class DecodingError(IsaError):
    """A bit pattern does not decode to a valid instruction."""


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as a two's-complement number."""
    mask = (1 << bits) - 1
    value &= mask
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def fits_signed(value: int, bits: int) -> bool:
    """True if ``value`` is representable as a ``bits``-bit signed field."""
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo <= value <= hi


def fits_unsigned(value: int, bits: int) -> bool:
    """True if ``value`` is representable as a ``bits``-bit unsigned field."""
    return 0 <= value < (1 << bits)


def to_s32(value: int) -> int:
    """Interpret a word as a signed 32-bit value."""
    return sign_extend(value, WORD_BITS)
