"""Unit tests for shared ISA helpers."""

from hypothesis import given, strategies as st

from repro.isa.common import (fits_signed, fits_unsigned, sign_extend,
                              to_s32)


class TestSignExtend:
    def test_positive_stays(self):
        assert sign_extend(0x7F, 8) == 127

    def test_negative_wraps(self):
        assert sign_extend(0xFF, 8) == -1
        assert sign_extend(0x80, 8) == -128

    def test_upper_bits_ignored(self):
        assert sign_extend(0xFFFF_FF01, 8) == 1

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_roundtrip_32(self, value):
        assert sign_extend(value & 0xFFFFFFFF, 32) == value

    @given(st.integers(min_value=2, max_value=32),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_range(self, bits, value):
        result = sign_extend(value, bits)
        assert -(1 << (bits - 1)) <= result < (1 << (bits - 1))


class TestFits:
    def test_signed_bounds(self):
        assert fits_signed(127, 8)
        assert fits_signed(-128, 8)
        assert not fits_signed(128, 8)
        assert not fits_signed(-129, 8)

    def test_unsigned_bounds(self):
        assert fits_unsigned(0, 5)
        assert fits_unsigned(31, 5)
        assert not fits_unsigned(32, 5)
        assert not fits_unsigned(-1, 5)


class TestWordConversions:
    def test_to_s32(self):
        assert to_s32(0xFFFFFFFF) == -1
        assert to_s32(0x7FFFFFFF) == 0x7FFFFFFF

    @given(st.integers())
    def test_u32_s32_consistent(self, value):
        word = value & 0xFFFFFFFF
        assert to_s32(word) & 0xFFFFFFFF == word
