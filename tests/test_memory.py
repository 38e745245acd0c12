"""Memory model: endianness, alignment, bounds."""

import pytest
from hypothesis import given, strategies as st

from repro.machine import Memory, MemoryError_


@pytest.fixture
def mem():
    return Memory(0x1000)


class TestWordAccess:
    def test_little_endian(self, mem):
        mem.write_word(0, 0x12345678)
        assert mem.data[0:4] == bytes([0x78, 0x56, 0x34, 0x12])
        assert mem.read_word(0) == 0x12345678

    def test_wraps_input(self, mem):
        mem.write_word(0, -1)
        assert mem.read_word(0) == 0xFFFFFFFF

    def test_misaligned_raises(self, mem):
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.read_word(2)
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.write_word(1, 0)

    def test_out_of_range(self, mem):
        with pytest.raises(MemoryError_):
            mem.read_word(0x1000)
        with pytest.raises(MemoryError_):
            mem.read_word(-4)


class TestSubword:
    def test_half_signed(self, mem):
        mem.write_half(0, 0x8000)
        assert mem.read_half(0) == 0x8000
        assert mem.read_half(0, signed=True) == -32768

    def test_byte_signed(self, mem):
        mem.write_byte(5, 0xFF)
        assert mem.read_byte(5) == 255
        assert mem.read_byte(5, signed=True) == -1

    def test_half_alignment(self, mem):
        with pytest.raises(MemoryError_):
            mem.read_half(1)

    @given(st.integers(0, 0xFFFF), st.integers(0, 0x7FE).map(lambda h: h * 2))
    def test_half_roundtrip(self, value, addr):
        mem = Memory(0x1000)
        mem.write_half(addr, value)
        assert mem.read_half(addr) == value


class TestLoader:
    def test_load_executable(self):
        from repro.asm import assemble, link
        from repro.isa import D16

        exe = link([assemble(".global _start\n_start: nop\n"
                             ".data\nv: .word 42\n", D16)])
        mem = Memory(0x20000)
        mem.load_executable(exe)
        assert mem.read_word(exe.data_base) == 42

    def test_segment_too_large(self):
        from repro.asm import assemble, link
        from repro.isa import D16

        exe = link([assemble(".global _start\n_start: nop\n"
                             ".data\n.space 0x400\n", D16)])
        mem = Memory(0x1100)
        with pytest.raises(MemoryError_, match="exceeds"):
            mem.load_executable(exe)
