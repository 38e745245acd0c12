"""Linker: layout, symbol resolution, relocation patching."""

import struct

import pytest

from repro.asm import LinkError, assemble, link
from repro.isa import D16, DLXE


def test_layout_text_then_data():
    obj = assemble(".global _start\n_start: nop\n.data\nx: .word 1\n", D16)
    exe = link([obj])
    assert exe.text_base == 0x1000
    assert exe.data_base >= exe.text_base + exe.text_size
    assert exe.data_base % 16 == 0


def test_builtin_symbols():
    obj = assemble(".global _start\n_start: nop\n", D16)
    exe = link([obj])
    assert exe.symbols["__gp"] == exe.data_base
    assert exe.symbols["__stack_top"] == 0x0010_0000
    assert exe.symbols["__data_start"] == exe.data_base


def test_entry_symbol_required():
    obj = assemble("main: nop\n", D16)
    with pytest.raises(LinkError, match="_start"):
        link([obj])


def test_word32_patch():
    obj = assemble("""
        .global _start
        _start: nop
        .data
        p: .word q
        q: .word 77
    """, D16)
    exe = link([obj])
    (value,) = struct.unpack_from("<I", exe.data, 0)
    assert value == exe.data_base + 4


def test_hi_lo_patch_with_carry():
    # Address with bit 15 set in the low half exercises the carry fixup.
    obj = assemble("""
        .global _start
        _start:
        mvhi r1, %hi(x)
        addi r1, r1, %lo(x)
        .data
        x: .word 1
    """, DLXE)
    exe = link([obj])
    address = exe.symbols["__data_start"]
    (mvhi_word,) = struct.unpack_from("<I", exe.text, 0)
    (addi_word,) = struct.unpack_from("<I", exe.text, 4)
    hi = mvhi_word & 0xFFFF
    lo = addi_word & 0xFFFF
    if lo >= 0x8000:
        lo -= 0x10000
    assert (hi << 16) + lo == address


def test_j26_patch():
    obj = assemble("""
        .global _start
        _start: jld f
        f: nop
    """, DLXE)
    exe = link([obj])
    (word,) = struct.unpack_from("<I", exe.text, 0)
    target = (word & 0x3FFFFFF) * 4
    assert target == exe.text_base + 4


def test_undefined_symbol():
    obj = assemble(".global _start\n_start: jld nowhere\n", DLXE)
    with pytest.raises(LinkError, match="undefined"):
        link([obj])


def test_duplicate_global():
    a = assemble(".global f\nf: nop\n", D16)
    b = assemble(".global f\n.global _start\n_start:\nf: nop\n", D16)
    with pytest.raises(LinkError, match="duplicate"):
        link([a, b])


def test_multi_object_link():
    a = assemble("""
        .global _start
        _start: jld helper
    """, DLXE)
    b = assemble("""
        .global helper
        helper: nop
    """, DLXE)
    exe = link([a, b])
    (word,) = struct.unpack_from("<I", exe.text, 0)
    assert (word & 0x3FFFFFF) * 4 == exe.symbols["helper"]


def test_function_table_holds_every_object_and_no_dot_labels():
    a = assemble("""
        .global _start
        _start: jld helper
        .Lhere: nop
        local_a: nop
    """, DLXE)
    b = assemble("""
        .global helper
        helper: nop
        .Lthere: nop
        local_b: nop
        .data
        table: .word 1
    """, DLXE)
    exe = link([a, b])
    b_base = exe.text_base + len(a.sections["text"].data)
    assert exe.functions == {
        "_start": exe.text_base, "local_a": exe.text_base + 8,
        "helper": b_base, "local_b": b_base + 8}
    assert exe.functions["helper"] == exe.symbols["helper"]


def test_binary_size_is_text_plus_data():
    obj = assemble("""
        .global _start
        _start: nop
        .data
        .space 100
    """, D16)
    exe = link([obj])
    assert exe.binary_size == exe.text_size + len(exe.data)
    assert len(exe.data) == 100
