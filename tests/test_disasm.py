"""Disassembler."""

from repro.asm import assemble, disassemble, format_listing, link
from repro.isa import D16, DLXE


def build(src, isa):
    return link([assemble(src, isa)])


def test_basic_listing():
    exe = build(".global _start\n_start:\nmvi r2, 7\ntrap 0\n", D16)
    listing = disassemble(exe)
    assert listing[0][0] == exe.text_base
    assert "mvi r2, 7" in listing[0][1]
    assert "trap 0" in listing[1][1]


def test_labels_annotated():
    exe = build(".global _start\n.global f\n_start:\nnop\nf: nop\n", D16)
    text = format_listing(exe)
    assert "_start:" in text
    assert "f:" in text


def test_pool_data_shown_as_word():
    exe = build("""
        .global _start
        _start:
        ldc r2, pool
        trap 0
        .align 4
        pool: .word 0xFFFFFFFF
    """, D16)
    text = format_listing(exe)
    assert ".word" in text or "0x" in text


def test_dlxe_listing():
    exe = build("""
        .global _start
        _start:
        addi r3, r0, 100
        jld f
        trap 0
        f:
        j r1
    """, DLXE)
    text = format_listing(exe)
    assert "addi r3, r0, 100" in text
    assert "j r1" in text

def test_branch_target_annotation():
    exe = build("""
        .global _start
        .global loop
        _start:
        mvi r2, 3
        loop:
        subi r2, r2, 1
        bnz r0, loop
        trap 0
    """, D16)
    text = format_listing(exe)
    # the bnz line resolves its PC-relative target to the loop label
    assert "<loop>" in text


def test_call_target_annotation_dlxe():
    exe = build("""
        .global _start
        .global f
        _start:
        jld f
        trap 0
        f:
        j r1
    """, DLXE)
    text = format_listing(exe)
    assert "<f>" in text


def test_listing_includes_raw_words():
    exe = build(".global _start\n_start:\nmvi r2, 7\ntrap 0\n", D16)
    lines = format_listing(exe).splitlines()
    # columns: address, raw word (4 hex digits for D16), text
    for line in lines:
        addr, word, _rest = line.split(None, 2)
        assert int(addr, 16) >= exe.text_base
        assert len(word) == 4
        int(word, 16)


def test_check_roundtrip_reports_mismatch():
    from repro.asm import check_roundtrip
    from repro.isa import Instr, Op

    assert check_roundtrip(D16, Instr(op=Op.MVI, rd=2, imm=7)) is None
    assert check_roundtrip(DLXE, Instr(op=Op.BR, imm=-8)) is None
