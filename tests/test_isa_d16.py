"""D16 encoding: format fields, constraints, round-trips."""

import pytest
from hypothesis import given, settings

from repro.isa import D16, EncodingError, DecodingError, Instr, Op
from repro.isa.operations import Cond
from repro.isa import d16

from .strategies import d16_instructions


class TestFormats:
    def test_width(self):
        assert D16.width_bytes == 2
        assert D16.width_bits == 16

    def test_ld_fields(self):
        word = D16.encode(Instr(Op.LD, rd=3, rs1=15, imm=8))
        assert word >> 15 == 1                      # MEM format
        assert word & 0xF == 3                      # rx = data
        assert (word >> 4) & 0xF == 15              # ry = base
        assert (word >> 8) & 0x1F == 2              # word-scaled offset

    def test_mvi_format(self):
        word = D16.encode(Instr(Op.MVI, rd=7, imm=-1))
        assert word >> 13 == 0b001
        assert word & 0xF == 7

    def test_branch_scaling(self):
        word = D16.encode(Instr(Op.BR, imm=-2))
        decoded = D16.decode(word)
        assert decoded.imm == -2

    def test_ldc_alignment(self):
        word = D16.encode(Instr(Op.LDC, rd=2, imm=-64))
        decoded = D16.decode(word)
        assert decoded.imm == -64

    def test_rr_two_address(self):
        instr = Instr(Op.ADD, rd=4, rs1=4, rs2=9)
        decoded = D16.decode(D16.encode(instr))
        assert decoded == instr


class TestConstraints:
    def test_three_address_rejected(self):
        with pytest.raises(EncodingError, match="two-address"):
            D16.encode(Instr(Op.ADD, rd=1, rs1=2, rs2=3))

    def test_imm_too_wide(self):
        with pytest.raises(EncodingError, match="5 bits"):
            D16.encode(Instr(Op.ADDI, rd=1, rs1=1, imm=32))

    def test_mvi_range(self):
        assert D16.supports(Instr(Op.MVI, rd=0, imm=255)) is None
        assert D16.supports(Instr(Op.MVI, rd=0, imm=-256)) is None
        assert D16.supports(Instr(Op.MVI, rd=0, imm=256)) is not None

    def test_mem_offset_range(self):
        assert D16.supports(Instr(Op.LD, rd=0, rs1=1, imm=124)) is None
        assert D16.supports(Instr(Op.LD, rd=0, rs1=1, imm=128)) is not None
        assert D16.supports(Instr(Op.LD, rd=0, rs1=1, imm=2)) is not None

    def test_subword_not_offsettable(self):
        assert D16.supports(Instr(Op.LDB, rd=0, rs1=1, imm=0)) is None
        assert D16.supports(Instr(Op.LDB, rd=0, rs1=1, imm=1)) is not None

    def test_compare_destination_is_r0(self):
        bad = Instr(Op.CMP, cond=Cond.LT, rd=3, rs1=1, rs2=2)
        assert D16.supports(bad) is not None
        good = Instr(Op.CMP, cond=Cond.LT, rd=0, rs1=1, rs2=2)
        assert D16.supports(good) is None

    def test_gt_conditions_unsupported(self):
        bad = Instr(Op.CMP, cond=Cond.GT, rd=0, rs1=1, rs2=2)
        assert "gt" in D16.supports(bad)

    def test_branch_tests_r0(self):
        assert D16.supports(Instr(Op.BZ, rs1=1, imm=4)) is not None
        assert D16.supports(Instr(Op.BZ, rs1=0, imm=4)) is None

    def test_branch_range(self):
        assert D16.supports(Instr(Op.BR, imm=1022)) is None
        assert D16.supports(Instr(Op.BR, imm=1024)) is not None
        assert D16.supports(Instr(Op.BR, imm=-1024)) is None
        assert D16.supports(Instr(Op.BR, imm=-1026)) is not None

    def test_no_direct_jumps(self):
        assert D16.supports(Instr(Op.JD, imm=64)) is not None
        assert D16.supports(Instr(Op.JLD, imm=64)) is not None

    def test_no_wide_immediate_ops(self):
        for op in (Op.ANDI, Op.ORI, Op.XORI, Op.MVHI, Op.CMPI):
            instr = Instr(op, rd=1, rs1=1, imm=1) if op != Op.MVHI \
                else Instr(op, rd=1, imm=1)
            if op == Op.CMPI:
                instr = Instr(op, cond=Cond.EQ, rd=1, rs1=1, imm=1)
            assert D16.supports(instr) is not None

    def test_register_out_of_range(self):
        assert D16.supports(Instr(Op.MV, rd=16, rs1=0)) is not None


class TestDecoding:
    def test_reserved_pattern_raises(self):
        with pytest.raises(DecodingError):
            D16.decode(0x0001)       # below LDC prefix: reserved

    def test_17_bit_word_rejected(self):
        with pytest.raises(DecodingError):
            D16.decode(0x10000)

    def test_rr_opcode_space_is_full(self):
        # All 64 RR opcodes are assigned (62+ ops incl. cond variants).
        assert len(d16._RR_OPS) == 64


@settings(max_examples=400)
@given(d16_instructions())
def test_roundtrip(instr):
    """encode/decode is the identity on valid instructions."""
    word = D16.encode(instr)
    assert 0 <= word <= 0xFFFF
    assert D16.decode(word) == instr


@settings(max_examples=200)
@given(d16_instructions())
def test_bytes_roundtrip(instr):
    data = D16.encode(instr).to_bytes(2, "little")
    assert len(data) == 2
    assert D16.decode_bytes(data) == instr
