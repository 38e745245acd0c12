"""DLXe encoding: formats, canonicalization, round-trips."""

import pytest
from hypothesis import given, settings

from repro.isa import DLXE, DecodingError, Instr, Op
from repro.isa.operations import Cond
from repro.isa import dlxe

from .strategies import dlxe_instructions


class TestFormats:
    def test_width(self):
        assert DLXE.width_bytes == 4

    def test_i_type_fields(self):
        word = DLXE.encode(Instr(Op.LD, rd=7, rs1=29, imm=-4))
        assert (word >> 21) & 0x1F == 29
        assert (word >> 16) & 0x1F == 7
        assert word & 0xFFFF == 0xFFFC

    def test_r_type_major_zero(self):
        word = DLXE.encode(Instr(Op.ADD, rd=1, rs1=2, rs2=3))
        assert word >> 26 == 0

    def test_j_type_br(self):
        word = DLXE.encode(Instr(Op.BR, imm=-8))
        decoded = DLXE.decode(word)
        assert decoded.imm == -8

    def test_three_address(self):
        instr = Instr(Op.SUB, rd=10, rs1=20, rs2=30)
        assert DLXE.decode(DLXE.encode(instr)) == instr


class TestCanonicalization:
    def test_mv_becomes_add_r0(self):
        instr = dlxe.canonicalize(Instr(Op.MV, rd=5, rs1=9))
        assert instr == Instr(Op.ADD, rd=5, rs1=9, rs2=0)

    def test_mvi_becomes_addi(self):
        instr = dlxe.canonicalize(Instr(Op.MVI, rd=5, imm=42))
        assert instr == Instr(Op.ADDI, rd=5, rs1=0, imm=42)

    def test_neg_becomes_sub(self):
        instr = dlxe.canonicalize(Instr(Op.NEG, rd=5, rs1=9))
        assert instr == Instr(Op.SUB, rd=5, rs1=0, rs2=9)

    def test_inv_becomes_xori_minus1(self):
        instr = dlxe.canonicalize(Instr(Op.INV, rd=5, rs1=9))
        assert instr == Instr(Op.XORI, rd=5, rs1=9, imm=-1)

    def test_encode_applies_canonicalization(self):
        word = DLXE.encode(Instr(Op.MVI, rd=5, imm=42))
        assert DLXE.decode(word) == Instr(Op.ADDI, rd=5, rs1=0, imm=42)


class TestConstraints:
    def test_wide_immediates_ok(self):
        assert DLXE.supports(Instr(Op.ADDI, rd=1, rs1=2, imm=32767)) is None
        assert DLXE.supports(Instr(Op.ADDI, rd=1, rs1=2, imm=-32768)) is None

    def test_immediate_overflow(self):
        assert DLXE.supports(
            Instr(Op.ADDI, rd=1, rs1=2, imm=32768)) is not None

    def test_all_conditions_supported(self):
        for cond in Cond:
            instr = Instr(Op.CMP, cond=cond, rd=3, rs1=1, rs2=2)
            assert DLXE.supports(instr) is None

    def test_cmp_any_destination(self):
        instr = Instr(Op.CMP, cond=Cond.GEU, rd=17, rs1=1, rs2=2)
        assert DLXE.decode(DLXE.encode(instr)) == instr

    def test_ldc_unsupported(self):
        assert DLXE.supports(Instr(Op.LDC, rd=1, imm=4)) is not None

    def test_direct_call(self):
        instr = Instr(Op.JLD, imm=0x1000)
        assert DLXE.decode(DLXE.encode(instr)) == instr

    def test_branch_range(self):
        limit = ((1 << 15) - 1) * 4
        assert DLXE.supports(Instr(Op.BZ, rs1=1, imm=limit)) is None
        assert DLXE.supports(Instr(Op.BZ, rs1=1, imm=limit + 4)) is not None

    def test_misaligned_branch(self):
        assert DLXE.supports(Instr(Op.BZ, rs1=1, imm=2)) is not None


class TestDecoding:
    def test_bad_major_raises(self):
        with pytest.raises(DecodingError):
            DLXE.decode(0x3F << 26)

    def test_bad_func_raises(self):
        with pytest.raises(DecodingError):
            DLXE.decode(0x7FF)


@settings(max_examples=400)
@given(dlxe_instructions())
def test_roundtrip(instr):
    word = DLXE.encode(instr)
    assert 0 <= word <= 0xFFFFFFFF
    assert DLXE.decode(word) == instr


@settings(max_examples=200)
@given(dlxe_instructions())
def test_bytes_roundtrip(instr):
    data = DLXE.encode(instr).to_bytes(4, "little")
    assert len(data) == 4
    assert DLXE.decode_bytes(data) == instr
