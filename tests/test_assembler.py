"""Two-pass assembler behaviour."""

import pytest

from repro.asm import AsmError, assemble
from repro.asm.objfile import Reloc
from repro.isa import D16, DLXE, Op

from .conftest import cold_and_warm


def assemble_d16(src):
    return assemble(src, D16)


def assemble_dlxe(src):
    return assemble(src, DLXE)


class TestSections:
    def test_text_and_data(self):
        obj = assemble_d16("""
            .text
            nop
            .data
            x: .word 5
        """)
        assert obj.sections["text"].size == 2
        assert obj.sections["data"].size == 4

    def test_alignment_padding(self):
        obj = assemble_d16("""
            .data
            a: .byte 1
            .align 4
            b: .word 2
        """)
        assert obj.symbols["b"].value == 4
        assert obj.sections["data"].size == 8

    def test_align_label_points_past_padding(self):
        obj = assemble_d16("""
            .data
            .byte 1
            lbl: .align 4
            .word 7
        """)
        assert obj.symbols["lbl"].value == 4

    def test_space(self):
        obj = assemble_d16(".data\nbuf: .space 100\n")
        assert obj.sections["data"].size == 100

    def test_ascii_vs_asciiz(self):
        plain = assemble_d16('.data\n.ascii "ab"\n')
        zero = assemble_d16('.data\n.asciiz "ab"\n')
        assert plain.sections["data"].size == 2
        assert zero.sections["data"].size == 3
        assert zero.sections["data"].data == b"ab\0"

    def test_string_escapes(self):
        obj = assemble_d16(r'.data' + '\n' + r'.asciiz "a\n\t\0\\"' + '\n')
        assert obj.sections["data"].data == b"a\n\t\0\\\0"


class TestSymbols:
    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError, match="duplicate"):
            assemble_d16("a:\na:\n")

    def test_equ(self):
        obj = assemble_d16(".equ SIZE, 64\n")
        assert obj.symbols["SIZE"].value == 64
        assert obj.symbols["SIZE"].section == "abs"

    def test_global_marks_symbol(self):
        obj = assemble_d16(".global main\nmain: nop\n")
        assert obj.symbols["main"].is_global


class TestBranches:
    def test_backward_branch(self):
        obj = assemble_d16("loop: nop\nbr loop\n")
        instr = D16.decode_bytes(obj.sections["text"].data, 2)
        assert instr.op == Op.BR
        assert instr.imm == -2

    def test_forward_branch(self):
        obj = assemble_d16("br done\nnop\ndone: nop\n")
        instr = D16.decode_bytes(obj.sections["text"].data, 0)
        assert instr.imm == 4

    def test_branch_out_of_range(self):
        body = "nop\n" * 600
        with pytest.raises(AsmError, match="range"):
            assemble_d16("br far\n" + body + "far: nop\n")

    def test_ldc_pc_relative(self):
        obj = assemble_d16("""
            ldc r1, pool
            nop
            .align 4
            pool: .word 123
        """)
        instr = D16.decode_bytes(obj.sections["text"].data, 0)
        assert instr.op == Op.LDC
        assert instr.imm == 4            # pool at 4, (pc=0 & ~3) + 4


class TestRelocations:
    def test_word_symbol_reloc(self):
        obj = assemble_d16(".data\np: .word target\n.text\ntarget: nop\n")
        (reloc,) = obj.relocations
        assert reloc.kind == Reloc.WORD32
        assert reloc.symbol == "target"

    def test_word_symbol_addend(self):
        obj = assemble_d16(".data\np: .word target+12\n.text\ntarget: nop\n")
        (reloc,) = obj.relocations
        assert reloc.addend == 12

    def test_hi_lo_relocs(self):
        obj = assemble_dlxe("""
            mvhi r1, %hi(x)
            addi r1, r1, %lo(x)
            .data
            x: .word 9
        """)
        kinds = {r.kind for r in obj.relocations}
        assert kinds == {Reloc.HI16, Reloc.LO16}

    def test_jld_reloc(self):
        obj = assemble_dlxe("jld f\nf: nop\n")
        (reloc,) = obj.relocations
        assert reloc.kind == Reloc.J26


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble_d16("frobnicate r1\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AsmError, match="operands"):
            assemble_d16("add r1, r2\n")

    def test_register_class_mismatch(self):
        with pytest.raises(AsmError, match="floating-point"):
            assemble_d16("add.sf f1, f1, r2\n")

    def test_instructions_in_data(self):
        with pytest.raises(AsmError, match="outside"):
            assemble_d16(".data\nnop\n")

    def test_undefined_branch_target(self):
        with pytest.raises(AsmError, match="undefined"):
            assemble_d16("br nowhere\n")

    def test_isa_constraint_surfaces(self):
        with pytest.raises(AsmError, match="two-address"):
            assemble_d16("add r1, r2, r3\n")


class TestAssemblyMemo:
    """Each distinct line is parsed, and each instruction encoded, once
    per process; a memoized line must assemble as it does on emptied
    memos."""

    @staticmethod
    def assembled(monkeypatch, units):
        """Each ``(source, isa)`` assembled on emptied memos, then all
        in one process: both lists of object files."""
        return cold_and_warm(monkeypatch, [
            lambda source=source, isa=isa: assemble(source, isa)
            for source, isa in units])

    def test_pc_relative_lines_at_two_offsets(self, monkeypatch):
        # The same ``br`` and ``ldc`` lines, farther from their targets.
        lines = ("        br done\n"
                 "        ldc r2, pool\n")
        tail = ("done:   nop\n"
                "        .align 4\n"
                "pool:   .word 7\n")
        near = lines + tail
        far = "        nop\n" + lines + "        nop\n" * 3 + tail
        cold, warm = self.assembled(monkeypatch,
                                    [(near, D16), (far, D16)])
        assert warm == cold
        near_text, far_text = (obj.sections["text"].data for obj in cold)
        for offset, op in ((0, Op.BR), (2, Op.LDC)):
            near_instr = D16.decode_bytes(near_text, offset)
            far_instr = D16.decode_bytes(far_text, offset + 2)
            assert near_instr.op == far_instr.op == op
            assert near_instr.imm != far_instr.imm, op

    def test_relocation_offset_and_line_number_are_the_use_site(
            self, monkeypatch):
        cold, warm = self.assembled(monkeypatch, [
            ("jld f\nf: nop\n", DLXE), ("nop\njld f\nf: nop\n", DLXE)])
        assert warm == cold
        assert [obj.relocations[0].offset for obj in warm] == [0, 4]
        # A line parsed at line 2 fails to encode for D16 at line 1.
        assemble_dlxe("nop\nadd r1, r2, r3\n")
        with pytest.raises(AsmError, match="two-address") as failure:
            assemble_d16("add r1, r2, r3\n")
        assert failure.value.line_no == 1

    def test_isa_in_key(self, monkeypatch):
        source = "        mv r2, r3\n        addi r2, r2, 3\n"
        cold, warm = self.assembled(monkeypatch,
                                    [(source, D16), (source, DLXE)])
        assert warm == cold
        assert [obj.sections["text"].size for obj in cold] == [4, 8]
