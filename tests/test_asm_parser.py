"""Assembly-source parsing."""

import pytest

from repro.asm import parser
from repro.asm.parser import (AsmSyntaxError, ImmOperand, MemOperand,
                              RegOperand, SymOperand, parse_line,
                              parse_operand, parse_source)


class TestOperands:
    def test_register(self):
        assert parse_operand("r5") == RegOperand("g", 5)
        assert parse_operand("f12") == RegOperand("f", 12)

    def test_aliases(self):
        assert parse_operand("sp") == RegOperand("g", 15)
        assert parse_operand("gp") == RegOperand("g", 14)
        assert parse_operand("lr") == RegOperand("g", 1)

    def test_integers(self):
        assert parse_operand("42") == ImmOperand(42)
        assert parse_operand("-7") == ImmOperand(-7)
        assert parse_operand("0x1F") == ImmOperand(31)

    def test_char_literal(self):
        assert parse_operand("'A'") == ImmOperand(65)
        assert parse_operand(r"'\n'") == ImmOperand(10)

    def test_symbol(self):
        assert parse_operand("main") == SymOperand("main")
        assert parse_operand(".L0") == SymOperand(".L0")

    def test_symbol_with_addend(self):
        operand = parse_operand("table+8")
        assert operand == SymOperand("table", addend=8)
        operand = parse_operand("table - 4")
        assert operand == SymOperand("table", addend=-4)

    def test_reloc_operators(self):
        assert parse_operand("%hi(x)") == SymOperand("x", relop="hi")
        assert parse_operand("%lo(x)") == SymOperand("x", relop="lo")
        assert parse_operand("%abs16(x)") == SymOperand("x", relop="abs16")

    def test_memory_operand(self):
        operand = parse_operand("8(r3)")
        assert isinstance(operand, MemOperand)
        assert operand.offset == ImmOperand(8)
        assert operand.base == RegOperand("g", 3)

    def test_memory_no_offset(self):
        operand = parse_operand("(r3)")
        assert operand.offset == ImmOperand(0)

    def test_memory_with_reloc_offset(self):
        operand = parse_operand("%lo(buf)(r4)")
        assert isinstance(operand, MemOperand)
        assert operand.offset == SymOperand("buf", relop="lo")

    def test_garbage_raises(self):
        with pytest.raises(AsmSyntaxError):
            parse_operand("@!#")


class TestLines:
    def test_label_only(self):
        stmt = parse_line("main:", 1)
        assert stmt.label == "main"
        assert stmt.mnemonic is None

    def test_label_and_instruction(self):
        stmt = parse_line("loop:  add r1, r2, r3", 7)
        assert stmt.label == "loop"
        assert stmt.mnemonic == "add"
        assert len(stmt.operands) == 3

    def test_comment_stripped(self):
        assert parse_line("  ; just a comment", 1) is None
        stmt = parse_line("mvi r1, 4 ; set up", 1)
        assert stmt.mnemonic == "mvi"

    def test_hash_comment(self):
        stmt = parse_line("mvi r1, 4 # gcc style", 1)
        assert stmt.mnemonic == "mvi"

    def test_directive(self):
        stmt = parse_line('.asciiz "a; b"', 1)
        assert stmt.mnemonic == ".asciiz"
        assert stmt.raw_args == '"a; b"'

    def test_blank_is_none(self):
        assert parse_line("", 1) is None
        assert parse_line("    ", 1) is None

    def test_source_line_numbers(self):
        stmts = parse_source("nop\n\nnop\n")
        assert [s.line_no for s in stmts] == [1, 3]


def strip_comment_by_character(line):
    """Reference: scan one character at a time, toggling on unescaped
    quotes, and cut at the first ``;`` or ``#`` outside a string."""
    out = []
    in_str = False
    for i, ch in enumerate(line):
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if not in_str and ch in ";#":
            break
        out.append(ch)
    return "".join(out).rstrip()


class TestStripComment:
    @pytest.mark.parametrize("line", [
        '.asciz "a;b#c"',
        '.asciz "a;b#c"   ; trailing',
        r'.asciz "say \"hi;\" # x" # tail',
        r'.asciz "\"" ; escaped quote alone',
        'add r1, r2, r3 ; sum',
        'add r1, r2, r3 # sum',
        'mvi r1, 5 # a ; b',
        'mvi r1, 5 ; a # b',
        'nop ; "not a string"',
        'mov r1, r2 # "quoted after the marker"',
        "mvi r1, '#'",
        '; whole line',
        '   ',
        'main:',
    ])
    def test_matches_character_scan(self, line):
        assert parser._strip_comment(line) \
            == strip_comment_by_character(line)

    def test_markers_inside_strings_survive(self):
        assert parser._strip_comment('.asciz "a;b#c" ; x') \
            == '.asciz "a;b#c"'
        assert parser._strip_comment(r'.asciz "q\";#" # x') \
            == r'.asciz "q\";#"'


@pytest.fixture(scope="module")
def suite_assembly():
    """The assembly of every suite program on every target (105 cells)."""
    from repro.bench import SUITE
    from repro.cc.codegen import generate_assembly
    from repro.cc.irgen import lower_program
    from repro.cc.opt import optimize_module
    from repro.cc.parser import parse
    from repro.cc.runtime import RUNTIME_SOURCE
    from repro.cc.target import TARGETS

    cells = {}
    for bench in SUITE:
        module = lower_program(parse(RUNTIME_SOURCE + "\n" + bench.source))
        optimize_module(module)
        for name, target in sorted(TARGETS.items()):
            cells[bench.name, name] = generate_assembly(module.clone(),
                                                        target)
    return cells


def test_parse_source_unchanged_on_suite_assembly(suite_assembly,
                                                  monkeypatch):
    assert len(suite_assembly) == 105
    parsed = {cell: parse_source(text)
              for cell, text in suite_assembly.items()}
    monkeypatch.setattr(parser, "_strip_comment",
                        strip_comment_by_character)
    monkeypatch.setattr(parser, "_PARSED", {})
    for cell, text in suite_assembly.items():
        assert parse_source(text) == parsed[cell], cell
