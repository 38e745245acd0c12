"""Two-pass assembler targeting either the D16 or the DLXe encoding.

Pass 1 assigns every statement a section offset and collects labels; pass 2
encodes instructions (resolving PC-relative references) and emits
relocations for link-time constants.

The same source syntax serves both ISAs; ISA-specific restrictions (field
widths, register counts, two-address forms) are enforced by the encoding
modules and surface here as :class:`AsmError` with source line numbers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..isa import EncodingError, Instr, IsaSpec, OP_INFO, Op, OpKind
from ..isa.operations import Cond
from .objfile import ObjectFile, Reloc, Relocation, Symbol
from .parser import (ImmOperand, MemOperand, RegOperand, Statement,
                     SymOperand, parse_source, parse_value)


class AsmError(Exception):
    """Assembly failure, annotated with the source line."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


def _build_mnemonics() -> dict[str, tuple[Op, Cond | None]]:
    table: dict[str, tuple[Op, Cond | None]] = {}
    for op, info in OP_INFO.items():
        if "cond" not in info.signature:
            table[op.value] = (op, None)
            continue
        for cond in Cond:
            if op in (Op.CMP, Op.CMPI):
                table[f"{op.value}{cond.value}"] = (op, cond)
            else:  # cmp.sf / cmp.df
                base, suffix = op.value.split(".")
                table[f"{base}{cond.value}.{suffix}"] = (op, cond)
    return table


MNEMONICS = _build_mnemonics()

_DATA_DIRECTIVES = {".word": 4, ".half": 2, ".byte": 1}

#: Per ISA, each instruction's encoded bytes and pending relocation by
#: mnemonic and operand text.  A PC-relative instruction with a symbol
#: operand is never stored, because its immediate depends on offsets,
#: and neither is a failed encoding.
_ENCODED: dict[IsaSpec, dict[tuple[str, str], tuple]] = {}

_PC_RELATIVE = (Op.BR, Op.BZ, Op.BNZ, Op.LDC)


@dataclass
class _Item:
    """One pass-1 placement: an instruction or data blob."""

    stmt: Statement
    section: str
    offset: int
    size: int


class Assembler:
    """Assembles one translation unit for a given ISA."""

    def __init__(self, isa: IsaSpec):
        self.isa = isa
        self._labels: dict[str, tuple[str, int]] = {}
        self._encoded = _ENCODED.setdefault(isa, {})

    def assemble(self, source: str) -> ObjectFile:
        statements = parse_source(source)
        obj = ObjectFile(isa_name=self.isa.name)
        items, labels, globals_, equs = self._pass1(statements)
        self._labels = labels
        for name, (section, offset) in labels.items():
            obj.symbols[name] = Symbol(name, section, offset,
                                       is_global=name in globals_)
        for name, value in equs.items():
            obj.symbols[name] = Symbol(name, "abs", value,
                                       is_global=name in globals_)
        self._pass2(items, obj)
        return obj

    def scan(self, source: str):
        """Yield ``(statement, instr, error)`` for every instruction.

        Unlike :meth:`assemble`, operand mapping continues past a bad
        statement (``instr`` is then ``None`` and ``error`` the
        :class:`AsmError`); the lint layers use this to report every
        unencodable instruction instead of dying at the first.
        """
        statements = parse_source(source)
        items, labels, _globals, _equs = self._pass1(statements)
        self._labels = labels
        for item in items:
            if item.stmt.mnemonic.startswith("."):
                continue
            try:
                instr, _reloc = self._build_instr(item)
            except AsmError as exc:
                yield item.stmt, None, exc
                continue
            yield item.stmt, instr, None

    # ------------------------------------------------------------- pass 1

    def _pass1(self, statements):
        section = "text"
        offsets = {"text": 0, "data": 0}
        items: list[_Item] = []
        labels: dict[str, tuple[str, int]] = {}
        globals_: set[str] = set()
        equs: dict[str, int] = {}

        for stmt in statements:
            if stmt.label:
                if stmt.label in labels or stmt.label in equs:
                    raise AsmError(f"duplicate label {stmt.label!r}",
                                   stmt.line_no)
                labels[stmt.label] = (section, offsets[section])
            if stmt.mnemonic is None:
                continue
            m = stmt.mnemonic
            if m.startswith("."):
                section, size = self._directive_pass1(
                    stmt, section, offsets, globals_, equs, labels)
                if size:
                    items.append(_Item(stmt, section, offsets[section], size))
                    offsets[section] += size
                continue
            if m not in MNEMONICS:
                raise AsmError(f"unknown mnemonic {m!r}", stmt.line_no)
            if section != "text":
                raise AsmError("instructions outside .text", stmt.line_no)
            items.append(_Item(stmt, section, offsets[section],
                               self.isa.width_bytes))
            offsets[section] += self.isa.width_bytes
        return items, labels, globals_, equs

    def _directive_pass1(self, stmt, section, offsets, globals_, equs,
                         labels):
        """Handle a directive in pass 1; returns (section, reserved_size)."""
        m, args = stmt.mnemonic, stmt.raw_args
        if m == ".text":
            return "text", 0
        if m == ".data":
            return "data", 0
        if m == ".global":
            globals_.update(a.strip() for a in args.split(","))
            return section, 0
        if m == ".equ":
            name, _, value = args.partition(",")
            try:
                equs[name.strip()] = int(value.strip(), 0)
            except ValueError as exc:
                raise AsmError(f"bad .equ value {value!r}",
                               stmt.line_no) from exc
            return section, 0
        if m == ".align":
            boundary = int(args, 0)
            pad = (-offsets[section]) % boundary
            # Re-point any label on this line past the padding.
            if stmt.label:
                labels[stmt.label] = (section, offsets[section] + pad)
            return section, pad
        if m == ".space":
            return section, int(args, 0)
        if m in _DATA_DIRECTIVES:
            count = len(_split_args(args))
            return section, _DATA_DIRECTIVES[m] * count
        if m in (".ascii", ".asciiz"):
            text = _parse_string(args, stmt.line_no)
            return section, len(text) + (1 if m == ".asciiz" else 0)
        raise AsmError(f"unknown directive {m!r}", stmt.line_no)

    # ------------------------------------------------------------- pass 2

    def _pass2(self, items: list[_Item], obj: ObjectFile) -> None:
        for item in items:
            section = obj.section(item.section)
            if len(section.data) < item.offset:
                section.data.extend(b"\0" * (item.offset - len(section.data)))
            m = item.stmt.mnemonic
            if m.startswith("."):
                self._emit_data(item, obj)
            else:
                self._emit_instr(item, obj)

    def _emit_data(self, item: _Item, obj: ObjectFile) -> None:
        stmt = item.stmt
        m = stmt.mnemonic
        section = obj.section(item.section)
        if m == ".align" or m == ".space":
            section.data.extend(b"\0" * item.size)
            return
        if m in (".ascii", ".asciiz"):
            text = _parse_string(stmt.raw_args, stmt.line_no)
            section.data.extend(text)
            if m == ".asciiz":
                section.data.append(0)
            return
        width = _DATA_DIRECTIVES[m]
        fmt = {1: "<b", 2: "<h", 4: "<i"}[width]
        for token in _split_args(stmt.raw_args):
            token = token.strip()
            offset = len(section.data)
            try:
                value = int(token, 0)
            except ValueError:
                if width != 4:
                    raise AsmError("symbol data must be .word",
                                   stmt.line_no) from None
                sym, addend = _sym_and_addend(token, stmt.line_no)
                obj.relocations.append(Relocation(
                    item.section, offset, Reloc.WORD32, sym, addend))
                section.data.extend(b"\0\0\0\0")
                continue
            lo, hi = -(1 << (width * 8 - 1)), (1 << (width * 8)) - 1
            if not lo <= value <= hi:
                raise AsmError(f"{m} value {value} out of range", stmt.line_no)
            if value >= 1 << (width * 8 - 1):     # store large unsigned
                value -= 1 << (width * 8)
            section.data.extend(struct.pack(fmt, value))

    def _build_instr(self, item: _Item):
        """Map a parsed statement onto an :class:`Instr`.

        Returns ``(instr, reloc)`` where ``reloc`` is the pending
        relocation triple (kind, symbol, addend) or ``None``.  Operand
        mapping and validation happen here, *encoding* in
        :meth:`_emit_instr` — the binary linter reuses this method to
        range-check instructions without stopping at the first
        encoding failure.
        """
        stmt = item.stmt
        op, cond = MNEMONICS[stmt.mnemonic]
        info = OP_INFO[op]
        fields: dict[str, object] = {}
        if cond is not None:
            fields["cond"] = cond

        sig = [f for f in info.signature if f != "cond"]
        operands = list(stmt.operands)
        reloc: tuple[Reloc, str, int] | None = None

        if info.kind in (OpKind.LOAD, OpKind.STORE) and op != Op.LDC:
            if len(operands) != 2 or not isinstance(operands[1], MemOperand):
                raise AsmError(f"{stmt.mnemonic} expects 'reg, off(base)'",
                               stmt.line_no)
            data_field = sig[0]                     # rd or rs2
            fields[data_field] = self._reg(operands[0], info, data_field,
                                           stmt.line_no)
            mem = operands[1]
            fields["rs1"] = self._reg(mem.base, info, "rs1", stmt.line_no)
            imm, reloc = self._imm(mem.offset, op, item, stmt.line_no)
            fields["imm"] = imm
        else:
            if len(operands) != len(sig):
                raise AsmError(
                    f"{stmt.mnemonic} expects {len(sig)} operands, "
                    f"got {len(operands)}", stmt.line_no)
            for field, operand in zip(sig, operands):
                if field == "imm":
                    imm, reloc = self._imm(operand, op, item, stmt.line_no)
                    fields["imm"] = imm
                else:
                    fields[field] = self._reg(operand, info, field,
                                              stmt.line_no)

        instr = Instr(op=op, **fields)
        try:
            instr.validate()
        except Exception as exc:
            raise AsmError(f"{stmt.mnemonic}: {exc}",
                           stmt.line_no) from exc
        return instr, reloc

    def _emit_instr(self, item: _Item, obj: ObjectFile) -> None:
        stmt = item.stmt
        key = (stmt.mnemonic, stmt.raw_args)
        done = self._encoded.get(key)
        if done is None:
            instr, reloc = self._build_instr(item)
            try:
                word = self.isa.encode(instr)
            except EncodingError as exc:
                raise AsmError(str(exc), stmt.line_no) from exc
            done = (word.to_bytes(self.isa.width_bytes, "little"), reloc)
            if instr.op not in _PC_RELATIVE or not any(
                    isinstance(operand, SymOperand)
                    for operand in stmt.operands):
                self._encoded[key] = done
        data, reloc = done
        obj.section(item.section).data.extend(data)
        if reloc is not None:
            kind, symbol, addend = reloc
            obj.relocations.append(Relocation(
                item.section, item.offset, kind, symbol, addend))

    def _reg(self, operand, info, field: str, line_no: int) -> int:
        if not isinstance(operand, RegOperand):
            raise AsmError(f"expected register for {field}", line_no)
        expected = info.reg_class.get(field, "g")
        if operand.cls != expected:
            kind = "floating-point" if expected == "f" else "general"
            raise AsmError(f"{field} must be a {kind} register", line_no)
        return operand.index

    def _imm(self, operand, op: Op, item: _Item, line_no: int):
        """Resolve an immediate operand; returns (value, reloc-or-None)."""
        if isinstance(operand, ImmOperand):
            return operand.value, None
        if not isinstance(operand, SymOperand):
            raise AsmError("expected immediate or symbol", line_no)

        labels = self._labels
        if operand.relop == "hi":
            return 0, (Reloc.HI16, operand.symbol, operand.addend)
        if operand.relop == "lo":
            return 0, (Reloc.LO16, operand.symbol, operand.addend)
        if operand.relop == "abs16":
            return 0, (Reloc.ABS16, operand.symbol, operand.addend)

        if op in (Op.BR, Op.BZ, Op.BNZ, Op.LDC):
            target = labels.get(operand.symbol)
            if target is None:
                raise AsmError(f"undefined local label {operand.symbol!r}",
                               line_no)
            t_section, t_offset = target
            if t_section != item.section:
                raise AsmError("PC-relative reference across sections",
                               line_no)
            t_offset += operand.addend
            if op == Op.LDC:
                return t_offset - (item.offset & ~3), None
            return t_offset - item.offset, None
        if op in (Op.JD, Op.JLD):
            return 0, (Reloc.J26, operand.symbol, operand.addend)
        raise AsmError(f"{op.value} cannot take a symbolic operand", line_no)

def _sym_and_addend(token: str, line_no: int) -> tuple[str, int]:
    """Parse a ``symbol`` or ``symbol±offset`` data expression."""
    operand = parse_value(token, line_no)
    if not isinstance(operand, SymOperand) or operand.relop is not None:
        raise AsmError(f"bad .word expression {token!r}", line_no)
    return operand.symbol, operand.addend


def _split_args(args: str) -> list[str]:
    return [a for a in (p.strip() for p in args.split(",")) if a]


def _parse_string(args: str, line_no: int) -> bytes:
    args = args.strip()
    if len(args) < 2 or args[0] != '"' or args[-1] != '"':
        raise AsmError("expected a quoted string", line_no)
    body = args[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            esc = body[i + 1]
            mapped = {"n": 10, "t": 9, "0": 0, '"': 34, "\\": 92}.get(esc)
            if mapped is None:
                raise AsmError(f"bad escape \\{esc}", line_no)
            out.append(mapped)
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def assemble(source: str, isa: IsaSpec) -> ObjectFile:
    """Assemble ``source`` for ``isa`` into a relocatable object file."""
    return Assembler(isa).assemble(source)
