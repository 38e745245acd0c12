"""Line-level parsing for the shared assembly syntax.

One statement per line::

    [label:] [mnemonic operand, operand ...]  [; comment]
    [label:] [.directive args]                [; comment]

Operands are registers (``r4``, ``f2``, or the aliases ``sp``/``gp``/``lr``),
immediates (decimal, hex, or ``'c'`` character literals), symbols, the
relocation operators ``%hi(sym)``/``%lo(sym)``/``%abs16(sym)``, and memory
operands ``offset(reg)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class AsmSyntaxError(Exception):
    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


REG_ALIASES = {"sp": 15, "gp": 14, "lr": 1}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_REG_RE = re.compile(r"^([rf])(\d+)$")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_SYM_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_RELOP_RE = re.compile(r"^%(hi|lo|abs16)\(([A-Za-z_.$][\w.$]*)\)$")
_MEM_RE = re.compile(r"^(.*)\(\s*(\w+)\s*\)$")
_EXPR_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-])\s*(\d+|0[xX][0-9a-fA-F]+)$")


@dataclass(frozen=True)
class RegOperand:
    cls: str            # "g" or "f"
    index: int


@dataclass(frozen=True)
class ImmOperand:
    value: int


@dataclass(frozen=True)
class SymOperand:
    symbol: str
    addend: int = 0
    relop: str | None = None   # None, "hi", "lo", "abs16"


@dataclass(frozen=True)
class MemOperand:
    offset: "ImmOperand | SymOperand"
    base: RegOperand


Operand = RegOperand | ImmOperand | SymOperand | MemOperand


@dataclass(frozen=True)
class Statement:
    line_no: int
    label: str | None
    mnemonic: str | None          # lower-case mnemonic or .directive
    operands: tuple = ()
    raw_args: str = ""            # unparsed argument text (directives)


def _strip_comment(line: str) -> str:
    if '"' not in line:
        # No string literal: the comment starts at the first marker.
        return line.partition(";")[0].partition("#")[0].rstrip()
    out = []
    in_str = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if not in_str and (ch == ";" or ch == "#"):
            break
        out.append(ch)
        i += 1
    return "".join(out).rstrip()


def _split_operands(text: str) -> list[str]:
    """Split on commas not inside parens or string quotes."""
    parts, depth, in_str, cur = [], 0, False, []
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if not in_str:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append("".join(cur).strip())
                cur = []
                continue
        cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_register(token: str, line_no: int = 0) -> RegOperand:
    token = token.strip()
    if token in REG_ALIASES:
        return RegOperand("g", REG_ALIASES[token])
    m = _REG_RE.match(token)
    if not m:
        raise AsmSyntaxError(f"bad register {token!r}", line_no)
    cls = "g" if m.group(1) == "r" else "f"
    return RegOperand(cls, int(m.group(2)))


def parse_value(token: str, line_no: int = 0) -> ImmOperand | SymOperand:
    """Parse an immediate, character literal, symbol, or reloc operator."""
    token = token.strip()
    if _INT_RE.match(token):
        return ImmOperand(int(token, 0))
    if len(token) >= 3 and token[0] == "'" and token[-1] == "'":
        body = token[1:-1]
        char = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\'": "'",
                "\\\\": "\\"}.get(body, body)
        if len(char) != 1:
            raise AsmSyntaxError(f"bad character literal {token!r}", line_no)
        return ImmOperand(ord(char))
    m = _RELOP_RE.match(token)
    if m:
        return SymOperand(symbol=m.group(2), relop=m.group(1))
    m = _EXPR_RE.match(token)
    if m:
        sign = 1 if m.group(2) == "+" else -1
        return SymOperand(symbol=m.group(1), addend=sign * int(m.group(3), 0))
    if _SYM_RE.match(token):
        return SymOperand(symbol=token)
    raise AsmSyntaxError(f"cannot parse operand {token!r}", line_no)


def parse_operand(token: str, line_no: int = 0) -> Operand:
    token = token.strip()
    m = _MEM_RE.match(token)
    if m and (_REG_RE.match(m.group(2)) or m.group(2) in REG_ALIASES):
        offset_text = m.group(1).strip()
        offset = (ImmOperand(0) if not offset_text
                  else parse_value(offset_text, line_no))
        return MemOperand(offset=offset, base=parse_register(m.group(2), line_no))
    if _REG_RE.match(token) or token in REG_ALIASES:
        return parse_register(token, line_no)
    return parse_value(token, line_no)


def parse_line(line: str, line_no: int) -> Statement | None:
    """Parse one source line; None for blank/comment-only lines."""
    text = _strip_comment(line).strip()
    label = None
    m = _LABEL_RE.match(text)
    if m:
        label = m.group(1)
        text = text[m.end():].strip()
    if not text:
        return Statement(line_no, label, None) if label else None

    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    args = parts[1].strip() if len(parts) > 1 else ""
    if mnemonic.startswith("."):
        return Statement(line_no, label, mnemonic, raw_args=args)
    operands = tuple(parse_operand(tok, line_no)
                     for tok in _split_operands(args))
    return Statement(line_no, label, mnemonic, operands, raw_args=args)


#: Each distinct line's statement without its line number: ``(label,
#: mnemonic, operands, raw_args)``, or None for a blank line.  The
#: compiler emits the same lines in every program (the runtime library,
#: prologues, spills), so a process parses each one once.  A line that
#: fails to parse is never stored.
_PARSED: dict[str, tuple | None] = {}


def parse_source(source: str) -> list[Statement]:
    """Parse a full assembly source into statements."""
    statements = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        try:
            parts = _PARSED[line]
        except KeyError:
            stmt = parse_line(line, line_no)
            parts = _PARSED[line] = None if stmt is None else (
                stmt.label, stmt.mnemonic, stmt.operands, stmt.raw_args)
        if parts is not None:
            statements.append(Statement(line_no, *parts))
    return statements
