"""Property-based compiler correctness: random expressions vs Python.

Hypothesis generates integer expression trees; the compiled program must
print the same value Python computes with C semantics (32-bit wrap,
truncating division).  This is run on both encodings, so it also proves
D16/DLXe behavioural equivalence over a large expression space.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cc import build_executable
from repro.machine import run_executable

_WORD = 0xFFFFFFFF


def run_bare(src: str, target: str):
    """Compile ``src`` without the runtime library and run it."""
    exe = build_executable(src, target, include_runtime=False).executable
    return run_executable(exe)[0]


def _s32(value: int) -> int:
    value &= _WORD
    return value - (1 << 32) if value & 0x80000000 else value


class Node:
    def c_text(self) -> str:
        raise NotImplementedError

    def evaluate(self, env) -> int:
        raise NotImplementedError


class Lit(Node):
    def __init__(self, value):
        self.value = value

    def c_text(self):
        return str(self.value)

    def evaluate(self, env):
        return _s32(self.value)


class Var(Node):
    def __init__(self, name):
        self.name = name

    def c_text(self):
        return self.name

    def evaluate(self, env):
        return _s32(env[self.name])


class BinOp(Node):
    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def c_text(self):
        return f"({self.left.c_text()} {self.op} {self.right.c_text()})"

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        op = self.op
        if op == "+":
            return _s32(a + b)
        if op == "-":
            return _s32(a - b)
        if op == "*":
            return _s32(a * b)
        if op == "/":
            if b == 0:
                return _s32(a)          # guarded in c_text via |1? no:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return _s32(q)
        if op == "%":
            if b == 0:
                return 0
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return _s32(a - q * b)
        if op == "&":
            return _s32(a & b)
        if op == "|":
            return _s32(a | b)
        if op == "^":
            return _s32(a ^ b)
        if op == "<<":
            return _s32(a << (b & 31))
        if op == ">>":
            return _s32(a >> (b & 31))
        if op == "<":
            return int(a < b)
        if op == "==":
            return int(a == b)
        raise AssertionError(op)


class UnOp(Node):
    def __init__(self, op, operand):
        self.op, self.operand = op, operand

    def c_text(self):
        # The space keeps "-(-5)" from lexing as the "--" operator.
        return f"({self.op} {self.operand.c_text()})"

    def evaluate(self, env):
        value = self.operand.evaluate(env)
        if self.op == "-":
            return _s32(-value)
        if self.op == "~":
            return _s32(~value)
        if self.op == "!":
            return int(value == 0)
        raise AssertionError(self.op)


_VARS = ("a", "b", "c")
_SAFE_OPS = ("+", "-", "*", "&", "|", "^", "<", "==")
_SHIFT_OPS = ("<<", ">>")


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Lit(draw(st.integers(-100, 100)))
        return Var(draw(st.sampled_from(_VARS)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return UnOp(draw(st.sampled_from(("-", "~", "!"))),
                    draw(expressions(depth=depth + 1)))
    if kind == 1:
        # Shift with a bounded, non-negative literal count.
        return BinOp(draw(st.sampled_from(_SHIFT_OPS)),
                     draw(expressions(depth=depth + 1)),
                     Lit(draw(st.integers(0, 31))))
    return BinOp(draw(st.sampled_from(_SAFE_OPS)),
                 draw(expressions(depth=depth + 1)),
                 draw(expressions(depth=depth + 1)))


_HEX_PRINTER = """
void print_hex(int n) {
    int i, digit;
    for (i = 28; i >= 0; i = i - 4) {
        digit = (n >> i) & 15;
        if (digit < 10) putchar('0' + digit);
        else putchar('a' + digit - 10);
    }
}
"""


def _hex32(value: int) -> str:
    return f"{value & _WORD:08x}"


@settings(max_examples=60, deadline=None)
@given(expr=expressions(),
       values=st.tuples(st.integers(-1000, 1000),
                        st.integers(-1000, 1000),
                        st.integers(-1000, 1000)),
       target=st.sampled_from(["d16", "dlxe"]))
def test_expression_matches_python(expr, values, target):
    env = dict(zip(_VARS, values))
    src = _HEX_PRINTER + f"""
    int main() {{
        int a = {values[0]};
        int b = {values[1]};
        int c = {values[2]};
        print_hex({expr.c_text()});
        return 0;
    }}
    """
    expected = expr.evaluate(env)
    stats = run_bare(src, target)
    assert stats.output == _hex32(expected), src


@settings(max_examples=15, deadline=None)
@given(values=st.lists(st.integers(-10000, 10000), min_size=1,
                       max_size=30),
       target=st.sampled_from(["d16", "dlxe"]))
def test_array_sum_matches_python(values, target):
    items = ", ".join(str(v) for v in values)
    src = _HEX_PRINTER + f"""
    int xs[{len(values)}] = {{{items}}};
    int main() {{
        int i, total = 0;
        for (i = 0; i < {len(values)}; i++) total = total + xs[i];
        print_hex(total);
        return 0;
    }}
    """
    stats = run_bare(src, target)
    assert stats.output == _hex32(_s32(sum(values)))


@settings(max_examples=10, deadline=None)
@given(text=st.text(alphabet=st.characters(min_codepoint=32,
                                           max_codepoint=126),
                    max_size=40).filter(lambda s: '"' not in s
                                        and "\\" not in s))
def test_string_roundtrip(text):
    src = f"""
    void print(char *s) {{
        while (*s) {{ putchar(*s); s = s + 1; }}
    }}
    int main() {{
        print("{text}");
        return 0;
    }}
    """
    stats = run_bare(src, "d16")
    assert stats.output == text
