"""End-to-end language semantics: compile, run, compare with C meaning.

These run on every paper target, which doubles as a codegen equivalence
check: all configurations must produce identical observable behaviour.
"""

import pytest

from repro.cc import CompileError, compile_and_run


def run(source, target="dlxe", **kw):
    stats, _machine, _result = compile_and_run(source, target, **kw)
    return stats.output


def expr_program(expr, fmt="puti"):
    return f"int main() {{ {fmt}({expr}); return 0; }}"


class TestArithmetic:
    def test_operator_zoo(self, any_target):
        src = r"""
        int main() {
            puti(7 / 2); putchar(',');
            puti(-7 / 2); putchar(',');
            puti(7 % 3); putchar(',');
            puti(-7 % 3); putchar(',');
            puti(1 << 10); putchar(',');
            puti(-16 >> 2); putchar(',');
            puti(6 & 3); putchar(',');
            puti(6 | 3); putchar(',');
            puti(6 ^ 3); putchar(',');
            puti(~5); putchar(',');
            puti(!3); putchar(',');
            puti(!0);
            return 0;
        }
        """
        assert run(src, any_target) == "3,-3,1,-1,1024,-4,2,7,5,-6,0,1"

    def test_runtime_division_semantics(self, isa_target):
        src = r"""
        int main() {
            int a = -17, b = 5;
            puti(a / b); putchar(',');
            puti(a % b); putchar(',');
            puti((a / b) * b + (a % b));
            return 0;
        }
        """
        assert run(src, isa_target) == "-3,-2,-17"

    def test_int_overflow_wraps(self, isa_target):
        src = r"""
        int main() {
            int x = 2147483647;
            x = x + 1;
            puti(x == -2147483647 - 1);
            return 0;
        }
        """
        assert run(src, isa_target) == "1"

    def test_short_circuit(self, isa_target):
        src = r"""
        int calls = 0;
        int bump() { calls = calls + 1; return 1; }
        int main() {
            int r = 0 && bump();
            r = r + (1 || bump());
            puti(r); putchar(','); puti(calls);
            return 0;
        }
        """
        assert run(src, isa_target) == "1,0"

    def test_comparison_chain(self, isa_target):
        src = r"""
        int main() {
            int a = -5, b = 3;
            puti(a < b); puti(a > b); puti(a <= a); puti(a >= b);
            puti(a == a); puti(a != b);
            return 0;
        }
        """
        assert run(src, isa_target) == "101011"


class TestControlFlow:
    def test_nested_loops_break_continue(self, isa_target):
        src = r"""
        int main() {
            int total = 0;
            int i, j;
            for (i = 0; i < 5; i++) {
                if (i == 2) continue;
                if (i == 4) break;
                for (j = 0; j < 3; j++) {
                    if (j == 2) break;
                    total = total + 10 * i + j;
                }
            }
            puti(total);
            return 0;
        }
        """
        # i in {0,1,3}, j in {0,1}: sum(10i+j) = (0+1)+(10+11)+(30+31)
        assert run(src, isa_target) == "83"

    def test_do_while_runs_once(self, isa_target):
        src = r"""
        int main() {
            int n = 0;
            do { n++; } while (0);
            puti(n);
            return 0;
        }
        """
        assert run(src, isa_target) == "1"

    def test_ternary(self, isa_target):
        src = r"""
        int main() {
            int a = 5, b = 9;
            puti(a < b ? a : b); putchar(',');
            puti(a > b ? a : b);
            return 0;
        }
        """
        assert run(src, isa_target) == "5,9"

    def test_deep_recursion(self, isa_target):
        src = r"""
        int depth(int n) {
            if (n == 0) return 0;
            return 1 + depth(n - 1);
        }
        int main() { puti(depth(500)); return 0; }
        """
        assert run(src, isa_target) == "500"


class TestPointersAndArrays:
    def test_pointer_arithmetic(self, isa_target):
        src = r"""
        int xs[5];
        int main() {
            int *p = xs;
            int i;
            for (i = 0; i < 5; i++) xs[i] = i * i;
            p = p + 2;
            puti(*p); putchar(',');
            puti(*(p + 1)); putchar(',');
            puti(p - xs);
            return 0;
        }
        """
        assert run(src, isa_target) == "4,9,2"

    def test_swap_through_pointers(self, isa_target):
        src = r"""
        void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
        int main() {
            int x = 3, y = 8;
            swap(&x, &y);
            puti(x); puti(y);
            return 0;
        }
        """
        assert run(src, isa_target) == "83"

    def test_2d_array(self, isa_target):
        src = r"""
        int m[3][4];
        int main() {
            int i, j, sum = 0;
            for (i = 0; i < 3; i++)
                for (j = 0; j < 4; j++)
                    m[i][j] = i * 4 + j;
            for (i = 0; i < 3; i++) sum = sum + m[i][i];
            puti(sum); putchar(',');
            puti(m[2][3]);
            return 0;
        }
        """
        assert run(src, isa_target) == "15,11"

    def test_local_array_init(self, isa_target):
        src = r"""
        int main() {
            int xs[4] = {10, 20, 30};
            char s[8] = "ab";
            puti(xs[0] + xs[1] + xs[2]); putchar(',');
            puti(s[0]); puti(s[2]);
            return 0;
        }
        """
        assert run(src, isa_target) == "60,970"

    def test_char_array_strings(self, isa_target):
        src = r"""
        char msg[] = "hello";
        int main() {
            puti(strlen(msg)); putchar(',');
            puti(msg[0]); putchar(',');
            msg[0] = 'y';
            puts(msg);
            return 0;
        }
        """
        assert run(src, isa_target) == "5,104,yello"


class TestStructs:
    def test_nested_access(self, isa_target):
        src = r"""
        struct Inner { int a; char tag; };
        struct Outer { struct Inner in; int b; };
        struct Outer o;
        int main() {
            o.in.a = 7;
            o.in.tag = 'x';
            o.b = 9;
            puti(o.in.a + o.b); putchar(',');
            puti(o.in.tag);
            return 0;
        }
        """
        assert run(src, isa_target) == "16,120"

    def test_linked_list(self, isa_target):
        src = r"""
        struct Node { int value; struct Node *next; };
        struct Node nodes[4];
        int main() {
            int i, sum = 0;
            struct Node *p;
            for (i = 0; i < 4; i++) {
                nodes[i].value = i + 1;
                nodes[i].next = i < 3 ? &nodes[i + 1] : (struct Node *) 0;
            }
            for (p = &nodes[0]; p; p = p->next) sum = sum + p->value;
            puti(sum);
            return 0;
        }
        """
        assert run(src, isa_target) == "10"

    def test_struct_alignment(self, isa_target):
        src = r"""
        struct Mixed { char c; int i; char d; double x; };
        int main() {
            puti(sizeof(struct Mixed));
            return 0;
        }
        """
        # char(1) pad(3) int(4) char(1) pad(3) double(8) = 20 -> align 4
        assert run(src, isa_target) == "20"


class TestFloats:
    def test_mixed_arithmetic(self, isa_target):
        src = r"""
        int main() {
            double d = 1;
            float f = 0.5f;
            d = d + f;
            d = d * 4;
            putd(d, 1); putchar(',');
            puti((int) d);
            return 0;
        }
        """
        assert run(src, isa_target) == "6.0,6"

    def test_float_compare(self, isa_target):
        src = r"""
        int main() {
            double a = 0.1, b = 0.2;
            puti(a < b); puti(a + b > 0.29); puti(a == a);
            return 0;
        }
        """
        assert run(src, isa_target) == "111"

    def test_negative_truncation(self, isa_target):
        src = r"""
        int main() {
            double d = -2.7;
            puti((int) d);
            return 0;
        }
        """
        assert run(src, isa_target) == "-2"

    def test_double_array_sum(self, isa_target):
        src = r"""
        double xs[6];
        int main() {
            int i;
            double sum = 0.0;
            for (i = 0; i < 6; i++) xs[i] = (double) i / 2.0;
            for (i = 0; i < 6; i++) sum = sum + xs[i];
            putd(sum, 1);
            return 0;
        }
        """
        assert run(src, isa_target) == "7.5"


class TestGlobals:
    def test_initializers(self, isa_target):
        src = r"""
        int a = 5;
        int b = -3 * 4;
        int xs[3] = {1, 2, 3};
        char *s = "abc";
        double pi = 3.25;
        int *pa = &a;
        int main() {
            puti(a + b); putchar(',');
            puti(xs[2]); putchar(',');
            puti(s[1]); putchar(',');
            putd(pi, 2); putchar(',');
            puti(*pa);
            return 0;
        }
        """
        assert run(src, isa_target) == "-7,3,98,3.25,5"

    def test_zero_initialized(self, isa_target):
        src = r"""
        int zeros[10];
        int scalar;
        int main() {
            puti(zeros[7] + scalar);
            return 0;
        }
        """
        assert run(src, isa_target) == "0"


class TestCallingConvention:
    def test_many_int_args(self, isa_target):
        src = r"""
        int f(int a, int b, int c, int d, int e, int g) {
            return a + 10*b + 100*c + 1000*d + 10000*e + 100000*g;
        }
        int main() { puti(f(1, 2, 3, 4, 5, 6)); return 0; }
        """
        assert run(src, isa_target) == "654321"

    def test_many_double_args(self, isa_target):
        src = r"""
        double f(double a, double b, double c, double d) {
            return a + 2.0*b + 4.0*c + 8.0*d;
        }
        int main() { putd(f(1.0, 1.0, 1.0, 1.0), 1); return 0; }
        """
        assert run(src, isa_target) == "15.0"

    def test_mixed_args(self, isa_target):
        src = r"""
        double f(int n, double x, int m, double y) {
            return (double)(n + m) + x * y;
        }
        int main() { putd(f(3, 2.0, 4, 8.0), 1); return 0; }
        """
        assert run(src, isa_target) == "23.0"

    def test_return_value_chain(self, isa_target):
        src = r"""
        int twice(int x) { return x * 2; }
        int main() { puti(twice(twice(twice(5)))); return 0; }
        """
        assert run(src, isa_target) == "40"


class TestIntrinsics:
    def test_getchar_stdin(self, isa_target):
        src = r"""
        int main() {
            int c;
            while ((c = getchar()) != -1) putchar(c + 1);
            return 0;
        }
        """
        from repro.cc import build_executable
        from repro.machine import run_executable

        result = build_executable(src, isa_target)
        stats, _m = run_executable(result.executable, stdin=b"abc")
        assert stats.output == "bcd"

    def test_exit_code(self, isa_target):
        src = "int main() { exit(3); return 0; }"
        stats, _m, _r = compile_and_run(src, isa_target)
        assert stats.exit_code == 3

    def test_malloc_sbrk(self, isa_target):
        src = r"""
        int main() {
            int *p = (int *) malloc(40);
            int *q = (int *) malloc(40);
            p[9] = 7;
            q[0] = 5;
            puti(p[9] + q[0]); putchar(',');
            puti(q - p >= 10);
            return 0;
        }
        """
        assert run(src, isa_target) == "12,1"


class TestDiagnostics:
    def test_undefined_variable(self):
        with pytest.raises(CompileError, match="undefined variable"):
            run("int main() { return nope; }")

    def test_undefined_function(self):
        with pytest.raises(CompileError, match="undefined function"):
            run("int main() { return nope(); }")

    def test_arity_mismatch(self):
        with pytest.raises(CompileError, match="expects"):
            run("int f(int a) { return a; } int main() { return f(); }")

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break"):
            run("int main() { break; return 0; }")

    def test_void_value_use(self):
        with pytest.raises(CompileError):
            run("void f() {} int main() { int x = f() + 1; return x; }")

    def test_bad_member(self):
        with pytest.raises(CompileError):
            run("""
            struct P { int x; };
            struct P p;
            int main() { return p.nope; }
            """)
