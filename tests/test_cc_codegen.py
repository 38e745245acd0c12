"""Code generation specifics: target restrictions visible in assembly."""

import dataclasses
import re

import pytest

from repro.asm import assemble
from repro.bench import SUITE, get_benchmark
from repro.cc import build_executable, compile_to_assembly, codegen
from repro.cc.codegen import PoolManager, generate_assembly
from repro.cc.irgen import lower_program
from repro.cc.opt import optimize_module
from repro.cc.parser import parse
from repro.cc.runtime import with_runtime
from repro.cc.target import DLXE_TARGET, TARGETS, get_target
from repro.isa import D16
from repro.machine import run_executable

from .conftest import cold_and_warm, empty_memos


def asm_for(src, target, **kw):
    return compile_to_assembly(src, target, include_runtime=False, **kw)


def body_of(asm, func):
    start = asm.index(f"{func}:")
    rest = asm[start:]
    end = rest.find("\n.data") if "\n.data" in rest else len(rest)
    return rest[:end]


class TestTwoAddress:
    SRC = "int f(int a, int b, int c) { return a + b * c; }"

    def test_d16_never_three_address(self):
        asm = asm_for(self.SRC, "d16")
        for line in asm.splitlines():
            match = re.match(r"\s+(add|sub|and|or|xor|mul|div|rem|shl|shr"
                             r"|shra) (r\d+), (r\d+), (r\d+)", line)
            if match:
                assert match.group(2) == match.group(3), line

    def test_restricted_dlxe_also_two_address(self):
        asm = asm_for(self.SRC, "dlxe/16/2")
        for line in asm.splitlines():
            match = re.match(r"\s+(add|sub|mul) (r\d+), (r\d+), (r\d+)",
                             line)
            if match and match.group(3) != "r0":
                assert match.group(2) == match.group(3), line

    def test_full_dlxe_uses_three_address(self):
        asm = asm_for("int f(int a, int b) { return a + b; }", "dlxe")
        assert re.search(r"add r\d+, r\d+, r\d+", asm)


class TestRegisterRestriction:
    def test_restricted_dlxe_stays_under_r16(self):
        decls = "\n".join(f"int v{i} = a * {i + 1};" for i in range(10))
        uses = " + ".join(f"v{i}" for i in range(10))
        src = f"int f(int a) {{ {decls} return {uses}; }}"
        asm = asm_for(src, "dlxe/16/3")
        for reg in re.findall(r"\br(\d+)\b", asm):
            assert int(reg) < 16

    def test_full_dlxe_may_use_high_registers(self):
        decls = "\n".join(f"int v{i} = a * {i + 1};" for i in range(14))
        uses = " + ".join(f"v{i}" for i in range(14))
        src = f"""
        int g(int x) {{ return x; }}
        int f(int a) {{ {decls} g(a); return {uses}; }}
        """
        asm = asm_for(src, "dlxe")
        assert any(int(r) >= 16 for r in re.findall(r"\br(\d+)\b", asm))


class TestImmediates:
    def test_dlxe_wide_immediate_single_instruction(self):
        asm = asm_for("int f(int a) { return a + 1000; }", "dlxe")
        assert "addi" in asm
        assert "mvhi" not in body_of(asm, "f")

    def test_d16_wide_immediate_needs_sequence(self):
        asm = asm_for("int f(int a) { return a + 1000; }", "d16")
        body = body_of(asm, "f")
        # 1000 doesn't fit u5: must be materialized then added.
        assert re.search(r"(mvi|ldc)", body)

    def test_d16_small_immediate_direct(self):
        asm = asm_for("int f(int a) { return a + 7; }", "d16")
        assert "addi" in body_of(asm, "f")

    def test_d16_negative_imm_uses_subi(self):
        asm = asm_for("int f(int a) { return a - 5; }", "d16")
        assert "subi" in body_of(asm, "f")

    def test_dlxe_cmpi(self):
        asm = asm_for("int f(int a) { return a < 100; }", "dlxe")
        assert "cmpilt" in asm

    def test_d16_has_no_cmpi(self):
        asm = asm_for("int f(int a) { return a < 100; }", "d16")
        assert "cmpi" not in body_of(asm, "f")


class TestConstantPools:
    def test_d16_big_constant_pooled(self):
        asm = asm_for("int f() { return 123456789; }", "d16")
        assert "ldc" in asm
        assert ".word 123456789" in asm

    def test_dlxe_big_constant_mvhi(self):
        asm = asm_for("int f() { return 123456789; }", "dlxe")
        assert "mvhi" in asm
        assert "ldc" not in asm

    def test_pool_deduplicated(self):
        asm = asm_for("""
        int f() { return 123456789 ^ 123456789; }
        """, "d16", opt_level=0)
        assert asm.count(".word 123456789") <= 1

    def test_pool_flush_for_large_function(self):
        # Enough code between uses forces an island with a skip branch.
        lines = "\n".join(f"x = x + {100000 + i};" for i in range(200))
        src = f"int f(int x) {{ {lines} return x; }}"
        asm = asm_for(src, "d16", opt_level=0)
        assert "br .Lp_f_skip" in asm
        exe = build_executable(src + "\nint main() { return f(1); }",
                               "d16").executable
        assert exe.text_size > PoolManager.FLUSH_DISTANCE


class TestCallSequences:
    SRC = """
    int callee(int a) { return a; }
    int f(int a) { return callee(a + 1); }
    """

    def test_dlxe_direct_call(self):
        asm = asm_for(self.SRC, "dlxe")
        assert "jld callee" in asm

    def test_d16_pool_call(self):
        asm = asm_for(self.SRC, "d16")
        body = body_of(asm, "f")
        assert ".word callee" in body
        assert re.search(r"jl r\d+", body)

    def test_leaf_function_no_lr_save(self):
        asm = asm_for("int leaf(int a) { return a * 2; }", "d16")
        body = body_of(asm, "leaf")
        assert "st r1" not in body

    def test_caller_saves_lr(self):
        asm = asm_for(self.SRC, "d16")
        body = body_of(asm, "f")
        assert "st r1" in body


class TestGlobalAddressing:
    SRC = """
    int near;
    int far_array[100];
    int f() { return near + far_array[60]; }
    """

    def test_dlxe_gp_relative(self):
        asm = asm_for(self.SRC, "dlxe")
        assert re.search(r"ld r\d+, \d+\(r14\)", asm)

    def test_d16_gp_window_then_pool(self):
        asm = asm_for(self.SRC, "d16")
        body = body_of(asm, "f")
        # 'near' (scalar, laid out first: offset < 124) is direct;
        # far_array[60] is 240+ bytes into the segment: pooled address.
        assert re.search(r"ld r\d+, \d+\(r14\)", body)
        assert ".word far_array" in body


class TestExecutionSanity:
    def test_all_targets_agree(self, any_target):
        src = """
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            int i;
            for (i = 0; i < 10; i++) putchar('a' + fib(i) % 26);
            return 0;
        }
        """
        result = build_executable(src, any_target,
                                  include_runtime=False)
        stats, _machine = run_executable(result.executable)
        assert stats.output == "".join(
            chr(ord("a") + f % 26)
            for f in [0, 1, 1, 2, 3, 5, 8, 13, 21, 34])


class TestDisplacementLegalization:
    """Reaches the suite never needs: every displacement that does not
    fit goes through a register, on every target and both engines."""

    #: Globals past D16's 124-byte gp window and DLXe's 32 KB reach, a
    #: 36 KB frame, and word, byte and FP accesses to both.
    FAR_DATA = r"""
    int near;
    char pad[40000];
    int far_words[8];
    char far_bytes[8];
    float far_floats[4];
    double far_doubles[4];

    int frame(int k) {
        int big[9000];
        char bytes[4];
        double doubles[2];
        int i;
        for (i = 0; i < 9000; i = i + 1) big[i] = i;
        bytes[2] = k;
        doubles[1] = k * 0.5;
        return big[k] + big[8999] + bytes[2] + (int)doubles[1];
    }

    int main() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
            far_words[i] = 3 * i;
            far_bytes[i] = 120 + i;
        }
        far_floats[2] = 0.25;
        far_doubles[3] = 1.5;
        pad[39999] = 7;
        near = far_words[7] + far_bytes[7] + pad[39999]
            + (int)(far_floats[2] * 8.0) + (int)(far_doubles[3] * 4.0);
        puti(near);
        putchar(' ');
        puti(frame(100));
        putchar(10);
        return 0;
    }
    """

    #: A 400-byte frame: ``dlxe/narrow`` builds its size into AT, the
    #: register that also carries each wide byte of a built constant.
    NARROW_FRAME = """
    int f(int k) { int a[100]; a[k] = k + 5; return a[k]; }
    int main() { puti(f(99)); return 0; }
    """

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_far_data_prints_alike(self, target, engine):
        result = build_executable(self.FAR_DATA, target)
        stats, _machine = run_executable(result.executable, engine=engine)
        assert stats.output == "163 9249\n"

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    def test_narrow_large_frame(self, engine):
        result = build_executable(self.NARROW_FRAME, "dlxe/narrow")
        stats, _machine = run_executable(result.executable, engine=engine)
        assert stats.output == "104"


class TestNarrowConstants:
    """``dlxe/narrow`` builds a constant too wide for mvi a byte at a
    time, from the highest byte its signed value needs."""

    SOURCE = "int main() { puti(9000); putchar(' '); puti(-9000); return 0; }"

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    def test_both_signs_load(self, engine):
        result = build_executable(self.SOURCE, "dlxe/narrow")
        stats, _machine = run_executable(result.executable, engine=engine)
        assert stats.output == "9000 -9000"

    @pytest.mark.parametrize("value,head,low", [(9000, 35, 40),
                                                (-9000, -36, 216)])
    def test_two_byte_constant_takes_four_instructions(self, value, head,
                                                       low):
        asm = body_of(asm_for(f"int main() {{ return {value}; }}",
                              "dlxe/narrow"), "main")
        assert re.search(rf"mvi (r\d+), {head}\n\s+shli \1, \1, 8\n"
                         rf"\s+mvi (r\d+), {low}\n\s+add \1, \1, \2\n",
                         asm), asm

    def test_no_suite_build_starts_from_a_zero_byte(self):
        for bench in SUITE:
            lines = [line.strip() for line in build_executable(
                bench.source, "dlxe/narrow").assembly.splitlines()]
            for first, second in zip(lines, lines[1:]):
                zero = re.fullmatch(r"mvi (r\d+), 0", first)
                assert not (zero and second ==
                            f"shli {zero[1]}, {zero[1]}, 8"), bench.name


def compiled(source, target, **kw):
    """What a compile hands its callers: assembly, text, data, labels."""
    result = build_executable(source, target, **kw)
    return (result.assembly, result.executable.text,
            result.executable.data, result.labels)


class TestCompileMemo:
    """Optimized and generated functions and assembled lines are
    memoized per process; every hit must equal a compile on emptied
    memos.  Each key-part test compiles the same function twice under
    one difference in that part."""

    PROGRAMS = ("ackermann", "queens")

    def test_hits_equal_cold_compiles_in_both_orders(self, monkeypatch):
        cells = [(name, target) for name in self.PROGRAMS
                 for target in sorted(TARGETS)]
        cold = {}
        for name, target in cells:
            empty_memos(monkeypatch)
            cold[name, target] = compiled(get_benchmark(name).source,
                                          target)
        for order in (cells, cells[::-1]):
            empty_memos(monkeypatch)
            for _repeat in range(2):
                for name, target in order:
                    assert compiled(get_benchmark(name).source,
                                    target) == cold[name, target], \
                        (name, target)

    def test_global_offsets_in_key(self, monkeypatch):
        # ``f`` is the same IR in both programs, but the second
        # program's word scalars, laid out first, move ``table``.
        shared = ("int table[8];\n"
                  "int f() { return table[1] + table[6]; }\n"
                  "int main() { return f(); }\n")
        for target in ("d16", "dlxe"):
            cold, warm = cold_and_warm(monkeypatch, [
                lambda source=source, target=target: compiled(
                    source, target, include_runtime=False)
                for source in (shared, "int x;\nint y;\n" + shared)])
            assert cold[0][0] != cold[1][0]
            assert warm == cold, target

    def test_writer_position_parity_in_key(self, monkeypatch):
        """The same D16 function, whose pool is padded to a word, at
        positions 0 and 2 modulo 4.  The writer's position is exact
        either way: generation ends at the assembled text size."""
        ends = []
        real_text = codegen.AsmWriter.text

        def text(writer):
            ends.append(writer.position)
            return real_text(writer)

        monkeypatch.setattr(codegen.AsmWriter, "text", text)
        f = ("int g(int a) { return a + 1; }\n"
             "int f(int a) { return g(a) + g(a + 2); }\n"
             "int main() { return f(1); }\n")
        sources = ["int h(int a) { return a * a; }\n" + f,
                   "int h(int a) { return a * a * a; }\n" + f]
        empty_memos(monkeypatch)
        starts = []
        for source in sources:
            assembly = compile_to_assembly(source, "d16",
                                           include_runtime=False)
            obj = assemble(assembly, D16)
            assert ends[-1] == obj.sections["text"].size
            starts.append(obj.symbols["f"].value % 4)
        assert sorted(starts) == [0, 2]

    def test_target_spec_in_key(self, monkeypatch):
        # Same name as ``dlxe``, half the registers.
        narrow = dataclasses.replace(DLXE_TARGET, num_gregs=16,
                                     num_fregs=16)
        decls = "\n".join(f"int v{i} = a * {i + 1};" for i in range(14))
        uses = " + ".join(f"v{i}" for i in range(14))
        source = ("int g(int x) { return x; }\n"
                  f"int f(int a) {{ {decls} g(a); return {uses}; }}\n"
                  "int main() { return f(2); }\n")
        cold, warm = cold_and_warm(monkeypatch, [
            lambda: compiled(source, DLXE_TARGET, include_runtime=False),
            lambda: compiled(source, narrow, include_runtime=False)])
        assert cold[0][0] != cold[1][0]
        assert warm == cold

    def test_schedule_flag_in_key(self, monkeypatch):
        # One optimized module generated with and without the
        # scheduler: the functions' fingerprints are equal.
        module = lower_program(parse(with_runtime(
            get_benchmark("queens").source, True)))
        optimize_module(module)
        target = get_target("dlxe")
        cold, warm = cold_and_warm(monkeypatch, [
            lambda level=level: generate_assembly(module.clone(), target,
                                                  opt_level=level)
            for level in (0, 2)])
        assert cold[0] != cold[1]
        assert warm == cold

    def test_hit_leaves_the_legalized_function(self, fresh_memos):
        """Callers read the module after generation (the binary
        translation validator does): a hit leaves each function as
        emission legalized it, spill slots included."""
        module = lower_program(parse(with_runtime(
            get_benchmark("queens").source, True)))
        optimize_module(module)
        target = get_target("d16")
        miss, hit = module.clone(), module.clone()
        assert generate_assembly(miss, target) \
            == generate_assembly(hit, target)
        assert hit.functions == miss.functions
        assert any(len(after.slots) > len(before.slots) for before, after
                   in zip(module.functions, hit.functions))
