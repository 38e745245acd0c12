"""Register allocation: assignment validity and spill handling."""

from repro.cc import compile_and_run
from repro.cc.codegen import fold_immediates
from repro.cc.irgen import lower_program
from repro.cc.opt import optimize_module
from repro.cc.ir import liveness
from repro.cc.parser import parse
from repro.cc.regalloc import allocate, _build_intervals
from repro.cc.target import get_target


def prepare(src, name, target="dlxe"):
    module = lower_program(parse(src))
    optimize_module(module)
    func = module.function(name)
    tgt = get_target(target)
    fold_immediates(func, tgt)
    return func, tgt


class TestLiveness:
    def test_loop_carried_value_live_through(self):
        src = """
        int f(int n) {
            int acc = 1;
            while (n) { acc = acc * 3; n = n - 1; }
            return acc;
        }
        """
        func, _tgt = prepare(src, "f")
        live_in, live_out = liveness(func)
        # the loop body must carry both acc and n
        body = [b for b in func.blocks if "body" in b.label]
        assert body
        assert len(live_in[body[0].label]) >= 2


class TestIntervals:
    def test_call_crossing_flagged(self):
        src = """
        int g(int x) { return x; }
        int f(int a) {
            int keep = a * 7;
            g(1);
            return keep;
        }
        """
        func, _tgt = prepare(src, "f")
        intervals, calls = _build_intervals(func)
        assert calls
        crossing = [iv for iv in intervals if iv.crosses_call]
        assert crossing


class TestAllocation:
    def test_no_overlapping_assignments(self):
        src = """
        int f(int a, int b, int c, int d) {
            int e = a + b;
            int g = c + d;
            int h = e * g;
            return h + a - b + c - d + e + g;
        }
        """
        func, tgt = prepare(src, "f")
        allocation = allocate(func, tgt)
        intervals, _calls = _build_intervals(func)
        by_reg = {}
        for iv in intervals:
            if iv.vreg.cls != "i":
                continue
            reg = allocation.int_assignment.get(iv.vreg)
            if reg is None:
                continue
            for other in by_reg.get(reg, []):
                overlap = not (iv.end <= other.start
                               or other.end <= iv.start)
                assert not overlap, \
                    f"{iv.vreg} and {other.vreg} share r{reg}"
            by_reg.setdefault(reg, []).append(iv)

    def test_call_crossers_get_callee_saved(self):
        src = """
        int g(int x) { return x; }
        int f(int a) {
            int keep = a * 7;
            g(1);
            return keep;
        }
        """
        func, tgt = prepare(src, "f")
        allocation = allocate(func, tgt)
        intervals, _calls = _build_intervals(func)
        for iv in intervals:
            if iv.crosses_call and iv.vreg in allocation.int_assignment:
                reg = allocation.int_assignment[iv.vreg]
                assert reg in tgt.callee_saved_int

    def test_spill_pressure_resolves(self):
        # 24 simultaneously-live values overflow even DLXe's file.
        decls = "\n".join(f"int v{i} = a * {i + 1};" for i in range(24))
        uses = " + ".join(f"v{i}" for i in range(24))
        src = f"int f(int a) {{ {decls} return {uses}; }}"
        func, tgt = prepare(src, "f", "d16")
        allocation = allocate(func, tgt)
        assert allocation.spill_count > 0

    def test_spilled_program_still_correct(self, isa_target):
        decls = "\n".join(f"int v{i} = a + {i};" for i in range(24))
        uses = " + ".join(f"v{i}" for i in range(24))
        src = f"""
        int f(int a) {{ {decls} return {uses}; }}
        int main() {{ puti(f(1)); return 0; }}
        """
        stats, _m, _r = compile_and_run(src, isa_target)
        assert stats.output == str(sum(1 + i for i in range(24)))

    def test_fp_pairs_even(self):
        src = """
        double f(double a, double b) {
            double c = a * b;
            double d = a + b;
            return c / d;
        }
        """
        func, tgt = prepare(src, "f")
        allocation = allocate(func, tgt)
        for reg in allocation.fp_assignment.values():
            assert reg % 2 == 0

    def test_fp_spill_correct(self, isa_target):
        decls = "\n".join(f"double v{i} = a + {i}.0;" for i in range(16))
        uses = " + ".join(f"v{i}" for i in range(16))
        src = f"""
        double f(double a) {{ {decls} return {uses}; }}
        int main() {{ putd(f(0.5), 1); return 0; }}
        """
        stats, _m, _r = compile_and_run(src, isa_target)
        assert stats.output == "128.0"
