"""Optimizer passes, observed through the IR."""

import pytest

from repro.bench import SUITE
from repro.cc.irgen import lower_program
from repro.cc.ir import Bin, CallInst, CJump, Const, Jump, Load, Store
from repro.cc.opt import (_PURE, copy_propagation, dead_code,
                          fold_constants, local_cse,
                          optimize_module, simplify_cfg)
from repro.cc.parser import parse
from repro.cc.runtime import RUNTIME_SOURCE

from .conftest import cold_and_warm


def lower(src):
    return lower_program(parse(src))


def instrs(func):
    return [inst for block in func.blocks for inst in block.instrs]


def count(func, kind):
    return sum(isinstance(i, kind) for i in instrs(func))


class TestConstantFolding:
    def test_arith_folds_to_const(self):
        module = lower("int main() { return (3 + 4) * 2 - 6 / 3; }")
        func = module.functions[0]
        fold_constants(func)
        copy_propagation(func)
        dead_code(func)
        consts = [i.value for i in instrs(func) if isinstance(i, Const)]
        assert 12 in consts
        assert count(func, Bin) == 0

    def test_mul_pow2_becomes_shift(self):
        module = lower("int f(int x) { return x * 8; }")
        func = module.functions[0]
        fold_constants(func)
        shifts = [i for i in instrs(func)
                  if isinstance(i, Bin) and i.op == "shl"]
        assert shifts

    def test_constant_branch_folds(self):
        module = lower("int main() { if (1 < 2) return 5; return 6; }")
        func = module.functions[0]
        fold_constants(func)
        assert count(func, CJump) == 0

    def test_add_zero_identity(self):
        module = lower("int f(int x) { return x + 0; }")
        func = module.functions[0]
        fold_constants(func)
        assert all(not (isinstance(i, Bin) and i.op == "add")
                   for i in instrs(func))


class TestOffsetFolding:
    def test_constant_index_becomes_displacement(self):
        module = lower("""
            int xs[10];
            int f() { return xs[3]; }
        """)
        func = module.functions[0]
        optimize_module(module)
        loads = [i for i in instrs(func) if isinstance(i, Load)]
        assert loads and loads[0].offset == 12
        assert loads[0].base == "xs"


class TestCSEandCopies:
    def test_repeated_expression_reused(self):
        module = lower("int f(int a, int b) { return (a+b)*(a+b); }")
        func = module.functions[0]
        local_cse(func)
        copy_propagation(func)
        dead_code(func)
        adds = [i for i in instrs(func)
                if isinstance(i, Bin) and i.op == "add"]
        assert len(adds) == 1

    def test_dedupe_single_defs_renames_globally(self):
        module = lower("""
            double g;
            int f(int n) {
                double total = 0.0;
                int i;
                for (i = 0; i < n; i++) total = total + 0.5;
                g = total;
                return i;
            }
        """)
        func = module.functions[0]
        optimize_module(module)
        from repro.cc.ir import FConst
        halves = [i for i in instrs(func)
                  if isinstance(i, FConst) and i.value == 0.5]
        assert len(halves) == 1


class TestDeadCode:
    def test_unused_pure_removed(self):
        module = lower("int f(int a) { int unused = a * 37; return a; }")
        func = module.functions[0]
        dead_code(func)
        assert count(func, Bin) == 0

    def test_store_never_removed(self):
        module = lower("int g; int f() { g = 1; return 0; }")
        func = module.functions[0]
        dead_code(func)
        assert count(func, Store) == 1

    def test_chain_feeding_only_itself_removed(self):
        module = lower("""
            int f(int n) {
                int i; int junk;
                junk = 0;
                for (i = 0; i < n; i = i + 1) junk = junk * 3 + i;
                return n;
            }""")
        func = module.functions[0]
        dead_code(func)
        assert count(func, Bin) == 1      # the loop counter's add


def sweep_dead_code(func):
    """Reference dead-code elimination: sweep the whole function until
    no used vreg is added, then drop pure definitions of unused vregs."""
    used = set()
    for block in func.blocks:
        for inst in block.instrs:
            if not isinstance(inst, _PURE) or isinstance(inst, CallInst):
                used.update(inst.uses())
    changed_any = True
    while changed_any:
        changed_any = False
        for block in func.blocks:
            for inst in block.instrs:
                if isinstance(inst, _PURE) \
                        and any(d in used for d in inst.defs()):
                    for u in inst.uses():
                        if u not in used:
                            used.add(u)
                            changed_any = True
    removed = False
    for block in func.blocks:
        kept = []
        for inst in block.instrs:
            if isinstance(inst, _PURE) and inst.defs() \
                    and not any(d in used for d in inst.defs()):
                removed = True
                continue
            kept.append(inst)
        block.instrs = kept
    return removed


@pytest.mark.parametrize("bench", SUITE, ids=lambda bench: bench.name)
def test_dead_code_matches_sweep_on_suite(bench):
    """Every dead-code application of the pipeline leaves what the
    reference sweep leaves on the same input."""
    applications = []

    def observer(func_name, pass_name, round_index, before, after,
                 changed):
        if pass_name != "dead-code":
            return
        reference = before.clone()
        assert sweep_dead_code(reference) == changed, func_name
        assert str(reference) == str(after), (func_name, round_index)
        applications.append(changed)

    optimize_module(lower(RUNTIME_SOURCE + "\n" + bench.source),
                    observer=observer)
    assert any(applications) and not all(applications)


class TestCFG:
    def test_unreachable_removed(self):
        module = lower("""
            int f() {
                return 1;
                return 2;
            }
        """)
        func = module.functions[0]
        simplify_cfg(func)
        rets = [i for i in instrs(func) if type(i).__name__ == "Ret"]
        assert len(rets) == 1

    def test_jump_threading(self):
        module = lower("""
            int f(int a) {
                int r;
                if (a) { r = 1; } else { r = 2; }
                return r;
            }
        """)
        func = module.functions[0]
        optimize_module(module)
        # No block should consist solely of a jump.
        for block in func.blocks:
            if len(block.instrs) == 1:
                assert not isinstance(block.instrs[0], Jump)


class TestLICM:
    def test_fconst_hoisted_out_of_loop(self):
        module = lower("""
            double f(int n) {
                double t = 1.0;
                int i;
                for (i = 0; i < n; i++) t = t * 1.5;
                return t;
            }
        """)
        func = module.functions[0]
        optimize_module(module)
        from repro.cc.ir import FConst
        # 1.5 must be defined in a block that is not part of the loop
        # (i.e. executed once): find the block containing the fmul.
        for block in func.blocks:
            fconsts = [i for i in block.instrs if isinstance(i, FConst)
                       and i.value == 1.5]
            muls = [i for i in block.instrs if isinstance(i, Bin)
                    and i.op == "fmul"]
            if muls:
                assert not fconsts, "1.5 should be hoisted out of the loop"

    def test_licm_preserves_semantics(self):
        from repro.cc import compile_and_run

        src = """
        int g[4];
        int main() {
            int i, total = 0;
            for (i = 0; i < 4; i++) {
                g[i] = i * 3;
                total = total + g[i];
            }
            puti(total);
            return 0;
        }
        """
        for target in ("d16", "dlxe"):
            stats, _m, _r = compile_and_run(src, target)
            assert stats.output == "18"

    def test_each_block_is_visited_once(self, monkeypatch, fresh_memos):
        """Inserting a preheader must not hand the pass a block twice.
        A visit looks up the block's dominators once per successor."""
        from collections import Counter

        from repro.cc import opt

        calls: list[tuple[Counter, dict[str, int]]] = []
        dominators = opt._dominators
        insert_preheader = opt._insert_preheader
        inserted: list[str] = []

        class Lookups(dict):
            def get(self, label, default=None):
                self.counts[label] += 1
                return super().get(label, default)

        def recording_dominators(func, preds):
            dom = Lookups(dominators(func, preds))
            dom.counts = Counter()
            calls.append((dom.counts, {b.label: len(b.successors())
                                       for b in func.blocks
                                       if b.successors()}))
            return dom

        def counting_insert(func, header, body, hoisted):
            inserted.append(header)
            insert_preheader(func, header, body, hoisted)

        monkeypatch.setattr(opt, "_dominators", recording_dominators)
        monkeypatch.setattr(opt, "_insert_preheader", counting_insert)
        module = lower("""
            int g[4]; int h[4];
            int main() {
                int i, j, total = 0;
                for (i = 0; i < 4; i++) {
                    g[i] = i;
                    for (j = 0; j < 4; j++) h[j] = h[j] + g[i];
                }
                for (i = 0; i < 4; i++) total = total + h[i];
                return total;
            }
        """)
        optimize_module(module)
        assert len(inserted) == 3
        for counts, successors in calls:
            assert counts == Counter(successors)


class TestPipelineIdempotence:
    def test_double_optimize_stable(self):
        src = """
            int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
        """
        module = lower(src)
        optimize_module(module)
        once = str(module.functions[0])
        optimize_module(module)
        assert str(module.functions[0]) == once


class TestOptimizeMemo:
    """A process optimizes each function once per opt level; a hit
    must equal optimizing on an emptied memo."""

    LOOP = """
        double f(int n) {
            double %s = 1.0;
            int i;
            for (i = 0; i < n; i++) %s = %s * 1.5;
            return %s;
        }
    """

    def optimized(self, name="t", level=2):
        module = lower(self.LOOP % ((name,) * 4))
        optimize_module(module, level=level)
        return module.functions

    def test_level_in_key(self, monkeypatch):
        cold, warm = cold_and_warm(monkeypatch, [
            lambda: self.optimized(level=1),
            lambda: self.optimized(level=2)])
        assert cold[0] != cold[1]
        assert warm == cold

    def test_vreg_hints_in_key(self, monkeypatch):
        # The two functions print alike; their vreg hints differ.
        assert str(lower(self.LOOP % (("t",) * 4)).functions[0]) \
            == str(lower(self.LOOP % (("u",) * 4)).functions[0])
        cold, warm = cold_and_warm(monkeypatch, [
            lambda: self.optimized("t"), lambda: self.optimized("u")])
        assert cold[0] != cold[1]
        assert warm == cold

    def test_checks_see_every_pass_on_a_warm_memo(self, monkeypatch,
                                                  fresh_memos):
        from repro.cc import opt

        expected = self.optimized()
        verified, observed = [], []
        real_verify = opt._verify_after

        def verify_after(func, pass_name):
            verified.append(pass_name)
            real_verify(func, pass_name)

        monkeypatch.setattr(opt, "_verify_after", verify_after)
        for checks, seen in (
                ({"verify": True}, verified),
                ({"observer": lambda *args: observed.append(args[1])},
                 observed)):
            module = lower(self.LOOP % (("t",) * 4))
            optimize_module(module, **checks)
            assert "licm" in seen
            assert module.functions == expected
