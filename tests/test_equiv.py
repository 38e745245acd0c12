"""Translation validation: symbolic equivalence of passes and binaries.

Covers the :mod:`repro.analysis.equiv` driver — the IR liveness it
reads (:func:`repro.cc.ir.liveness`), cut points, the per-pass
simulation relation (proven / unknown / divergent), the
planted-miscompile mutation campaign, IR-vs-binary summary matching,
LICM preheader edge cases, and the ``repro lint --tv`` / ``--all``
surface.
"""

import copy
import json
from dataclasses import dataclass

from repro.analysis.equiv import (DIVERGENT, MUTATION_SOURCE, PROVEN,
                                  UNKNOWN, check_binary_program,
                                  check_pass, cut_points,
                                  mutation_campaign, tv_program,
                                  validate_passes)
from repro.cc import compile_to_assembly
from repro.cc.ir import (AddrGlobal, Bin, Block, CJump, Const, Function,
                         Jump, Ret, Store, VReg, liveness)
from repro.cc.irgen import lower_program
from repro.cc.opt import (dead_code, fold_constants, licm,
                          optimize_module, self_hoistable, simplify_cfg)
from repro.cc.parser import parse
from repro.isa import Cond


def lower(src):
    return lower_program(parse(src))


def _vi(n):
    return VReg(n, "i")


def _loop_func():
    """count-down loop: entry -> header -> body -> header -> exit."""
    v0, v1, v2 = _vi(0), _vi(1), _vi(2)
    func = Function(name="f", params=[], return_cls="i", next_vreg=8)
    func.blocks = [
        Block("entry", [Const(v0, 10), Const(v1, 1), Jump("header")]),
        Block("header", [CJump(Cond.NE, v0, None, "body", "exit")]),
        Block("body", [Bin("sub", v0, v0, v1), Jump("header")]),
        Block("exit", [Const(v2, 0), Ret(v2)]),
    ]
    return func


class TestLiveness:
    def test_loop_variable_live_at_header(self):
        live, _out = liveness(_loop_func())
        # v0 is tested at the header and decremented in the body.
        assert _vi(0) in live["header"]
        assert _vi(0) in live["body"]
        # Dead before its definition in the entry block.
        assert _vi(0) not in live["entry"]

    def test_def_kills_liveness(self):
        live, _out = liveness(_loop_func())
        # v2 is defined and used wholly inside the exit block.
        assert _vi(2) not in live["exit"]


class TestCutPoints:
    def test_common_labels_are_cuts(self):
        before, after = _loop_func(), _loop_func()
        cuts = cut_points(before, after)
        assert "header" in cuts and "body" in cuts

    def test_jump_only_blocks_excluded(self):
        before, after = _loop_func(), _loop_func()
        # Insert a trampoline in one version: jump threading may flow
        # through it, so it cannot serve as a synchronization point.
        after.blocks.insert(3, Block("tramp", [Jump("exit")]))
        after.blocks[2].instrs[-1] = Jump("tramp")
        assert "tramp" not in cut_points(before, after)


class TestCheckPass:
    def test_identical_versions_proven(self):
        func = _loop_func()
        verdict, reason, regions = check_pass(func, copy.deepcopy(func))
        assert verdict == PROVEN and reason is None
        assert regions >= 3    # entry + header + body at least

    def test_real_pass_application_proven(self):
        module = lower("int main() { return (3 + 4) * 2; }")
        func = module.functions[0]
        before = copy.deepcopy(func)
        fold_constants(func)
        dead_code(func)
        assert check_pass(before, func)[0] == PROVEN

    def test_ground_unconditional_mismatch_divergent(self):
        module = lower("int g; int main() { g = 7; return 0; }")
        func = module.functions[0]
        before = copy.deepcopy(func)
        for block in func.blocks:
            for inst in block.instrs:
                if isinstance(inst, Const) and inst.value == 7:
                    inst.value = 8
        verdict, reason, _ = check_pass(before, func)
        assert verdict == DIVERGENT
        assert reason is not None

    def test_guarded_mismatch_localized_to_divergent_region(self):
        # The changed constant sits behind a branch, but the branch
        # target is a reachable cut point: within ITS region the
        # mismatch is unconditional and ground, so the checker may
        # localize a real divergence there.
        module = lower("int f(int x) { if (x) return 3; return 4; }")
        func = module.functions[0]
        before = copy.deepcopy(func)
        for block in func.blocks:
            for inst in block.instrs:
                if isinstance(inst, Const) and inst.value == 3:
                    inst.value = 5
        verdict, reason, _ = check_pass(before, func)
        assert verdict == DIVERGENT
        assert "return value differs" in reason

    def test_symbolic_mismatch_stays_unknown(self):
        # x+1 vs x+2 contain free symbols: the checker refuses rather
        # than reasoning about satisfiability.
        module = lower("int f(int x) { return x + 1; }")
        func = module.functions[0]
        before = copy.deepcopy(func)
        for block in func.blocks:
            for inst in block.instrs:
                if isinstance(inst, Const) and inst.value == 1:
                    inst.value = 2
        verdict, _reason, _ = check_pass(before, func)
        assert verdict == UNKNOWN

    def test_dead_code_mismatch_proven_unobservable(self):
        # A change confined to an unreachable block is no divergence:
        # dead labels are not cut points and no path reaches them.
        func = _loop_func()
        func.blocks.append(
            Block("dead", [Const(_vi(7), 1), Ret(_vi(7))]))
        before = copy.deepcopy(func)
        func.blocks[-1].instrs[0] = Const(_vi(7), 2)
        assert check_pass(before, func)[0] == PROVEN

    def test_dropped_store_detected(self):
        module = lower("int g; int main() { g = 1; return 0; }")
        func = module.functions[0]
        before = copy.deepcopy(func)
        for block in func.blocks:
            block.instrs = [i for i in block.instrs
                            if not isinstance(i, Store)]
        assert check_pass(before, func)[0] != PROVEN


class TestValidatePasses:
    def test_small_module_all_proven(self):
        module = lower("int main() { return (3 + 4) * 2 - 6 / 3; }")
        checks = validate_passes(module, opt_level=2)
        assert checks
        assert all(c.verdict == PROVEN for c in checks)
        # Locations name function, pass, and round.
        assert any(c.location.startswith("main:") for c in checks)

    def test_optimizes_module_in_place(self):
        module = lower("int main() { return 2 + 3; }")
        reference = lower("int main() { return 2 + 3; }")
        validate_passes(module, opt_level=2)
        optimize_module(reference, level=2)
        assert str(module.functions[0]) == str(reference.functions[0])

    def test_mutation_source_all_proven(self):
        module = lower(MUTATION_SOURCE)
        checks = validate_passes(module, opt_level=2)
        counts = {PROVEN: 0, UNKNOWN: 0, DIVERGENT: 0}
        for c in checks:
            counts[c.verdict] += 1
        assert counts[DIVERGENT] == 0
        assert counts[UNKNOWN] == 0
        assert counts[PROVEN] == len(checks)


class TestMutationCampaign:
    def test_every_planted_miscompile_caught(self):
        results = mutation_campaign(seed=42)
        assert len(results) >= 20
        missed = [m for m in results if not m.caught]
        assert not missed, missed
        # One mutant per (pass, mutation) pair at most.
        pairs = {(m.pass_name, m.mutation) for m in results}
        assert len(pairs) == len(results)

    def test_campaign_covers_every_pass(self):
        results = mutation_campaign(seed=42)
        covered = {m.pass_name for m in results}
        assert covered == {"fold-constants", "copy-propagation",
                           "fold-offsets", "local-cse", "dead-code",
                           "simplify-cfg", "dedupe-single-defs", "licm"}

    def test_campaign_is_deterministic(self):
        a = mutation_campaign(seed=7)
        b = mutation_campaign(seed=7)
        assert [(m.pass_name, m.mutation, m.function, m.verdict)
                for m in a] \
            == [(m.pass_name, m.mutation, m.function, m.verdict)
                for m in b]


class TestLicmEdgeCases:
    def _invariant_loop(self):
        """Loop with TWO back edges into one header and a hoistable
        (address-materializing) computation inside the recognized
        body."""
        v0, v1, vinv = _vi(0), _vi(1), _vi(3)
        func = Function(name="f", params=[], return_cls="i",
                        next_vreg=8)
        func.blocks = [
            Block("entry", [Const(v0, 10), Const(v1, 1),
                            Jump("header")]),
            Block("header", [CJump(Cond.NE, v0, None, "deca", "exit")]),
            Block("deca", [AddrGlobal(vinv, "gtab"),
                           Bin("sub", v0, v0, v1),
                           CJump(Cond.GT, v0, None, "latch2",
                                 "header")]),
            Block("latch2", [Bin("sub", v0, v0, v1), Jump("header")]),
            Block("exit", [Ret(vinv)]),
        ]
        return func

    def test_preheader_with_multiple_back_edges_stays_sound(self):
        func = self._invariant_loop()
        before = copy.deepcopy(func)
        assert licm(func)
        labels = [b.label for b in func.blocks]
        assert "header.pre" in labels
        # The natural loop is recovered from the FIRST back edge only;
        # the second latch sits outside the recognized body, so its
        # edge is redirected through the preheader and re-executes the
        # hoisted (pure, single-def) code — semantically equivalent,
        # and the checker proves it.
        latch2 = next(b for b in func.blocks if b.label == "latch2")
        assert latch2.terminator.target == "header.pre"
        assert check_pass(before, func)[0] == PROVEN

    def test_multiple_invariants_hoist_together(self):
        v0, v1, va, vb = _vi(0), _vi(1), _vi(3), _vi(4)
        func = Function(name="f", params=[], return_cls="i",
                        next_vreg=8)
        func.blocks = [
            Block("entry", [Const(v0, 4), Const(v1, 1),
                            Jump("header")]),
            Block("header", [CJump(Cond.NE, v0, None, "body", "exit")]),
            Block("body", [AddrGlobal(va, "xs"),
                           AddrGlobal(vb, "ys", offset=4),
                           Bin("sub", v0, v0, v1), Jump("header")]),
            Block("exit", [Ret(va)]),
        ]
        before = copy.deepcopy(func)
        assert licm(func)
        pre = next(b for b in func.blocks if b.label == "header.pre")
        hoisted_defs = {d for i in pre.instrs for d in i.defs()}
        assert va in hoisted_defs and vb in hoisted_defs
        assert check_pass(before, func)[0] == PROVEN

    def test_self_hoistable_chain_through_hoisted_defs(self):
        # No current _HOISTABLE kind reads registers, so the
        # hoisted_defs escape hatch in self_hoistable is exercised
        # directly: an address computation chained on an
        # already-hoisted base must hoist, the same computation on an
        # in-loop base must not.
        @dataclass
        class ChainedAddr(AddrGlobal):
            base_reg: VReg | None = None

            def uses(self):
                return [self.base_reg] if self.base_reg else []

        va, vb = _vi(3), _vi(4)
        inst = ChainedAddr(vb, "xs", base_reg=va)
        body = {"header", "body"}
        def_counts = {va: 1, vb: 1}
        def_blocks = {va: {"body"}, vb: {"body"}}
        assert self_hoistable(inst, def_counts, def_blocks, body,
                              hoisted_defs={va})
        assert not self_hoistable(inst, def_counts, def_blocks, body,
                                  hoisted_defs=set())
        # Multiply-defined values never hoist, chained or not.
        assert not self_hoistable(inst, {va: 1, vb: 2}, def_blocks,
                                  body, hoisted_defs={va})

    def test_header_as_entry_block_never_diverges(self):
        # Degenerate shape (irgen never emits it): the entry block IS
        # the loop header.  The preheader becomes the new entry; the
        # checker may refuse (regions desynchronize) but must not
        # claim divergence.
        v0, v1, va = _vi(0), _vi(1), _vi(3)
        func = Function(name="f", params=[v0], return_cls="i",
                        next_vreg=8)
        func.blocks = [
            Block("header", [CJump(Cond.NE, v0, None, "body", "exit")]),
            Block("body", [Const(v1, 1),
                           AddrGlobal(va, "xs"),
                           Bin("sub", v0, v0, v1), Jump("header")]),
            Block("exit", [Ret(v0)]),
        ]
        before = copy.deepcopy(func)
        if licm(func):
            assert func.blocks[0].label == "header.pre"
        assert check_pass(before, func)[0] in (PROVEN, UNKNOWN)


class TestBinaryChecks:
    SOURCE = ("int g;\n"
              "int set7(int x) { g = x + 7; return x; }\n"
              "int main() { return set7(35); }\n")

    def test_straight_line_functions_proven(self):
        checks = check_binary_program(self.SOURCE)
        by_loc = {c.location: c for c in checks}
        for target in ("d16", "dlxe"):
            assert by_loc[f"{target}:set7"].verdict == PROVEN
            assert by_loc[f"{target}:main"].verdict == PROVEN
        assert all(c.verdict != DIVERGENT for c in checks)

    def test_verdicts_equal_on_codegen_hits(self, fresh_memos):
        """The second check generates code from the memo, and must
        read each function as emission legalized it, spill slots
        included, as the first did.  grep spills on D16: read without
        its spill slots, one of its functions is refused for another
        reason."""
        from repro.bench import get_benchmark

        source = get_benchmark("grep").source
        cold = check_binary_program(source)
        assert check_binary_program(source) == cold

    def test_optimizes_once_for_both_targets(self, monkeypatch):
        import repro.analysis.equiv as equiv

        # DLXe first: D16 code generated from a module DLXe code
        # generation already rewrote would differ.
        targets = ("dlxe", "d16")
        joined = [check for target in targets
                  for check in check_binary_program(self.SOURCE,
                                                    (target,))]
        calls = []
        real = equiv.optimize_module

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        generated = []
        real_generate = equiv.generate_assembly

        def generate(*args, **kwargs):
            generated.append(real_generate(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(equiv, "optimize_module", counted)
        monkeypatch.setattr(equiv, "generate_assembly", generate)
        assert check_binary_program(self.SOURCE, targets) == joined
        assert len(calls) == 1
        # Each target's code comes from an unmodified optimized module.
        assert generated == [compile_to_assembly(self.SOURCE, t)
                             for t in targets]

    def test_loops_refused_with_reason(self):
        src = self.SOURCE + \
            "int spin(int n) { int i; int s; s = 0; " \
            "for (i = 0; i < n; i = i + 1) s = s + i; return s; }\n"
        checks = check_binary_program(src, targets=("d16",))
        spin = next(c for c in checks if c.function == "spin")
        assert spin.verdict == UNKNOWN
        assert "cycle" in spin.reason

    def test_fp_signatures_refused(self):
        src = "double h(double x) { return x; }\n" \
              "int main() { return 0; }\n"
        checks = check_binary_program(src, targets=("dlxe",))
        h = next(c for c in checks if c.function == "h")
        assert h.verdict == UNKNOWN
        assert "signature" in h.reason


class TestTvProgram:
    def test_mutation_source_report(self):
        report = tv_program(MUTATION_SOURCE, "mutsrc",
                            include_runtime=False)
        pc = report.pass_counts()
        assert pc[DIVERGENT] == 0 and pc[UNKNOWN] == 0
        assert pc[PROVEN] > 0
        bc = report.binary_counts()
        assert bc[DIVERGENT] == 0
        rules = {f.rule for f in report.findings}
        assert "EQ005" in rules
        assert "EQ002" not in rules and "EQ004" not in rules

    def test_binary_tier_reuses_the_pass_tier_module(self, monkeypatch):
        import repro.analysis.equiv as equiv

        calls = []
        real = equiv.optimize_module

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(equiv, "optimize_module", counted)
        report = tv_program(MUTATION_SOURCE, "mutsrc",
                            include_runtime=False)
        assert len(calls) == 1
        assert {check.target for check in report.binary} \
            == {"d16", "dlxe"}

    def test_benchmark_counts_locked(self):
        # Suite-mode lock for a fast subset; CI locks all 15 programs.
        from repro.bench import get_benchmark

        for name in ("ackermann", "pi"):
            report = tv_program(get_benchmark(name).source, name)
            pc = report.pass_counts()
            assert pc[UNKNOWN] == 0 and pc[DIVERGENT] == 0, (name, pc)
            assert report.binary_counts()[DIVERGENT] == 0


class TestSimplifyCfgInteraction:
    def test_branch_collapse_proven(self):
        # simplify_cfg rewrites `if c goto L else L` into `jump L`; the
        # complementary-guard merge must absorb the split.
        module = lower("int f(int x) { if (x) x = x; return x; }")
        func = module.functions[0]
        fold_constants(func)
        before = copy.deepcopy(func)
        simplify_cfg(func)
        assert check_pass(before, func)[0] == PROVEN


class TestCliTv:
    def test_lint_tv_json(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--tv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5
        records = payload["tv"]
        assert len(records) == 1 and records[0]["program"] == "ackermann"
        passes = records[0]["passes"]
        assert passes["unknown"] == 0 and passes["divergent"] == 0
        assert records[0]["binary"]["divergent"] == 0
        assert "EQ005" in payload["summary"]["by_rule"]

    def test_lint_tv_file_mode(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.mc"
        src.write_text("int g; int main() { g = 3; return 0; }\n")
        assert main(["lint", str(src), "--tv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tv"][0]["passes"]["divergent"] == 0

    def test_lint_all_json_carries_modes(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["modes"]) == {"lint", "timing", "wcet",
                                         "icache", "density", "tv",
                                         "vuln"}
        for mode, entry in payload["modes"].items():
            assert entry["cells"] >= 1, mode
            assert "by_severity" in entry["summary"]
        # The combined report also carries every per-mode record block.
        for key in ("bounds", "icache", "density", "tv", "vuln"):
            assert key in payload
