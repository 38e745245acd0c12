"""Tests for loop recovery, whole-program cycle bounds, and density.

The load-bearing property mirrors test_timing.py one level up: for any
program the simulated zero-wait-state cycle count must land inside the
statically composed [BCET, WCET] interval — checked by hand on
programs with provable loops, on the soundness fallbacks (data-
dependent loops -> LOOP001, recursion -> TIM004, both refusing a WCET
instead of guessing one), and by hypothesis on random counted-loop
minic programs.  The loop/dominator machinery is unit-tested on
synthetic CFGs, including an irreducible one.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (RULES, Severity, analyze_density,
                            analyze_wcet, dominator_tree,
                            estimate_halfwords, find_loops,
                            fused_constant_pair, resolve_cfg,
                            validate_wcet)
from repro.analysis.wcet import (FunctionTiming, LoopBound, _best_case,
                                 _collapse, _FuncInfo)
from repro.cc import get_target
from repro.isa import Instr, Op

from .conftest import compile_run
from .test_analysis import _rules


def _graph(edges: dict[int, tuple[int, ...]]):
    return {b: SimpleNamespace(succs=succs) for b, succs in edges.items()}


# ------------------------------------------------ dominators and loops


class TestDominators:
    def test_diamond(self):
        dom = dominator_tree(_graph({1: (2, 3), 2: (4,), 3: (4,),
                                     4: ()}), 1)
        assert dom.idom[2] == dom.idom[3] == dom.idom[4] == 1
        assert dom.dominates(1, 4)
        assert not dom.dominates(2, 4)

    def test_unreachable_blocks_ignored(self):
        dom = dominator_tree(_graph({1: (2,), 2: (), 9: (2,)}), 1)
        assert 9 not in dom.index
        assert dom.preds[2] == [1]


class TestLoopForest:
    def test_single_loop(self):
        # 1 -> 2 <-> 3, 2 -> 4
        forest = find_loops(_graph({1: (2,), 2: (3, 4), 3: (2,),
                                    4: ()}), 1)
        assert forest.irreducible == ()
        assert set(forest.loops) == {2}
        loop = forest.loops[2]
        assert loop.body == frozenset({2, 3})
        assert loop.latches == (3,)
        assert loop.exits == ((2, 4),)
        assert loop.depth == 1

    def test_nested_loops(self):
        # outer: 2..4, inner: 3 (self-latch)
        forest = find_loops(_graph({1: (2,), 2: (3, 5), 3: (3, 4),
                                    4: (2,), 5: ()}), 1)
        assert set(forest.loops) == {2, 3}
        inner, outer = forest.loops[3], forest.loops[2]
        assert inner.parent == 2 and inner.depth == 2
        assert outer.parent is None and outer.depth == 1
        assert forest.innermost_first()[0] is inner
        assert 3 in inner.body and inner.body < outer.body
        assert 4 in outer.body and 4 not in inner.body

    def test_irreducible_cycle_detected(self):
        # The 2<->3 cycle has two entries (1 -> 2 and 1 -> 3): no
        # natural loop, but the retreating edge is reported as
        # irreducibility evidence rather than silently dropped.
        forest = find_loops(_graph({1: (2, 3), 2: (3,), 3: (2,)}), 1)
        assert forest.loops == {}
        assert len(forest.irreducible) == 1


class TestLoopCollapse:
    """One collapse computes both sides of the interval.

    A hand-built function: entry 1, an outer loop headed at 2 (exit to
    the return block 8), an inner loop headed at 3 whose body block 4
    can return early through 7.  The expected numbers are what the two
    separate best- and worst-case collapses gave before they were one
    routine.
    """

    EDGES = {1: (2,), 2: (3, 8), 3: (4, 5), 4: (3, 7), 5: (2,),
             7: (), 8: ()}
    COSTS = {1: 1, 2: 2, 3: 3, 4: 40, 5: 5, 7: 7, 8: 80}

    def _info(self, inner: tuple[int, int], outer: tuple[int, int]):
        blocks = {b: SimpleNamespace(start=b, succs=succs, is_halt=False,
                                     is_return=not succs)
                  for b, succs in self.EDGES.items()}
        loops = (LoopBound(3, 2, inner[1], "", min_header_execs=inner[0]),
                 LoopBound(2, 1, outer[1], "", min_header_execs=outer[0]))
        timing = FunctionTiming(name="f", start=1, n_blocks=len(blocks),
                                loops=loops)
        return _FuncInfo(timing=timing, blocks=blocks,
                         forest=find_loops(blocks, 1), call_of={})

    @pytest.mark.parametrize("mins, shortest", [((2, 3), 14),
                                                ((1, 1), 10)])
    def test_both_directions(self, mins, shortest):
        info = self._info((mins[0], 10), (mins[1], 5))
        min_trips = {lb.header: lb.min_header_execs
                     for lb in info.timing.loops}
        assert info.timing.proven_trips == {3: 10, 2: 5}
        assert _collapse(info, self.COSTS, min_trips,
                         longest=False) == shortest
        # The early return keeps the collapsed floor below the plain
        # shortest path, so the best case takes the latter.
        assert _best_case(info, self.COSTS) == 53
        assert _collapse(info, self.COSTS, info.timing.proven_trips,
                         longest=True) == 2266
        assert _collapse(info, self.COSTS, info.timing.proven_trips,
                         longest=True, loop_extra={3: 100, 2: 1000}) \
            == 3766

    def test_unproven_loop_refuses(self):
        info = self._info((1, 10), (1, 5))
        assert _collapse(info, self.COSTS, {3: 10},
                         longest=True) is None


# ------------------------------------------------ whole-program bounds


BOUNDED = """
int main() {
    int i, acc = 0;
    for (i = 0; i < 10; i++) acc = acc + i;
    putchar('A' + (acc & 15));
    return 0;
}
"""

STRWALK = """
void print(char *s) {
    while (*s) { putchar(*s); s = s + 1; }
}
int main() { print("hello"); return 0; }
"""

RECURSIVE = """
int f(int n) {
    if (n < 2) return 1;
    return f(n - 1) + n;
}
int main() { putchar('A' + (f(6) & 15)); return 0; }
"""


def _checked(source: str, target_name: str):
    stats, _machine, result = compile_run(source, target_name,
                                          include_runtime=False)
    target = get_target(target_name)
    program = analyze_wcet(resolve_cfg(result.executable, target.isa,
                                       target=target), model=None)
    return stats, validate_wcet(program, stats)


class TestWholeProgram:
    def test_counted_loop_has_finite_bracket(self, isa_target):
        stats, val = _checked(BOUNDED, isa_target)
        observed = stats.instructions + stats.interlocks
        assert val.findings == []
        assert val.wcet is not None
        assert val.bcet <= observed <= val.wcet
        program = val.program
        assert program.bounded_loops == program.n_loops > 0
        records = program.function_records()
        assert any(r["loop_bounds"] for r in records)
        bound = next(r for r in records if r["loop_bounds"])
        entry = bound["loop_bounds"][0]
        assert entry["max"] is not None and entry["max"] >= entry["min"]

    def test_data_dependent_loop_refuses_wcet(self, isa_target):
        stats, val = _checked(STRWALK, isa_target)
        observed = stats.instructions + stats.interlocks
        assert "LOOP001" in _rules(val.findings)
        assert "TIM003" not in _rules(val.findings)
        assert val.wcet is None
        assert val.bcet <= observed
        assert all(f.severity != Severity.ERROR for f in val.findings)

    def test_recursion_refuses_wcet_keeps_bcet(self, isa_target):
        stats, val = _checked(RECURSIVE, isa_target)
        observed = stats.instructions + stats.interlocks
        assert "TIM004" in _rules(val.findings)
        assert val.wcet is None
        assert 0 < val.bcet <= observed
        recursive = [f for f in val.program.functions.values()
                     if f.recursive]
        assert recursive and all(f.wcet is None for f in recursive)

    def test_observed_outside_interval_tim003(self, isa_target):
        stats, _machine, result = compile_run(BOUNDED, isa_target,
                                              include_runtime=False)
        target = get_target(isa_target)
        program = analyze_wcet(resolve_cfg(result.executable, target.isa,
                                           target=target), model=None)
        stats.instructions, stats.interlocks = 3, 0   # below BCET
        low = validate_wcet(program, stats)
        assert "TIM003" in _rules(low.findings)
        stats.instructions = 10 ** 9                  # above WCET
        high = validate_wcet(program, stats)
        assert "TIM003" in _rules(high.findings)

    def test_wide_interval_warns_tim005(self, isa_target):
        stats, _machine, result = compile_run(BOUNDED, isa_target,
                                              include_runtime=False)
        target = get_target(isa_target)
        program = analyze_wcet(resolve_cfg(result.executable, target.isa,
                                           target=target), model=None)
        val = validate_wcet(program, stats, slack=0.001)
        assert "TIM005" in _rules(val.findings)
        assert validate_wcet(program, stats, slack=None).findings == []

    def test_benchmarks_bracket(self, lab):
        # The full 15x2 sweep runs in CI (`repro lint --wcet`); two
        # benchmarks per ISA keep tier-1 honest at interactive cost.
        for name in ("ackermann", "towers"):
            for target_name in ("d16", "dlxe"):
                exe = lab.executable(name, target_name)
                run = lab.run(name, target_name)
                target = get_target(target_name)
                image = resolve_cfg(exe, target.isa, target=target)
                val = validate_wcet(analyze_wcet(image, model=lab.params),
                                    run.stats)
                observed = run.stats.instructions + run.stats.interlocks
                assert "TIM003" not in _rules(val.findings), \
                    (name, target_name)
                assert val.bcet <= observed


class TestRuleCatalog:
    def test_new_rules_registered_with_expected_severities(self):
        assert RULES["LOOP001"].severity == Severity.WARNING
        assert RULES["TIM003"].severity == Severity.ERROR
        assert RULES["TIM004"].severity == Severity.WARNING
        assert RULES["TIM005"].severity == Severity.WARNING
        assert RULES["DEN001"].severity == Severity.INFO


# -------------------------------------- property: random counted loops


@st.composite
def counted_loop_programs(draw):
    """Random minic programs made of (possibly nested) counted loops."""
    outer = draw(st.integers(0, 12))
    inner = draw(st.integers(1, 5))
    scale = draw(st.integers(-4, 4))
    nested = draw(st.booleans())
    body = f"acc = acc + i * {scale};"
    if nested:
        body += f" for (j = 0; j < {inner}; j++) acc = acc ^ j;"
    return f"""
int main() {{
    int i, j, acc = {draw(st.integers(-9, 9))};
    for (i = 0; i < {outer}; i++) {{ {body} }}
    putchar('A' + (acc & 15));
    return 0;
}}
"""


class TestBracketProperty:
    @given(source=counted_loop_programs(),
           target_name=st.sampled_from(["d16", "dlxe"]))
    @settings(max_examples=20, deadline=None)
    def test_interval_brackets_simulation(self, source, target_name):
        stats, val = _checked(source, target_name)
        observed = stats.instructions + stats.interlocks
        assert "TIM003" not in _rules(val.findings), source
        assert val.bcet <= observed
        if val.wcet is not None:
            assert observed <= val.wcet


# ------------------------------------------------------- code density


class TestDensity:
    def test_halfword_estimates(self):
        assert estimate_halfwords(Instr(op=Op.MVI, rd=3, imm=5)) == 1
        assert estimate_halfwords(Instr(op=Op.MVHI, rd=3, imm=1)) == 3
        assert estimate_halfwords(
            Instr(op=Op.ADD, rd=3, rs1=3, rs2=4)) == 1
        assert estimate_halfwords(
            Instr(op=Op.SUB, rd=3, rs1=4, rs2=5)) == 2
        # Operands above r15 pay the 16-register shuffle penalty.
        assert estimate_halfwords(
            Instr(op=Op.ADD, rd=20, rs1=20, rs2=4)) == 2

    def test_fused_constant_pair(self):
        hi = Instr(op=Op.MVHI, rd=3, imm=1)
        assert fused_constant_pair(
            hi, Instr(op=Op.ADDI, rd=3, rs1=3, imm=4))
        assert not fused_constant_pair(
            hi, Instr(op=Op.ADDI, rd=4, rs1=4, imm=4))
        assert not fused_constant_pair(
            hi, Instr(op=Op.SUBI, rd=3, rs1=3, imm=4))

    def test_dlxe_image_compresses(self):
        _stats, _machine, result = compile_run(BOUNDED, "dlxe",
                                               include_runtime=False)
        cfg = resolve_cfg(result.executable, get_target("dlxe").isa).cfg
        density = analyze_density(cfg)
        assert density.functions
        assert density.est_d16_bytes < density.dlxe_bytes
        assert density.ratio > 1.0
        record = density.function_records()[0]
        assert set(record) >= {"name", "instrs", "dlxe_bytes",
                               "est_d16_bytes", "ratio"}

    def test_d16_image_reports_empty(self):
        _stats, _machine, result = compile_run(BOUNDED, "d16",
                                               include_runtime=False)
        cfg = resolve_cfg(result.executable, get_target("d16").isa).cfg
        density = analyze_density(cfg)
        assert density.functions == {}
        assert density.findings == []
        assert density.ratio == 1.0


# ---------------------------------------------------------------- CLI


class TestCli:
    def test_wcet_file_mode_warnings_exit_zero(self, tmp_path):
        from repro.cli import main

        src = tmp_path / "recur.mc"
        src.write_text(RECURSIVE)
        assert main(["lint", str(src), "--wcet", "-t", "d16",
                     "--no-runtime"]) == 0

    def test_wcet_json_carries_bounds(self, capsys):
        import json

        from repro.cli import main

        assert main(["lint", "ackermann", "--wcet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5
        cells = payload["bounds"]
        assert {(c["program"], c["target"]) for c in cells} == \
            {("ackermann", "d16"), ("ackermann", "dlxe")}
        for cell in cells:
            assert cell["bcet"] <= cell["observed_cycles"]
            assert cell["functions"]
        assert payload["rules"]["LOOP001"]["severity"] == "warning"

    def test_density_json_carries_ratios(self, capsys):
        import json

        from repro.cli import main

        assert main(["lint", "ackermann", "--density", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cells = payload["density"]
        assert len(cells) == 1 and cells[0]["target"] == "dlxe"
        assert cells[0]["ratio"] > 1.0
        assert cells[0]["functions"]

    def test_density_file_mode_one_record_per_function(self, capsys):
        import json

        from repro.bench import get_benchmark
        from repro.cc import build_executable
        from repro.cli import main

        bench = get_benchmark("ackermann")
        assert main(["lint", str(bench.path), "-t", "dlxe", "--density",
                     "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["density"][0][
            "functions"]
        functions = build_executable(bench.source,
                                     "dlxe").executable.functions
        # The file's labels name every function; without them the
        # DLXe image, whose calls are all direct, folds into _start.
        assert len(functions) > 1
        assert [(r["name"], r["start"]) for r in records] == \
            sorted(functions.items(), key=lambda item: item[1])
