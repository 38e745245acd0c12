"""Tests for the static cycle/stall bounds (TIM rules).

The load-bearing property: for any program the simulator's interlock
total must land inside the CFG-aggregated static [lower, upper] bounds.
Checked three ways — by hand on single hazards, by hypothesis on random
straight-line programs (where the whole program is one block and the
lower bound must be *exact*, since simulator and analyzer both start
from the reset pipeline state), and on real benchmarks through the lab.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (block_stall_bounds, build_cfg, exit_seed,
                            resolve_cfg, static_bounds, timing_cell,
                            validate_run)
from repro.cc import build_executable, get_target
from repro.isa import DLXE, Instr, Op
from repro.machine import run_executable
from repro.machine.pipeline import PipelineParams

from .test_analysis import _raw_exe, _rules

MODEL = PipelineParams()
DLXE_TARGET = get_target("dlxe")


def _validate(exe, stats, target=DLXE_TARGET, params=None):
    """One run checked against the bounds of its recovered image."""
    image = resolve_cfg(exe, target.isa, target=target)
    validation, _findings = timing_cell(image, stats, params=params)
    return validation


# ------------------------------------------------- single-block bounds


class TestBlockBounds:
    def test_independent_ops_have_zero_lower_bound(self):
        lo, hi = block_stall_bounds([
            Instr(op=Op.MVI, rd=3, imm=1),
            Instr(op=Op.MVI, rd=4, imm=2),
        ], MODEL)
        assert lo == 0
        assert hi >= lo

    def test_load_use_stall(self):
        lo, hi = block_stall_bounds([
            Instr(op=Op.LD, rd=3, rs1=15, imm=0),
            Instr(op=Op.ADD, rd=4, rs1=3, rs2=3),
        ], MODEL)
        assert lo == MODEL.load_delay == 1
        assert hi >= lo

    def test_load_then_independent_op_does_not_stall(self):
        lo, _hi = block_stall_bounds([
            Instr(op=Op.LD, rd=3, rs1=15, imm=0),
            Instr(op=Op.ADD, rd=4, rs1=5, rs2=5),
        ], MODEL)
        assert lo == 0

    def test_math_consumer_stall(self):
        lo, _hi = block_stall_bounds([
            Instr(op=Op.MUL, rd=3, rs1=4, rs2=5),
            Instr(op=Op.ADD, rd=6, rs1=3, rs2=3),
        ], MODEL)
        assert lo == MODEL.math_latency["imul"] - 1

    def test_upper_bound_assumes_busy_entry_state(self):
        # A fresh pipeline never stalls a lone load, but a result still
        # in flight at block entry can delay its issue.
        lo, hi = block_stall_bounds(
            [Instr(op=Op.LD, rd=3, rs1=4, imm=0)], MODEL)
        assert lo == 0
        assert hi > 0

    def test_accepts_addr_instr_pairs(self):
        instrs = [Instr(op=Op.LD, rd=3, rs1=15, imm=0),
                  Instr(op=Op.ADD, rd=4, rs1=3, rs2=3)]
        paired = [(0x1000 + 4 * i, ins) for i, ins in enumerate(instrs)]
        assert block_stall_bounds(paired, MODEL) == \
            block_stall_bounds(instrs, MODEL)


# ------------------------------------------ property: bounds bracket


_SCRATCH = st.sampled_from(range(4, 10))


@st.composite
def straightline_programs(draw):
    """Random executable straight-line DLXe programs.

    r3 holds a valid data address (set by the fixed prefix); the body
    mixes ALU ops, loads, and math-unit ops over scratch registers.
    """
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append(Instr(op=Op.MVI, rd=draw(_SCRATCH),
                              imm=draw(st.integers(-100, 100))))
        elif kind == 1:
            body.append(Instr(op=Op.ADD, rd=draw(_SCRATCH),
                              rs1=draw(_SCRATCH), rs2=draw(_SCRATCH)))
        elif kind == 2:
            body.append(Instr(op=Op.LD, rd=draw(_SCRATCH), rs1=3,
                              imm=draw(st.sampled_from([0, 4, 8]))))
        else:
            body.append(Instr(op=Op.MUL, rd=draw(_SCRATCH),
                              rs1=draw(_SCRATCH), rs2=draw(_SCRATCH)))
    return body


class TestBoundsBracketSimulation:
    @given(straightline_programs())
    @settings(max_examples=60, deadline=None)
    def test_simulated_interlocks_within_static_bounds(self, body):
        program = ([Instr(op=Op.MVHI, rd=3, imm=1)] + body
                   + [Instr(op=Op.TRAP, imm=0)])
        exe = _raw_exe(DLXE, program)
        stats, _machine = run_executable(exe)
        lo, hi = block_stall_bounds(program, MODEL)
        # One straight-line block from reset: the lower bound is exact
        # (simulator and HazardModel share the PipelineParams rules).
        assert lo == stats.interlocks
        assert hi >= stats.interlocks
        validation = _validate(exe, stats)
        assert validation.findings == []
        assert validation.covered_instructions == stats.instructions
        assert validation.interlock_lo <= stats.interlocks \
            <= validation.interlock_hi


# -------------------------------------------------- validation rules


def _stalling_exe():
    return _raw_exe(DLXE, [
        Instr(op=Op.MVHI, rd=3, imm=1),
        Instr(op=Op.LD, rd=4, rs1=3, imm=0),
        Instr(op=Op.ADD, rd=5, rs1=4, rs2=4),       # load-use stall
        Instr(op=Op.TRAP, imm=0),
    ])


class TestValidateRun:
    def test_clean_run_validates(self):
        exe = _stalling_exe()
        stats, _machine = run_executable(exe)
        validation = _validate(exe, stats)
        assert validation.findings == []
        assert validation.interlock_lo >= 1
        assert validation.cycles_lo <= validation.cycles_observed \
            <= validation.cycles_hi
        assert validation.cycles_observed == \
            stats.instructions + stats.interlocks
        assert validation.tightness >= 0.0

    def test_observed_above_upper_bound_tim001(self):
        exe = _stalling_exe()
        stats, _machine = run_executable(exe)
        stats.interlocks = 10 ** 6                  # seeded violation
        validation = _validate(exe, stats)
        assert "TIM001" in _rules(validation.findings)

    def test_observed_below_lower_bound_tim001(self):
        exe = _stalling_exe()
        stats, _machine = run_executable(exe)
        stats.interlocks = 0                        # seeded violation
        validation = _validate(exe, stats)
        findings = [f for f in validation.findings if f.rule == "TIM001"]
        assert findings and "below" in findings[0].message

    def test_stray_execution_site_tim002(self):
        # An executed count at an address no static block covers means
        # the CFG missed code: warn, and keep TIM001 conservative.
        exe = _raw_exe(DLXE, [
            Instr(op=Op.MVI, rd=4, imm=1),          # 0x1000
            Instr(op=Op.TRAP, imm=0),               # 0x1004
            Instr(op=Op.ADD, rd=5, rs1=4, rs2=4),   # 0x1008 unreachable
        ])
        stats, _machine = run_executable(exe)
        stats.exec_counts[2] = 3                    # seeded stray site
        validation = _validate(exe, stats)
        findings = [f for f in validation.findings if f.rule == "TIM002"]
        assert findings and "outside" in findings[0].message

    def test_non_uniform_block_counts_tim002(self):
        exe = _stalling_exe()
        stats, _machine = run_executable(exe)
        stats.exec_counts[1] += 1                   # seeded CFG mismatch
        validation = _validate(exe, stats)
        findings = [f for f in validation.findings if f.rule == "TIM002"]
        assert findings and "vary" in findings[0].message

    def test_static_bounds_describe_smoke(self):
        bounds = static_bounds(build_cfg(_stalling_exe(), DLXE))
        text = bounds.describe()
        assert "blocks" in text and "stalls" in text


# ------------------------------------------ predecessor lookback seeds


def _pred_block(instrs, *, is_call=False, indirect=False, start=0x1000):
    from types import SimpleNamespace

    paired = [(start + 4 * i, ins) for i, ins in enumerate(instrs)]
    return SimpleNamespace(start=start, instrs=paired,
                           is_call=is_call, indirect=indirect)


class TestLookbackSeeds:
    def test_trailing_load_leaves_latency(self):
        pred = _pred_block([Instr(op=Op.LD, rd=5, rs1=3, imm=0)])
        seeds, math_seed = exit_seed(pred, MODEL)
        assert seeds == {5: MODEL.load_delay}
        assert math_seed == 0

    def test_gap_decays_seed(self):
        # One slot between the load and the boundary pays the delay off.
        pred = _pred_block([Instr(op=Op.LD, rd=5, rs1=3, imm=0),
                            Instr(op=Op.ADD, rd=6, rs1=7, rs2=7)])
        seeds, math_seed = exit_seed(pred, MODEL)
        assert seeds == {}
        assert math_seed == 0

    def test_possible_tail_stalls_consume_seed(self):
        # The tail *may* stall (all-busy upper bound), so nothing about
        # the mul result is guaranteed to remain at the boundary.
        pred = _pred_block([Instr(op=Op.MUL, rd=5, rs1=6, rs2=7),
                            Instr(op=Op.ADD, rd=8, rs1=5, rs2=5)])
        seeds, math_seed = exit_seed(pred, MODEL)
        assert 5 not in seeds
        assert math_seed == 0

    def test_math_unit_occupancy_seed(self):
        pred = _pred_block([Instr(op=Op.MUL, rd=5, rs1=6, rs2=7)])
        seeds, math_seed = exit_seed(pred, MODEL)
        mul = Instr(op=Op.MUL, rd=5, rs1=6, rs2=7)
        assert math_seed == MODEL.occupancy(mul.info) - 1
        assert seeds[5] == MODEL.result_latency(mul.info) - 1

    def test_seeded_run_recovers_cross_block_load_use(self):
        pred = _pred_block([Instr(op=Op.LD, rd=5, rs1=3, imm=0)])
        consumer = [Instr(op=Op.ADD, rd=6, rs1=5, rs2=5)]
        assert block_stall_bounds(consumer, MODEL)[0] == 0
        seeded_lo, hi = block_stall_bounds(
            consumer, MODEL, entry_seed=exit_seed(pred, MODEL))
        assert seeded_lo == MODEL.load_delay
        assert hi >= seeded_lo

    def test_lookback_tightens_soundly(self, isa_target):
        from .conftest import compile_run

        source = ("int main() { int i; int s; s = 0;"
                  " for (i = 0; i < 8; i = i + 1) s = s + i * i;"
                  " return s; }")
        stats, _machine, result = compile_run(source, isa_target)
        cfg = resolve_cfg(result.executable,
                          get_target(isa_target).isa).cfg
        warm = static_bounds(cfg)
        for start, bb in warm.blocks.items():
            # The cold bound: the block run from the all-ready state.
            cold_lo, cold_hi = block_stall_bounds(cfg.blocks[start].instrs,
                                                  MODEL)
            assert bb.stall_lo >= cold_lo
            assert bb.stall_hi == cold_hi
        validation = validate_run(warm, stats)
        assert _rules(validation.findings) == set()
        assert validation.interlock_lo <= stats.interlocks


# ----------------------------------------------- whole-program runs


class TestProgramValidation:
    SOURCE = ("int main() { int i; int s; s = 0;"
              " for (i = 0; i < 8; i = i + 1) s = s + i;"
              " return s; }")

    def test_timing_program_brackets_run(self, isa_target):
        built = build_executable(self.SOURCE, isa_target)
        stats, _machine = run_executable(built.executable)
        image = resolve_cfg(built.executable, built.target.isa,
                            symbols=built.labels, target=built.target)
        validation, _findings = timing_cell(image, stats)
        assert validation.findings == []
        assert validation.covered_instructions == stats.instructions
        assert validation.interlock_lo <= validation.interlocks_observed \
            <= validation.interlock_hi

    def test_benchmarks_within_bounds(self, lab):
        # The full 15x2 sweep runs in CI (`repro lint --timing`); two
        # benchmarks per ISA keep tier-1 honest at interactive cost.
        for name in ("ackermann", "towers"):
            for target_name in ("d16", "dlxe"):
                exe = lab.executable(name, target_name)
                run = lab.run(name, target_name)
                validation = _validate(exe, run.stats,
                                       get_target(target_name), lab.params)
                assert validation.findings == [], (name, target_name)
                assert validation.covered_instructions == \
                    run.stats.instructions
                assert validation.interlock_lo <= run.stats.interlocks \
                    <= validation.interlock_hi
