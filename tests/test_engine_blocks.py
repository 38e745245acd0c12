"""Block-compiled engine: exact equivalence with the stepping core.

The ``blocks`` engine fuses straight-line instruction runs into
compiled closures; these tests pin the contract that makes it safe to
use as the default: every observable statistic and every recorded
address trace is byte-identical to the per-instruction ``step`` engine,
across normal runs, pause/resume, watchdog expiry, text patching (fault
injection), and whole fault campaigns.

Unit-test programs retire far fewer instructions than the warm-up
threshold, so most tests lower ``repro.machine.cpu.HOT_THRESHOLD`` to
force compilation on the second visit of every block entry.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble, link
from repro.faults import GoldenRun, run_fault
from repro.isa import D16, DLXE, Op
from repro.isa.operations import CONTROL_OPS
from repro.machine import (Machine, MachineError, MachineTimeout,
                           PipelineParams, run_executable)
from repro.machine import cpu as cpu_mod
from repro.machine.blocks import CompiledBlock
from repro.machine.memory import DEFAULT_MEM_SIZE

from .strategies import d16_instructions, dlxe_instructions

HEADER = ".text\n.global _start\n_start:\n"

#: D16 conditional branches implicitly test r0; DLXE hardwires r0 to
#: zero.  Loop counters therefore live in ``{cnt}``, filled per ISA.
CNT = {D16: "r0", DLXE: "r1"}

#: Same aimable loop as test_faults: stores then loads through r4,
#: accumulates into r2, prints chr(21), exits 0.
LOOP_TMPL = """
mvi r4, 8
shli r4, r4, 12
mvi r5, 77
st r5, (r4)
mvi r2, 0
mvi {cnt}, 6
loop:
add r2, r2, {cnt}
ld r6, (r4)
subi {cnt}, {cnt}, 1
bnz {cnt}, loop
trap 1
mvi r2, 0
trap 0
"""

LOOP_BODY = LOOP_TMPL.format(cnt="r0")          # the d16 instance

#: Exercises the inlined op families: ALU, shifts, mul/div/rem,
#: loads/stores of every width, and branches.
MIXED_TMPL = """
mvi r2, 0
mvi r3, 100
mvi r4, 8
shli r4, r4, 12
mvi r10, 7
mvi r11, 5
mv r12, r4
addi r12, r12, 4
mv r13, r4
addi r13, r13, 6
mvi {cnt}, 12
loop:
mv r5, {cnt}
mul r5, r5, r3
div r5, r5, r10
mv r6, r5
rem r6, r6, r11
add r2, r2, r5
sub r2, r2, r6
st r2, (r4)
sth r2, (r12)
stb r2, (r13)
ld r7, (r4)
ldh r8, (r12)
ldb r9, (r13)
add r2, r2, r8
xor r2, r2, r9
subi {cnt}, {cnt}, 1
bnz {cnt}, loop
trap 0
"""

#: FP pipeline: bit moves in, single-precision arithmetic, convert out.
FP_TMPL = """
mvi r2, 7
mvi {cnt}, 5
mvif f0, r2
si2sf f0, f0
mvif f2, {cnt}
si2sf f2, f2
loop:
mv.sf f4, f0
add.sf f4, f4, f2
mul.sf f4, f4, f2
div.sf f4, f4, f0
sf2si f6, f4
mvfi r3, f6
add r2, r2, r3
subi {cnt}, {cnt}, 1
bnz {cnt}, loop
trap 0
"""


@pytest.fixture
def hot(monkeypatch):
    """Compile every block entry on its second visit."""
    monkeypatch.setattr(cpu_mod, "HOT_THRESHOLD", 1)


def build_asm(body, isa=D16):
    return link([assemble(HEADER + body, isa)])


def stats_key(stats):
    """Every RunStats field that run output depends on."""
    return (stats.instructions, stats.loads, stats.stores,
            stats.interlocks, stats.load_interlocks,
            stats.math_interlocks, stats.ifetch_words,
            stats.ifetch_dwords, stats.exit_code, stats.output,
            tuple(stats.exec_counts))


def run_both(exe, **kwargs):
    step, _ = run_executable(exe, engine="step", **kwargs)
    blocks, machine = run_executable(exe, engine="blocks", **kwargs)
    return step, blocks, machine


class TestStatsEquivalence:
    @pytest.mark.parametrize("tmpl", [LOOP_TMPL, MIXED_TMPL, FP_TMPL],
                             ids=["loop", "mixed", "fp"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_asm_programs_identical(self, hot, tmpl, isa):
        exe = build_asm(tmpl.format(cnt=CNT[isa]), isa)
        step, blocks, machine = run_both(exe)
        assert stats_key(step) == stats_key(blocks)
        # The warm-up fixture must have actually engaged the compiler,
        # otherwise this test silently degenerates to step-vs-step.
        assert any(isinstance(blk, CompiledBlock)
                   for blk in machine._blocks)

    @pytest.mark.parametrize("name", ["ackermann", "queens"])
    def test_suite_cells_identical(self, lab, isa_target, name):
        # Real benchmark cells cross HOT_THRESHOLD on their own; CI's
        # engine-equivalence job sweeps all 30 suite cells.
        exe = lab.executable(name, isa_target)
        step, blocks, _ = run_both(exe)
        assert stats_key(step) == stats_key(blocks)


class TestPauseResume:
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_stop_after_snapshots_identical(self, hot, isa):
        exe = build_asm(LOOP_TMPL.format(cnt=CNT[isa]), isa)
        m_step = Machine(exe, engine="step")
        m_blk = Machine(exe, engine="blocks")
        # Pause every 7 retired instructions; every snapshot (taken
        # mid-loop, mid-block) must agree between the engines.
        for stop in range(7, 64, 7):
            s = m_step.run(stop_after=stop)
            b = m_blk.run(stop_after=stop)
            assert stats_key(s) == stats_key(b)
            if m_step.halted:
                break
        final_s = m_step.run()
        final_b = m_blk.run()
        assert stats_key(final_s) == stats_key(final_b)
        assert final_b.output == chr(21)

    def test_resume_matches_uninterrupted_run(self, hot):
        exe = build_asm(MIXED_TMPL.format(cnt="r0"))
        straight, _ = run_executable(exe, engine="blocks")
        paused = Machine(exe, engine="blocks")
        paused.run(stop_after=13)
        paused.run(stop_after=131)
        resumed = paused.run()
        assert stats_key(resumed) == stats_key(straight)


def arch_state(machine):
    """Every architecturally visible piece of machine state.

    Integer registers, FP registers, the FP status flag, the program
    counter, the full memory image, the retirement count, the issue
    clock, and the halt flag: if two engines agree on all of these at
    a pause or watchdog boundary, a program resumed on either engine
    cannot diverge afterwards.
    """
    return (machine.pc, tuple(machine.g), tuple(machine.f),
            tuple(machine.fpstat),
            hashlib.sha256(bytes(machine.mem.data)).hexdigest(),
            machine.instructions_executed, machine.cycle_time,
            machine.halted)


class TestArchStateEquivalence:
    """Mid-block pauses and watchdog fires leave identical state.

    The blocks engine retires whole compiled blocks at a time, so a
    ``stop_after`` or watchdog boundary that lands *inside* a block
    forces it down the stepping path (or through the spill-recovery
    path for in-block aborts).  These tests lock that every such
    boundary leaves the full architectural state — not just the run
    statistics — byte-identical to the step engine's.
    """

    @pytest.mark.parametrize("tmpl", [LOOP_TMPL, MIXED_TMPL, FP_TMPL],
                             ids=["loop", "mixed", "fp"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_pause_mid_block_state_identical(self, hot, tmpl, isa):
        exe = build_asm(tmpl.format(cnt=CNT[isa]), isa)
        m_step = Machine(exe, engine="step")
        m_blk = Machine(exe, engine="blocks")
        # A stride of 5 is coprime with the loop bodies, so pauses
        # land at different offsets inside the compiled loop block.
        for stop in range(5, 200, 5):
            s = m_step.run(stop_after=stop)
            b = m_blk.run(stop_after=stop)
            assert arch_state(m_step) == arch_state(m_blk), \
                f"state diverged at stop_after={stop}"
            assert stats_key(s) == stats_key(b)
            if m_step.halted:
                break
        final_s = m_step.run()
        final_b = m_blk.run()
        assert arch_state(m_step) == arch_state(m_blk)
        assert stats_key(final_s) == stats_key(final_b)
        assert any(isinstance(blk, CompiledBlock)
                   for blk in m_blk._blocks)

    def timeout_state(self, exe, engine, **kwargs):
        machine = Machine(exe, engine=engine)
        with pytest.raises(MachineTimeout) as info:
            machine.run(**kwargs)
        e = info.value
        return machine, (e.reason, e.pc, e.executed)

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_fuel_fire_state_identical(self, hot, isa):
        spin = TestWatchdogs.SPIN.format(cnt=CNT[isa])
        exe = build_asm(spin, isa)
        m_step, e_step = self.timeout_state(exe, "step",
                                            max_instructions=500)
        m_blk, e_blk = self.timeout_state(exe, "blocks",
                                          max_instructions=500)
        assert e_step == e_blk
        assert arch_state(m_step) == arch_state(m_blk)
        assert any(isinstance(blk, CompiledBlock)
                   for blk in m_blk._blocks)

    def test_cycle_fire_state_identical(self, hot):
        exe = build_asm(TestWatchdogs.SPIN.format(cnt="r0"))
        m_step, e_step = self.timeout_state(exe, "step", max_cycles=400)
        m_blk, e_blk = self.timeout_state(exe, "blocks", max_cycles=400)
        assert e_step == e_blk
        assert arch_state(m_step) == arch_state(m_blk)

    def test_no_progress_fire_inside_block_state_identical(self, hot):
        # The self-branch compiles into a block, so the blocks engine
        # detects no-progress *inside* blk.fn and must recover the
        # partially retired block through the spill path before
        # raising -- the step engine's state is the oracle.
        exe = build_asm("mvi r0, 3\nhang:\nbr hang\ntrap 0\n")
        m_step, e_step = self.timeout_state(exe, "step")
        m_blk, e_blk = self.timeout_state(exe, "blocks")
        assert e_step == e_blk
        assert arch_state(m_step) == arch_state(m_blk)

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_resume_after_fuel_fire_completes_identically(self, hot,
                                                          isa):
        # A watchdog fire must not poison the machine: resuming with a
        # bigger budget finishes the program with the same final state
        # and statistics on both engines (and matches a straight run).
        exe = build_asm(LOOP_TMPL.format(cnt=CNT[isa]), isa)
        straight, _ = run_executable(exe, engine="step")
        finals = {}
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine)
            with pytest.raises(MachineTimeout):
                machine.run(max_instructions=17)
            paused = arch_state(machine)
            finals[engine] = (paused, machine.run(), arch_state(machine))
        step_pause, step_stats, step_final = finals["step"]
        blk_pause, blk_stats, blk_final = finals["blocks"]
        assert step_pause == blk_pause
        assert step_final == blk_final
        assert stats_key(step_stats) == stats_key(blk_stats)
        # The fuel-tripping instruction is charged to the count before
        # it executes and re-runs on resume, so retirement counts sit
        # one above an uninterrupted run; the program-visible outcome
        # must still be identical.
        assert blk_stats.output == straight.output
        assert blk_stats.exit_code == straight.exit_code


class TestWatchdogs:
    SPIN = "mvi {cnt}, 1\nloop:\naddi {cnt}, {cnt}, 1\n" \
           "bnz {cnt}, loop\ntrap 0\n"

    def timeout_of(self, exe, engine, **kwargs):
        with pytest.raises(MachineTimeout) as info:
            Machine(exe, engine=engine).run(**kwargs)
        e = info.value
        return (e.reason, e.pc, e.executed)

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_fuel_expiry_identical(self, hot, isa):
        exe = build_asm(self.SPIN.format(cnt=CNT[isa]), isa)
        step = self.timeout_of(exe, "step", max_instructions=500)
        blocks = self.timeout_of(exe, "blocks", max_instructions=500)
        assert step == blocks
        assert "instruction limit" in step[0]
        assert step[2] == 501     # raised on the 501st retirement

    def test_cycle_expiry_identical(self, hot):
        exe = build_asm(self.SPIN.format(cnt="r0"))
        step = self.timeout_of(exe, "step", max_cycles=400)
        blocks = self.timeout_of(exe, "blocks", max_cycles=400)
        assert step == blocks
        assert "cycle limit" in step[0]

    def test_self_branch_no_progress_identical(self, hot):
        exe = build_asm("mvi r0, 3\nhang:\nbr hang\ntrap 0\n")
        step = self.timeout_of(exe, "step")
        blocks = self.timeout_of(exe, "blocks")
        assert step == blocks
        assert "no-progress" in step[0]


class TestPatchInvalidation:
    def test_patched_slot_invalidates_containing_block(self, hot):
        exe = build_asm(LOOP_BODY)
        golden, _ = run_executable(exe, engine="step")

        machine = Machine(exe, engine="blocks")
        machine.run(stop_after=20)          # loop body is compiled now
        compiled_entries = {blk.entry for blk in machine._live.values()}
        assert compiled_entries, "loop never compiled; fixture broken"

        # Re-encode a loop-body slot with its own bytes: semantics are
        # unchanged, but the containing block must be torn down and the
        # run must still retire the exact golden statistics.
        idx = next(iter(compiled_entries))
        width = machine.isa.width_bytes
        addr = machine.exe.text_base + idx * width
        raw = bytes(machine.mem.data[addr:addr + width])
        machine.patch_text(idx, raw)
        assert not any(blk.entry <= idx < blk.entry + blk.n
                       for blk in machine._live.values())

        final = machine.run()
        assert stats_key(final) == stats_key(golden)

    def test_patch_diverges_from_shared_code_cache(self, hot):
        # Two machines share exe._block_code_cache; patching one must
        # not leak stale compiled semantics into it or out of it.
        exe = build_asm(LOOP_BODY)
        pristine = Machine(exe, engine="blocks")
        base = pristine.run()

        patched = Machine(exe, engine="blocks")
        patched.run(stop_after=20)
        idx = next(iter(patched._live)) if patched._live else 6
        width = patched.isa.width_bytes
        addr = patched.exe.text_base + idx * width
        patched.patch_text(
            idx, bytes(patched.mem.data[addr:addr + width]))
        patched.run()

        fresh = Machine(exe, engine="blocks")
        again = fresh.run()
        assert stats_key(again) == stats_key(base)


class TestFaultEquivalence:
    #: (kind, trigger, coords) drawn from the locked campaign shapes:
    #: masked, SDC, detected, hang, and text-patching ifetch flips.
    SPECS = [("reg", 2, {"reg": 9, "bit": 3}),
             ("reg", 8, {"reg": 2, "bit": 4}),
             ("reg", 8, {"reg": 4, "bit": 31}),
             ("reg", 8, {"reg": 0, "bit": 24}),
             ("ifetch", 8, {"bit": 1}),
             ("ifetch", 8, {"bit": 5})]

    def test_outcomes_identical_across_engines(self, hot, monkeypatch):
        from repro.faults import FaultSpec

        exe = build_asm(LOOP_BODY)
        golden_stats, _ = run_executable(exe, engine="step")
        golden = GoldenRun(instructions=golden_stats.instructions,
                           interlocks=golden_stats.interlocks,
                           exit_code=golden_stats.exit_code,
                           output=golden_stats.output)

        results = {}
        for engine in ("step", "blocks"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            results[engine] = [
                run_fault(exe,
                          FaultSpec(index=0, bench="t", target="d16",
                                    kind=kind, trigger=trigger, **coords),
                          golden)
                for kind, trigger, coords in self.SPECS]
        for step_r, blk_r in zip(results["step"], results["blocks"]):
            assert step_r.outcome == blk_r.outcome
            assert step_r.detail == blk_r.detail
            assert step_r.latency_cycles == blk_r.latency_cycles


#: Doubles the load pointer every iteration, so the sixth load
#: (0x8000 << 5 = 0x100000) falls off the end of the 1 MiB memory
#: before the nine-iteration loop ends.  The store after each load
#: puts writes in the data trace.
FAULTING_LOAD_TMPL = """
mvi r4, 8
shli r4, r4, 12
mvi {cnt}, 9
loop:
add r2, r2, {cnt}
ld r6, (r4)
st r6, (r4)
add r4, r4, r4
subi {cnt}, {cnt}, 1
bnz {cnt}, loop
trap 0
"""


def traces_of(machine):
    """The recorded traces as plain lists (None when not recorded)."""
    return tuple(None if trace is None else list(trace)
                 for trace in (machine.itrace, machine.dtrace))


def compiled(machine):
    return bool(machine._live)


class TestTracedBlocks:
    """Traced machines run compiled blocks and record the step traces.

    Each compiled block extends the instruction trace with its pcs on
    entry and appends every inline data access after it happens; the
    step engine's traces are the oracle.  Every test checks that the
    blocks machine compiled something, so none can pass by stepping.
    """

    @pytest.mark.parametrize("tmpl", [LOOP_TMPL, MIXED_TMPL, FP_TMPL],
                             ids=["loop", "mixed", "fp"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_traces_identical(self, hot, tmpl, isa):
        exe = build_asm(tmpl.format(cnt=CNT[isa]), isa)
        step, m_step = run_executable(exe, engine="step",
                                      trace_instructions=True,
                                      trace_data=True)
        blocks, m_blk = run_executable(exe, engine="blocks",
                                       trace_instructions=True,
                                       trace_data=True)
        assert compiled(m_blk)
        assert traces_of(m_step) == traces_of(m_blk)
        assert stats_key(step) == stats_key(blocks)
        assert len(m_blk.itrace) == blocks.instructions

    @pytest.mark.parametrize("itrace,dtrace", [(True, False), (False, True)],
                             ids=["itrace", "dtrace"])
    def test_single_trace_identical(self, hot, itrace, dtrace):
        exe = build_asm(MIXED_TMPL.format(cnt="r0"))
        machines = {}
        for engine in ("step", "blocks"):
            machines[engine] = Machine(exe, engine=engine,
                                       trace_instructions=itrace,
                                       trace_data=dtrace)
            machines[engine].run()
        assert compiled(machines["blocks"])
        assert traces_of(machines["step"]) == traces_of(machines["blocks"])

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_load_fault_inside_block(self, hot, isa):
        exe = build_asm(FAULTING_LOAD_TMPL.format(cnt=CNT[isa]), isa)
        outcomes = {}
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine, trace_instructions=True,
                              trace_data=True)
            with pytest.raises(MachineError) as info:
                machine.run()
            outcomes[engine] = (machine, str(info.value))
        (m_step, e_step), (m_blk, e_blk) = outcomes["step"], \
            outcomes["blocks"]
        assert e_step == e_blk
        assert "out of range" in e_blk
        assert traces_of(m_step) == traces_of(m_blk)
        assert arch_state(m_step) == arch_state(m_blk)
        # The faulting load retired into the instruction trace but
        # never reached the data trace: its pc ends the one, the
        # previous iteration's store ends the other.
        load_pc = m_blk.itrace[-1]
        load = m_blk.index_of(load_pc)
        assert f"at pc={load_pc:#x}" in e_blk
        assert m_blk.program[load].op.value == "ld"
        assert any(blk.entry < load < blk.entry + blk.n - 1
                   for blk in m_blk._live.values()), "fault not mid-block"
        assert m_blk.dtrace[-1] == 0x80000 | 1
        assert len(m_blk.itrace) == m_blk.instructions_executed

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_pause_resume_traces_identical(self, hot, isa):
        exe = build_asm(MIXED_TMPL.format(cnt=CNT[isa]), isa)
        m_step = Machine(exe, engine="step", trace_instructions=True,
                         trace_data=True)
        m_blk = Machine(exe, engine="blocks", trace_instructions=True,
                        trace_data=True)
        for stop in range(5, 200, 5):
            m_step.run(stop_after=stop)
            m_blk.run(stop_after=stop)
            assert traces_of(m_step) == traces_of(m_blk), stop
            assert len(m_blk.itrace) == stop
        final_s = m_step.run()
        final_b = m_blk.run()
        assert compiled(m_blk)
        assert traces_of(m_step) == traces_of(m_blk)
        assert stats_key(final_s) == stats_key(final_b)

    def test_fuel_expiry_traces_identical(self, hot):
        exe = build_asm(MIXED_TMPL.format(cnt="r0"))
        outcomes = {}
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine, trace_instructions=True,
                              trace_data=True)
            with pytest.raises(MachineTimeout) as info:
                machine.run(max_instructions=150)
            e = info.value
            outcomes[engine] = (machine, (e.reason, e.pc, e.executed))
        (m_step, e_step), (m_blk, e_blk) = outcomes["step"], \
            outcomes["blocks"]
        assert compiled(m_blk)
        assert e_step == e_blk
        assert traces_of(m_step) == traces_of(m_blk)
        # The instruction that tripped the watchdog never executed.
        assert len(m_blk.itrace) == 150

    def test_patch_text_on_traced_machine(self, hot):
        exe = build_asm(LOOP_BODY)
        results = {}
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine, trace_instructions=True,
                              trace_data=True)
            machine.run(stop_after=20)
            # Flip the loop's load to another destination register: the
            # patched block is regenerated (traced) off the shared cache.
            width = machine.isa.width_bytes
            load = next(i for i, instr in enumerate(machine.program)
                        if instr is not None and instr.op.value == "ld")
            addr = machine.exe.text_base + load * width
            raw = bytearray(machine.mem.data[addr:addr + width])
            raw[0] ^= 1
            assert machine.patch_text(load, bytes(raw)) is not None
            stats = machine.run()
            results[engine] = (traces_of(machine), stats_key(stats))
        assert any(blk.entry <= load < blk.entry + blk.n
                   for blk in machine._live.values())
        assert results["step"] == results["blocks"]

    @pytest.mark.parametrize("first", [False, True],
                             ids=["untraced-first", "traced-first"])
    def test_code_cache_keyed_by_traces(self, hot, first):
        # Machines on one Executable share its code cache; a traced
        # machine must never pick up untraced code, or the reverse.
        exe = build_asm(MIXED_TMPL.format(cnt="r0"))
        _, oracle = run_executable(exe, engine="step",
                                   trace_instructions=True,
                                   trace_data=True)
        plain, _ = run_executable(exe, engine="step")
        for traced in (first, not first):
            stats, machine = run_executable(exe, engine="blocks",
                                            trace_instructions=traced,
                                            trace_data=traced)
            assert compiled(machine)
            if traced:
                assert traces_of(machine) == traces_of(oracle)
            else:
                assert traces_of(machine) == (None, None)
            assert stats_key(stats) == stats_key(plain)


def trap_state(machine):
    """The trap handler's state: I/O positions, heap and exit."""
    traps = machine.traps
    return (bytes(traps.stdout), traps.stdin, traps.stdin_pos, traps.brk,
            traps.heap_limit, traps.exited, traps.exit_code,
            traps.last_trap)


class TestFork:
    """``Machine.fork`` resumes exactly as the machine it was taken
    from, and nothing done to the fork reaches that machine.

    The fault campaigns depend on both halves: each fault is injected
    into a fork of one fault-free machine walking the golden path, and
    every later fault forks the same machine again.
    """

    #: Pause points: the entry block, inside the loop at several
    #: offsets, and (for the short loop) past the exit.
    STOPS = (1, 6, 9, 23, 30, 150)
    STDIN = b"xyz"
    #: One perturbation of each kind the injector applies: a register
    #: flip, a memory flip, a text patch and two trap-state changes.
    PERTURBATIONS = (("reg", {"reg": 2, "bit": 4}),
                     ("mem", {"addr": 0x8000, "bit": 0}),
                     ("ifetch", {"bit": 1}),
                     ("trap", {"mode": "getc-eof"}),
                     ("trap", {"mode": "sbrk-exhaust"}))

    def machine(self, exe, engine, **traces):
        return Machine(exe, engine=engine, stdin=self.STDIN, **traces)

    def final(self, machine, stats):
        return (stats_key(stats), arch_state(machine), trap_state(machine),
                tuple(machine._ready), tuple(machine._rkind))

    def golden(self, exe, engine):
        machine = self.machine(exe, engine)
        return self.final(machine, machine.run())

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    @pytest.mark.parametrize("tmpl", [LOOP_TMPL, MIXED_TMPL, FP_TMPL],
                             ids=["loop", "mixed", "fp"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_fork_then_run_equals_uninterrupted_run(self, hot, tmpl, isa,
                                                    engine):
        exe = build_asm(tmpl.format(cnt=CNT[isa]), isa)
        want = self.golden(exe, engine)
        for stop in self.STOPS:
            parent = self.machine(exe, engine)
            parent.run(stop_after=stop)
            twin = parent.fork()
            assert arch_state(twin) == arch_state(parent)
            assert self.final(twin, twin.run()) == want, stop
            assert self.final(parent, parent.run()) == want, stop

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    @pytest.mark.parametrize("tmpl", [LOOP_TMPL, MIXED_TMPL],
                             ids=["loop", "mixed"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_perturbed_fork_leaves_parent_golden(self, hot, tmpl, isa,
                                                 engine):
        from repro.faults import FaultSpec, apply_fault

        exe = build_asm(tmpl.format(cnt=CNT[isa]), isa)
        want = self.golden(exe, engine)
        for stop in self.STOPS[:-1]:
            for kind, coords in self.PERTURBATIONS:
                parent = self.machine(exe, engine)
                parent.run(stop_after=stop)
                twin = parent.fork()
                apply_fault(twin, FaultSpec(index=0, bench="t", target="t",
                                            kind=kind, trigger=stop,
                                            **coords))
                try:
                    twin.run(max_instructions=5_000)
                except MachineError:
                    pass
                assert self.final(parent, parent.run()) == want, \
                    (stop, kind, coords)

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_fork_keeps_patched_slots(self, hot, isa, engine):
        from repro.faults import FaultSpec, apply_fault

        exe = build_asm(MIXED_TMPL.format(cnt=CNT[isa]), isa)
        for stop in self.STOPS[:-1]:
            for bit in (1, 5):
                parent = self.machine(exe, engine)
                parent.run(stop_after=stop)
                apply_fault(parent, FaultSpec(index=0, bench="t",
                                              target="t", kind="ifetch",
                                              trigger=stop, bit=bit))
                twin = parent.fork()
                ends = []
                for machine in (twin, parent):
                    try:
                        end = stats_key(machine.run(max_instructions=5_000))
                    except MachineError as exc:
                        end = str(exc)
                    ends.append((end, arch_state(machine),
                                 trap_state(machine)))
                assert ends[0] == ends[1], (stop, bit)

    @pytest.mark.parametrize("engine", ["step", "blocks"])
    def test_traced_machine_forks_its_traces(self, hot, engine):
        exe = build_asm(MIXED_TMPL.format(cnt="r0"))
        traces = {"trace_instructions": True, "trace_data": True}
        golden = self.machine(exe, engine, **traces)
        golden.run()
        parent = self.machine(exe, engine, **traces)
        parent.run(stop_after=37)
        twin = parent.fork()
        assert traces_of(twin) == traces_of(parent)
        twin.run()
        assert traces_of(twin) == traces_of(golden)
        parent.run()
        assert traces_of(parent) == traces_of(golden)


#: Each iteration reads a (store address, load address) pair from a
#: table the test writes at ``TABLE``, then stores through the first and
#: loads through the second, so a test picks the iteration and the
#: access that faults.  The store and the load sit mid-block.
TABLE = 0x8000
TABLE_TMPL = """
mvi r5, 8
shli r5, r5, 12
mvi {cnt}, 8
loop:
ld r4, (r5)
ld r7, 4(r5)
addi r5, r5, 8
add r2, r2, {cnt}
st r2, (r4)
ld r6, (r7)
add r3, r3, r6
subi {cnt}, {cnt}, 1
bnz {cnt}, loop
trap 0
"""


def paused_state(machine):
    """Everything a run leaves behind, valid after a raise as well."""
    return (arch_state(machine), dict(machine._st), tuple(machine.counts),
            tuple(machine._ready), tuple(machine._rkind),
            traces_of(machine))


class TestInlineWordAccess:
    """Compiled blocks access aligned, in-range words directly and hand
    every other address to the ``Memory`` accessor.

    The step engine always calls the accessor, so it is the oracle for
    the error text and for everything a raise leaves behind.
    """

    def run_table(self, exe, engine, pairs, traced, **kwargs):
        machine = Machine(exe, engine=engine, trace_instructions=traced,
                          trace_data=traced, **kwargs)
        for i, (store, load) in enumerate(pairs):
            machine.mem.write_word(TABLE + 8 * i, store)
            machine.mem.write_word(TABLE + 8 * i + 4, load)
        try:
            end = stats_key(machine.run())
        except MachineError as exc:
            end = str(exc)
        return machine, end

    def both(self, exe, pairs, traced, **kwargs):
        m_step, e_step = self.run_table(exe, "step", pairs, traced,
                                        **kwargs)
        m_blk, e_blk = self.run_table(exe, "blocks", pairs, traced,
                                      **kwargs)
        assert e_step == e_blk
        assert paused_state(m_step) == paused_state(m_blk)
        assert compiled(m_blk)
        return m_blk, e_blk

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_last_valid_word(self, hot, isa, traced):
        exe = build_asm(TABLE_TMPL.format(cnt=CNT[isa]), isa)
        last = DEFAULT_MEM_SIZE - 4
        machine, end = self.both(exe, [(last, last)] * 8, traced)
        assert not isinstance(end, str), end
        # The last iteration stored r2 = 8 + 7 + ... + 1 = 36 there, and
        # r3 sums every value loaded back: 8 + 15 + 21 + ... + 36.
        assert machine.mem.read_word(last) == 36
        assert machine.g[3] == 204

    @pytest.mark.parametrize("bad", [
        ("load", 0x9002, "misaligned 4-byte access at 0x9002"),
        ("store", 0x9001, "misaligned 4-byte access at 0x9001"),
        ("store", 0x100000, "access at 0x100000 out of range"),
        ("store", 0xFFFFFFFC, "access at 0xfffffffc out of range"),
    ], ids=["misaligned-load", "misaligned-store", "store-past-end",
            "store-wraps"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_fault_mid_block(self, hot, isa, traced, bad):
        access, addr, text = bad
        exe = build_asm(TABLE_TMPL.format(cnt=CNT[isa]), isa)
        pairs = [(0x9000 + 8 * i, 0x9000 + 8 * i) for i in range(8)]
        pairs[5] = (addr, pairs[5][1]) if access == "store" \
            else (pairs[5][0], addr)
        machine, end = self.both(exe, pairs, traced)
        assert isinstance(end, str) and text in end
        # The sixth iteration faults inside a compiled block, past the
        # first load and before the branch that ends the block.
        pc = int(end.split("at pc=")[1].split(":")[0], 16)
        slot = machine.index_of(pc)
        assert machine.program[slot].op.value == \
            ("st" if access == "store" else "ld")
        assert any(blk.entry < slot < blk.entry + blk.n - 1
                   for blk in machine._live.values()), "fault not mid-block"

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_smaller_memory_shares_code_and_keeps_its_bound(self, hot, isa):
        # Code objects are cached per Executable and do not depend on
        # the memory size: each machine binds its own bytearray and
        # bound, so a smaller machine faults where a larger one does not.
        exe = build_asm(TABLE_TMPL.format(cnt=CNT[isa]), isa)
        word = 0x7FFFC
        pairs = [(0x9000, 0x9000)] * 5 + [(word, word)] * 3
        _, end = self.both(exe, pairs, False)
        assert not isinstance(end, str), end
        cached = set(exe._block_code_cache)
        _, end = self.both(exe, pairs, False, mem_size=word + 4)
        assert not isinstance(end, str), end
        _, end = self.both(exe, pairs, False, mem_size=0x40000)
        assert f"access at {word:#x} out of range" in end
        assert set(exe._block_code_cache) == cached

    #: (a, b, shift): operands with the sign bit set, the most negative
    #: word over -1, a shift count above 31, and dividends and divisors
    #: of either sign.
    SIGNED = [(-7, 2, 33), (-(1 << 31), -1, 31), (-1, -3, 1),
              (12345, -67, 4), (-100000, 7, 0)]

    @pytest.mark.parametrize("a,b,shift", SIGNED)
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_signed_operands(self, hot, isa, a, b, shift):
        # CMPI has no D16 encoding; every D16 CMP writes r0.
        cmp_rd = "r0" if isa is D16 else "r13"
        extra = "" if isa is D16 else (
            "cmpilt r14, r4, -5\nadd r12, r12, r14\n"
            "cmpige r14, r5, -9\nadd r12, r12, r14\n")
        body = (f"mv r6, r4\nshra r6, r6, r8\n"
                f"mv r7, r4\nshrai r7, r7, 5\n"
                f"mv r9, r4\nmul r9, r9, r5\n"
                f"mv r10, r4\ndiv r10, r10, r5\n"
                f"mv r11, r4\nrem r11, r11, r5\n"
                f"cmplt {cmp_rd}, r4, r5\nadd r12, r12, {cmp_rd}\n"
                f"cmple {cmp_rd}, r5, r4\nadd r12, r12, {cmp_rd}\n"
                f"{extra}subi r4, r4, 3\n")
        exe = build_asm(SKELETON.format(cnt=CNT[isa], body=body,
                                        n=HOT_ITERATIONS), isa)
        finals = []
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine)
            machine.g[4], machine.g[5], machine.g[8] = \
                a & 0xFFFFFFFF, b & 0xFFFFFFFF, shift
            stats = machine.run()
            finals.append((stats_key(stats), paused_state(machine)))
        assert finals[0] == finals[1]
        assert compiled(machine)


#: A loop around ``body`` whose counter lives in r15, so the body may
#: write every other register, r0 included (D16's branches and CMP use
#: r0).  ``n`` iterations.
SKELETON = """
mvi r15, {n}
loop:
{body}
mv {cnt}, r15
subi {cnt}, {cnt}, 1
mv r15, {cnt}
bnz {cnt}, loop
trap 0
"""

#: Enough iterations to cross the real warm-up threshold, so the
#: property test below needs no patched threshold.
HOT_ITERATIONS = cpu_mod.HOT_THRESHOLD + 4


#: Alignment mask of each memory operation's access.
_ACCESS_ALIGN = {Op.LD: 3, Op.ST: 3, Op.LDH: 1, Op.LDHU: 1, Op.STH: 1,
                 Op.LDB: 0, Op.LDBU: 0, Op.STB: 0}

_MATH_CLASSES = sorted(PipelineParams().math_latency)

pipelines = st.builds(
    lambda load_delay, lats: PipelineParams(
        load_delay=load_delay, math_latency=dict(zip(_MATH_CLASSES, lats))),
    st.integers(0, 3),
    st.lists(st.integers(1, 12), min_size=len(_MATH_CLASSES),
             max_size=len(_MATH_CLASSES)))


def loopable(isa):
    """Random instructions the ``SKELETON`` body may hold.

    No control transfer or trap, nothing that writes the loop counter
    r15, and no memory operation based on r15 or on DLXe's hardwired
    r0, whose base ``aimed`` could not set.
    """
    bad_bases = {15} if isa is D16 else {0, 15}
    instrs = d16_instructions() if isa is D16 else dlxe_instructions()
    return instrs.filter(lambda instr: (
        instr.op not in CONTROL_OPS and instr.op != Op.TRAP
        and ("g", 15) not in instr.writes()
        and not (instr.op in _ACCESS_ALIGN and instr.rs1 in bad_bases)))


def aimed(isa, instr):
    """Assembly for ``instr``, a memory operation first pointed at an
    aligned address in a data window (D16 0x8000, DLXe near 0x10000)."""
    line = str(instr)
    if instr.op not in _ACCESS_ALIGN:
        return line
    base = f"r{instr.rs1}"
    if isa is D16:      # D16 offsets are aligned already
        return f"mvi {base}, 8\nshli {base}, {base}, 12\n{line}"
    pad = -instr.imm & _ACCESS_ALIGN[instr.op]
    return f"mvhi {base}, 1\naddi {base}, {base}, {pad}\n{line}"


class TestHazardElisionProperty:
    """Which scoreboard checks a block drops depends on the latencies,
    so random straight-line runs are looped past the warm-up threshold
    under random pipelines, and every counter, register, memory byte
    and scoreboard entry must match ``step``.
    """

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_random_runs_match_step(self, isa, data):
        run = data.draw(st.lists(loopable(isa), min_size=1, max_size=16))
        params = data.draw(pipelines)
        regs = data.draw(st.lists(st.integers(0, 0xFFFFFFFF),
                                  min_size=32, max_size=32))
        floats = data.draw(st.lists(st.floats(-1e6, 1e6, width=32),
                                    min_size=32, max_size=32))
        body = "\n".join(aimed(isa, instr) for instr in run)
        exe = build_asm(SKELETON.format(cnt=CNT[isa], body=body,
                                        n=HOT_ITERATIONS), isa)
        if isa is DLXE:
            regs[0] = 0
        finals = []
        for engine in ("step", "blocks"):
            machine = Machine(exe, engine=engine, params=params)
            machine.g[:] = regs
            machine.f[:] = [struct.unpack("<I", struct.pack("<f", x))[0]
                            for x in floats]
            try:
                end = stats_key(machine.run())
            except Exception as exc:  # both engines must raise alike
                end = (type(exc).__name__, str(exc))
            finals.append((end, paused_state(machine)))
        assert finals[0] == finals[1]
