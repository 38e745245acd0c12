"""Backward liveness: bit masks, dead code, and soundness properties.

Two property families pin the analysis against independent oracles on
randomly generated programs (straight-line ALU code with forward
branches, both ISAs):

* **Refinement** — wherever the bit-granular demand analysis says a
  register is live, a classic word-level syntactic use-def fixpoint
  must agree.  The analysis may only be *more* precise (a read that
  feeds a dead result is itself dead), never less.
* **Brute-force soundness** — flipping any bit the analysis proved
  dead, at any point of the actual execution, must leave the program's
  output and exit code byte-identical.  This is the exact masking
  claim the fault-vulnerability classifier builds on.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ValueDomain, absint, resolve_cfg
from repro.analysis.liveness import (FULL, _load_byte_mask,
                                     analyze_liveness, liveness_findings,
                                     smear)
from repro.asm import assemble, link
from repro.bench import SUITE
from repro.cc import build_executable
from repro.cc.target import get_target
from repro.isa import D16, DLXE, Op
from repro.machine import Machine

HEADER = ".text\n.global _start\n_start:\n"

#: Scratch registers the generator is allowed to touch — away from
#: the link register, GP, and SP, so ABI seeding never interferes.
REGS = tuple(range(2, 10))


def build(body, isa=D16):
    return link([assemble(HEADER + body, isa)])


# ------------------------------------------------ mask helper units


def test_smear_closes_demand_downward():
    assert smear(0) == 0
    assert smear(1) == 1
    assert smear(0b1000) == 0b1111
    assert smear(0x8000_0000) == FULL
    assert smear(FULL) == FULL


def test_load_byte_masks():
    assert _load_byte_mask(Op.LD, 0) == 0xFF
    assert _load_byte_mask(Op.LD, 3) == 0xFF00_0000
    assert _load_byte_mask(Op.LDBU, 0) == 0xFF
    assert _load_byte_mask(Op.LDB, 0) == FULL          # sign smears up
    assert _load_byte_mask(Op.LDHU, 1) == 0xFF00
    assert _load_byte_mask(Op.LDH, 0) == 0xFF
    assert _load_byte_mask(Op.LDH, 1) == FULL & ~0xFF  # sign smears up


# ------------------------------------------------ dead-code facts


def test_overwritten_register_write_is_dead():
    exe = build("mvi r3, 5\nmvi r3, 7\nadd r2, r2, r3\ntrap 0\n")
    live = analyze_liveness(resolve_cfg(exe, D16))
    assert not live.imprecise
    dead_pcs = {w.pc for w in live.dead_writes}
    assert exe.text_base in dead_pcs          # first mvi r3 overwritten
    assert exe.text_base + 2 not in dead_pcs  # second one feeds the add


def test_result_feeding_exit_code_is_live():
    exe = build("mvi r2, 9\ntrap 0\n")
    live = analyze_liveness(resolve_cfg(exe, D16))
    assert live.live_mask(exe.text_base + 2, 2) == 0xFF  # exit low byte
    assert not live.dead_writes


def test_unaddressable_and_hardwired_registers_are_dead():
    exe_d16 = build("mvi r2, 0\ntrap 0\n", D16)
    live = analyze_liveness(resolve_cfg(exe_d16, D16))
    assert live.live_mask(exe_d16.text_base, 16) == 0   # no r16 on D16
    exe_dlxe = build("mvi r2, 0\ntrap 0\n", DLXE)
    live = analyze_liveness(resolve_cfg(exe_dlxe, DLXE))
    assert live.live_mask(exe_dlxe.text_base, 0) == 0   # hardwired r0


def test_compiled_suite_cell_has_no_dead_frame_stores():
    from repro.bench import get_benchmark

    source = get_benchmark("ackermann").source
    exe = build_executable(source, "d16").executable
    target = get_target("d16")
    live = analyze_liveness(resolve_cfg(exe, target.isa, target=target))
    findings, waived = liveness_findings(live)
    assert not [f for f in findings if f.rule == "LIV001"]
    # ABI-convention frame traffic is waived with a justification,
    # not silently dropped.
    assert waived and all(why for _where, why in waived)


def _resolved_states(result, target):
    """Reference value states: every function solved again, as the
    liveness analysis did before it read the recovery's states."""
    cfg = result.cfg
    gp_value = cfg.exe.symbols.get("__gp")
    states = {}
    for fstart, name in cfg.funcs:
        blocks = {b.start: b for b in cfg.function_blocks(fstart)}
        if fstart not in blocks:
            continue
        domain = ValueDomain(
            cfg, preserved=absint.callee_saved(target),
            gp_value=None if name == "_start" else gp_value)
        states[fstart] = absint.solve(blocks, fstart, domain)
    return states


@pytest.mark.parametrize("target_name", ["d16", "dlxe"])
def test_liveness_reads_the_recovered_value_states(lab, monkeypatch,
                                                   target_name):
    target = get_target(target_name)
    real_solve = absint.solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args[1])
        return real_solve(*args, **kwargs)

    dead_stores = 0
    for bench in SUITE:
        exe = lab.executable(bench.name, target_name)
        result = resolve_cfg(exe, target.isa, target=target)
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") \
                        and getattr(module, "solve", None) is real_solve:
                    patch.setattr(module, "solve", counting_solve)
            live = analyze_liveness(result)
        assert calls == [], bench.name
        ref_states = _resolved_states(result, target)
        assert result.states == ref_states, bench.name
        ref = analyze_liveness(dataclasses.replace(result,
                                                   states=ref_states))
        assert live.live_in == ref.live_in, bench.name
        assert live.dead_writes == ref.dead_writes, bench.name
        assert live.dead_stores == ref.dead_stores, bench.name
        assert live.loads == ref.loads, bench.name
        dead_stores += len(live.dead_stores)
    # Dead frame stores need the SP-relative values: a liveness run
    # that lost its value states would find none.
    assert dead_stores > 0


# ------------------------------------------------ random programs

_OPS3 = ("add", "sub", "and", "or", "xor")


@st.composite
def programs(draw):
    """A random branchy ALU program in a renderable mini-IR."""
    n = draw(st.integers(3, 11))
    instrs = []
    for _ in range(n):
        kind = draw(st.sampled_from(("mvi", "mv", "alu", "alui")))
        rd = draw(st.sampled_from(REGS))
        ra = draw(st.sampled_from(REGS))
        if kind == "mvi":
            instrs.append(("mvi", rd, draw(st.integers(0, 99))))
        elif kind == "mv":
            instrs.append(("mv", rd, ra))
        elif kind == "alu":
            rb = draw(st.sampled_from(REGS))
            instrs.append((draw(st.sampled_from(_OPS3)), rd, ra, rb))
        else:
            instrs.append((draw(st.sampled_from(("addi", "subi"))),
                           rd, rd, draw(st.integers(0, 31))))
    branches = {}
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        if i not in branches:
            branches[i] = draw(st.integers(i + 1, n))
    cond = draw(st.integers(0, 1))
    return instrs, branches, cond


def render(instrs, branches, cond, d16):
    """Render the mini-IR for one ISA (D16 ALU ops are two-address
    and its conditional branches test the implicit r0)."""
    lines = [f"mvi r0, {cond}"] if d16 else []
    targets = set(branches.values())
    n = len(instrs)
    for i, ins in enumerate(instrs):
        if i in targets:
            lines.append(f"L{i}:")
        if i in branches:
            lines.append(f"bnz r{0 if d16 else ins[1]}, L{branches[i]}")
        op = ins[0]
        if op == "mvi":
            lines.append(f"mvi r{ins[1]}, {ins[2]}")
        elif op == "mv":
            lines.append(f"mv r{ins[1]}, r{ins[2]}")
        elif op in ("addi", "subi"):
            lines.append(f"{op} r{ins[1]}, r{ins[1]}, {ins[3]}")
        else:
            src = ins[1] if d16 else ins[2]
            lines.append(f"{op} r{ins[1]}, r{src}, r{ins[3]}")
    if n in targets:
        lines.append(f"L{n}:")
    lines.append("trap 0")
    return lines


def syntactic_live(lines):
    """Word-level backward use-def fixpoint — the independent oracle."""
    labels, prog = {}, []
    for ln in lines:
        if ln.endswith(":"):
            labels[ln[:-1]] = len(prog)
        else:
            prog.append(ln)
    n = len(prog)
    resolved = []
    for i, ln in enumerate(prog):
        parts = ln.replace(",", "").split()
        op = parts[0]
        if op == "trap":
            resolved.append(({2}, set(), []))   # exit code reads r2
        elif op == "bnz":
            succs = [s for s in (i + 1, labels[parts[2]]) if s < n]
            resolved.append(({int(parts[1][1:])}, set(), succs))
        elif op == "mvi":
            resolved.append((set(), {int(parts[1][1:])}, [i + 1]))
        else:
            uses = {int(p[1:]) for p in parts[2:] if p.startswith("r")}
            resolved.append((uses, {int(parts[1][1:])}, [i + 1]))
    live_in = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in reversed(range(n)):
            uses, defs, succs = resolved[i]
            out = set()
            for s in succs:
                out |= live_in[s]
            new = uses | (out - defs)
            if new != live_in[i]:
                live_in[i] = new
                changed = True
    return prog, live_in


@settings(max_examples=60, deadline=None)
@given(programs(), st.sampled_from(("d16", "dlxe")))
def test_analysis_refines_syntactic_liveness(program, isa_name):
    instrs, branches, cond = program
    isa = D16 if isa_name == "d16" else DLXE
    lines = render(instrs, branches, cond, isa is D16)
    exe = build("\n".join(lines) + "\n", isa)
    live = analyze_liveness(resolve_cfg(exe, isa))
    assert not live.imprecise
    prog, live_in = syntactic_live(lines)
    width = isa.width_bytes
    for i in range(len(prog)):
        pc = exe.text_base + i * width
        for reg in REGS:
            if live.live_mask(pc, reg) != 0:
                assert reg in live_in[i], (lines, i, reg)


@settings(max_examples=25, deadline=None)
@given(programs(), st.sampled_from(("d16", "dlxe")),
       st.randoms(use_true_random=False))
def test_dead_bit_flips_never_change_output(program, isa_name, rng):
    instrs, branches, cond = program
    isa = D16 if isa_name == "d16" else DLXE
    lines = render(instrs, branches, cond, isa is D16)
    exe = build("\n".join(lines) + "\n", isa)
    live = analyze_liveness(resolve_cfg(exe, isa))
    assert not live.imprecise
    golden = Machine(exe).run()
    for trigger in range(1, golden.instructions):
        probe = Machine(exe)
        probe.run(stop_after=trigger)
        if probe.halted:
            break
        reg = rng.choice(REGS)
        mask = live.live_mask(probe.pc, reg)
        dead = FULL & ~mask
        if not dead:
            continue
        bit = rng.choice([b for b in range(32) if dead >> b & 1])
        faulty = Machine(exe)
        faulty.run(stop_after=trigger)
        faulty.g[reg] ^= 1 << bit
        stats = faulty.run()
        assert stats.output == golden.output, (lines, trigger, reg, bit)
        assert stats.exit_code == golden.exit_code, (lines, trigger,
                                                     reg, bit)
