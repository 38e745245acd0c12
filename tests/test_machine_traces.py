"""Instruction/data trace recording used by the cache experiments.

Every test checks both engines.  These programs are straight-line code
that never gets hot, so the fixture compiles each block on its first
entry; on ``blocks`` the traces then come from compiled code.
"""

import pytest

from repro.asm import assemble, link
from repro.isa import D16, DLXE
from repro.machine import Machine
from repro.machine import cpu as cpu_mod
from repro.machine.cpu import decoded_text


@pytest.fixture(autouse=True)
def compile_on_entry(monkeypatch):
    monkeypatch.setattr(cpu_mod, "HOT_THRESHOLD", 0)


def build(src, isa):
    return link([assemble(src, isa)])


def runs(exe, **traces):
    """Run ``exe`` once per engine; yields ``(machine, stats)``."""
    for engine in cpu_mod.ENGINES:
        machine = Machine(exe, engine=engine, **traces)
        stats = machine.run()
        assert bool(machine._live) == (engine == "blocks")
        yield machine, stats


SRC = """
    .text
    .global _start
_start:
    mvi r3, 8
    shli r3, r3, 12
    mvi r4, 5
    st r4, 0(r3)
    ld r5, 0(r3)
    stb r4, (r3)
    ldc r6, pool
    trap 0
    .align 4
pool: .word 99
"""


def test_itrace_records_every_instruction():
    exe = build(SRC, D16)
    for machine, stats in runs(exe, trace_instructions=True):
        assert len(machine.itrace) == stats.instructions
        assert machine.itrace[0] == exe.entry
        # strictly within text
        for pc in machine.itrace:
            assert exe.text_base <= pc < exe.text_base + exe.text_size


def test_dtrace_tags_writes():
    exe = build(SRC, D16)
    for machine, stats in runs(exe, trace_data=True):
        entries = list(machine.dtrace)
        # st, ld, stb, ldc = 4 data accesses
        assert len(entries) == stats.loads + stats.stores == 4
        writes = [e for e in entries if e & 1]
        reads = [e for e in entries if not (e & 1)]
        assert len(writes) == 2            # st + stb
        assert len(reads) == 2             # ld + ldc
        assert writes[0] & ~1 == 0x8000
        # ldc reads from the text segment (literal pools are data
        # reads).
        assert any(exe.text_base <= (e & ~1)
                   < exe.text_base + exe.text_size for e in reads)


def test_traces_disabled_by_default():
    exe = build(SRC, D16)
    for machine, _stats in runs(exe):
        assert machine.itrace is None
        assert machine.dtrace is None


def test_subword_accesses_word_aligned_in_trace():
    dlxe_src = SRC.replace("ldc r6, pool", "ld r6, 0(r3)")
    exe = build(dlxe_src, DLXE)
    for machine, _stats in runs(exe, trace_data=True):
        for entry in machine.dtrace:
            assert (entry & ~1) % 4 == 0


def test_exec_counts_sum_to_instructions():
    exe = build(SRC, D16)
    for _machine, stats in runs(exe):
        assert sum(stats.exec_counts) == stats.instructions
        counted = sum(count for instr, count
                      in stats.executed_instructions(decoded_text(exe)))
        assert counted == stats.instructions


def test_dynamic_op_counts():
    from collections import Counter

    from repro.isa import Op

    exe = build(SRC, D16)
    for _machine, stats in runs(exe):
        counts: Counter = Counter()
        for instr, count in stats.executed_instructions(decoded_text(exe)):
            counts[instr.op] += count
        assert counts[Op.MVI] == 2
        assert counts[Op.LD] == 1
        assert counts[Op.LDC] == 1
        assert counts[Op.TRAP] == 1


def test_engines_record_identical_traces():
    for src, isa in ((SRC, D16),
                     (SRC.replace("ldc r6, pool", "ld r6, 0(r3)"), DLXE)):
        exe = build(src, isa)
        traces = {(tuple(machine.itrace), tuple(machine.dtrace))
                  for machine, _stats in runs(exe, trace_instructions=True,
                                              trace_data=True)}
        assert len(traces) == 1
