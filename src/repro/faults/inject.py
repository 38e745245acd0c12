"""Execute one fault against a machine and classify the outcome.

The injector leans on the machine layer's pause/resume support: run the
program to the trigger point (``stop_after``), perturb the paused
machine in place, then resume under a watchdog sized from the golden
run.  Classification diffs stdout, exit code, and
:class:`~repro.machine.RunStats` against the golden execution and maps
every simulator exception onto the outcome taxonomy of
:mod:`repro.faults.model`.

Function attribution reads the function table the linker records on
the image (:attr:`~repro.asm.objfile.Executable.functions`): the
function starts map the injection pc back to the source-level
function, so a campaign can report *which* functions are soft spots on
each ISA.

A campaign that injects many faults into one program passes
:func:`run_fault` the snapshots its golden run stored
(:meth:`~repro.machine.Machine.restore`), so no site simulates its
fault-free prefix from instruction 0.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Iterable, Sequence

from ..cache.cache import CacheConfig
from ..cc import build_executable
from ..machine import (Machine, MachineError, MachineTimeout, MemoryError_,
                       TrapError)
from ..machine.cpu import DEFAULT_FUEL
from .model import (CRASH, DETECTED, HANG, MASKED, SDC, FaultResult,
                    FaultSpec, GoldenRun)

if TYPE_CHECKING:
    from ..asm.objfile import Executable
    from ..machine import Snapshot
    from ..machine.pipeline import PipelineParams

#: Faulty runs get this many times the golden path length as fuel
#: (plus a flat margin for short programs) before they count as hung.
FUEL_FACTOR = 4
FUEL_MARGIN = 10_000

#: The instruction cache a ``cache`` fault corrupts, and the one the
#: static masking oracle assumes.
FAULT_CACHE = CacheConfig(size=8192)


def fuel_for(golden: GoldenRun) -> int:
    """Instruction watchdog budget for a faulty run."""
    return min(golden.instructions * FUEL_FACTOR + FUEL_MARGIN,
               DEFAULT_FUEL)


class FunctionMap:
    """Maps text addresses to function names via function starts."""

    def __init__(self, functions: dict[str, int]):
        """``functions`` maps each name to its start address, as
        :attr:`Executable.functions` does."""
        entries = sorted((start, name) for name, start in functions.items())
        self._starts = [start for start, _name in entries]
        self._names = [name for _start, name in entries]

    @classmethod
    def for_source(cls, source: str, target: str) -> "FunctionMap":
        """Build ``source`` for ``target`` and read the image's table."""
        return cls(build_executable(source, target).executable.functions)

    def function_at(self, pc: int) -> str:
        """Name of the function whose entry precedes ``pc`` (or '')."""
        pos = bisect.bisect_right(self._starts, pc)
        return self._names[pos - 1] if pos else ""


def apply_fault(machine: Machine, spec: FaultSpec) -> str:
    """Perturb a paused machine in place; returns a description."""
    if spec.kind == "ifetch":
        idx = machine.index_of(machine.pc)
        width = machine.isa.width_bytes
        addr = machine.exe.text_base + idx * width
        raw = bytearray(machine.mem.data[addr:addr + width])
        bit = spec.bit % (width * 8)
        raw[bit // 8] ^= 1 << (bit % 8)
        instr = machine.patch_text(idx, bytes(raw))
        decoded = instr.op.value if instr is not None else "<undecodable>"
        return (f"flipped bit {bit} of instruction word at "
                f"{machine.pc:#x} -> {decoded}")
    if spec.kind == "reg":
        reg = spec.reg % 32
        bit = spec.bit % 32
        machine.g[reg] ^= 1 << bit
        if reg == 0 and machine.isa.name == "DLXe":
            machine.g[0] = 0          # architecturally hard-wired zero
            return "flip of hard-wired r0 (absorbed)"
        return f"flipped bit {bit} of r{reg}"
    if spec.kind == "mem":
        addr = spec.addr % machine.mem.size
        machine.mem.data[addr] ^= 1 << (spec.bit % 8)
        return f"flipped bit {spec.bit % 8} of byte at {addr:#x}"
    if spec.kind == "trap":
        traps = machine.traps
        if spec.mode == "getc-eof":
            traps.stdin = traps.stdin[:traps.stdin_pos]
            return "stdin truncated at current position (GETC now EOF)"
        if spec.mode == "sbrk-exhaust":
            traps.heap_limit = max(traps.brk, traps.heap_base)
            return "heap limit pulled to current break (SBRK now fails)"
        raise ValueError(f"unknown trap fault mode {spec.mode!r}")
    raise ValueError(f"unknown fault kind {spec.kind!r}")


def run_fault(exe: "Executable", spec: FaultSpec, golden: GoldenRun, *,
              params: "PipelineParams | None" = None,
              functions: FunctionMap | None = None,
              checkpoints: Sequence["Snapshot"] = ()) -> FaultResult:
    """Run ``exe`` with one injected fault; classify against golden.

    The fault-free prefix up to the trigger starts from the last of
    ``checkpoints`` (snapshots of the golden run, in order) taken at or
    before ``spec.trigger``, or from a fresh machine when none was.
    The result is the same either way.
    """
    fuel = fuel_for(golden)
    at = bisect.bisect_right([snapshot.executed for snapshot in checkpoints],
                             spec.trigger) - 1
    machine = (Machine.restore(exe, checkpoints[at], params=params)
               if at >= 0 else Machine(exe, params=params))
    try:
        machine.run(stop_after=spec.trigger, max_instructions=fuel)
    except MachineError as exc:
        # The *golden* path cannot fault before the trigger unless
        # the trigger itself is past the program's end — a planning
        # bug.
        return FaultResult(spec=spec, outcome=CRASH,
                           detail=f"pre-injection failure: {exc}")
    if machine.halted:
        return FaultResult(
            spec=spec, outcome=MASKED,
            detail="program exited before the trigger point")

    function = functions.function_at(machine.pc) if functions else ""
    try:
        where = apply_fault(machine, spec)
    except Exception as exc:  # noqa: BLE001 - injector bug, not program
        return FaultResult(spec=spec, outcome=CRASH, function=function,
                           detail=f"injection failed: {exc}")
    injected_at = machine.cycle_time

    try:
        stats = machine.run(max_instructions=fuel)
    except MachineTimeout as exc:
        return FaultResult(spec=spec, outcome=HANG, function=function,
                           detail=f"{where}; {exc.reason}")
    except (MemoryError_, TrapError, MachineError) as exc:
        return FaultResult(
            spec=spec, outcome=DETECTED, function=function,
            detail=f"{where}; {type(exc).__name__}: {exc}",
            latency_cycles=machine.cycle_time - injected_at)
    except Exception as exc:  # noqa: BLE001 - host-level failure
        return FaultResult(spec=spec, outcome=CRASH, function=function,
                           detail=f"{where}; {type(exc).__name__}: {exc}")

    if stats.output != golden.output or stats.exit_code != golden.exit_code:
        return FaultResult(spec=spec, outcome=SDC, function=function,
                           detail=where)
    differ = (stats.instructions != golden.instructions
              or stats.interlocks != golden.interlocks)
    return FaultResult(spec=spec, outcome=MASKED, function=function,
                       detail=where, stats_differ=differ)


def run_cache_fault(itrace: Iterable[int], spec: FaultSpec) -> FaultResult:
    """Replay an instruction-address trace with one corrupt cache line.

    The :mod:`repro.cache` models carry no data, only metadata (tags
    and per-sub-block valid bits), so "silent corruption" here means
    the *measured statistics* diverge from a clean replay: a flipped
    valid bit fakes a hit on stale contents or forces a refetch, and a
    flipped tag bit does the same at line granularity.  Masked means
    the corrupt metadata was overwritten before it was ever consulted.
    The cache is :data:`FAULT_CACHE`, the one the masking oracle
    assumes.
    """
    from ..cache import Cache, vector

    config = FAULT_CACHE
    addresses = vector.as_addresses(itrace)
    cut = spec.trigger % addresses.size if addresses.size else 0

    golden = Cache(config)
    vector.replay_reads(golden, addresses)

    faulty = Cache(config)
    vector.replay_reads(faulty, addresses[:cut])
    line = spec.line % config.num_lines
    nsubs = config.subs_per_block
    # Low bits corrupt a valid bit, the rest walk the tag bits.
    if spec.bit % (nsubs + 8) < nsubs:
        faulty.corrupt_line(line, sub_bit=spec.bit % nsubs)
        where = f"flipped valid bit {spec.bit % nsubs} of line {line}"
    else:
        tag_bit = spec.bit % 8
        faulty.corrupt_line(line, tag_bit=tag_bit)
        where = f"flipped tag bit {tag_bit} of line {line}"
    vector.replay_reads(faulty, addresses[cut:])

    same = (faulty.read_misses == golden.read_misses
            and faulty.traffic_words == golden.traffic_words)
    if same:
        return FaultResult(spec=spec, outcome=MASKED, detail=where)
    return FaultResult(
        spec=spec, outcome=SDC,
        detail=(f"{where}; misses {golden.read_misses} -> "
                f"{faulty.read_misses}, traffic {golden.traffic_words} "
                f"-> {faulty.traffic_words} words"))
