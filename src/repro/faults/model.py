"""Fault model: what gets corrupted, when, and what happened.

A :class:`FaultSpec` is one fully-determined perturbation of a running
:class:`~repro.machine.Machine` — fault *kind* (where in the machine
the bit flips), *trigger* (the dynamic instruction count at which the
injection happens), and the kind-specific coordinates (bit index,
register number, byte address, trap mode, cache line).  Specs are
generated from a seeded PRNG before any execution happens, so a
campaign is reproducible from ``(seed, grid)`` alone and independent
of worker scheduling.

Outcomes follow the classic soft-error taxonomy:

==========  ========================================================
masked      the program completed with golden stdout and exit code
sdc         silent data corruption: completed, but output or exit
            code differ from the golden run
detected    the machine stopped the program with a structured error
            (MachineError, TrapError, memory fault)
hang        the watchdog fired (instruction/cycle fuel exhausted or
            a no-progress loop was caught)
crash       the host simulator itself failed (any other exception) —
            a robustness bug in *our* stack, not the program's
==========  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Version of the campaign JSON report layout.  Bump on any
#: backwards-incompatible change to the payload shape.
#:
#: Version 2 added the per-cell ``pruned`` counter and the ``pruned:``
#: result details emitted by ``--prune-masked`` campaigns (sites the
#: static vulnerability analysis proved masked and therefore skipped).
SCHEMA_VERSION = 2

#: Fault kinds the injector understands, in canonical order.
FAULT_KINDS = ("ifetch", "reg", "mem", "trap", "cache")

#: Outcome classes, in canonical (report) order.
OUTCOMES = ("masked", "sdc", "detected", "hang", "crash")

MASKED = "masked"
SDC = "sdc"
DETECTED = "detected"
HANG = "hang"
CRASH = "crash"

#: Trap-level fault modes.
TRAP_MODES = ("getc-eof", "sbrk-exhaust")

#: Planned fault sites per (benchmark, target) cell, for campaigns and
#: for the static vulnerability sweep that classifies the same sites.
FAULTS_PER_CELL = 20

#: The campaign seed whose planned sites ``repro lint --vuln``
#: classifies unless told otherwise.
VULN_SEED = 42


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: kind, trigger, and coordinates."""

    index: int             # position within the cell's fault list
    bench: str
    target: str
    kind: str              # one of FAULT_KINDS
    trigger: int           # inject after this many retired instructions
    bit: int = 0           # bit to flip (kind-specific width)
    reg: int = 0           # general register number   (kind == "reg")
    addr: int = 0          # absolute byte address     (kind == "mem")
    mode: str = ""         # trap fault mode           (kind == "trap")
    line: int = 0          # cache line index          (kind == "cache")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"index": self.index, "kind": self.kind,
                                  "trigger": self.trigger}
        if self.kind == "ifetch":
            out["bit"] = self.bit
        elif self.kind == "reg":
            out.update(reg=self.reg, bit=self.bit)
        elif self.kind == "mem":
            out.update(addr=self.addr, bit=self.bit)
        elif self.kind == "trap":
            out["mode"] = self.mode
        elif self.kind == "cache":
            out.update(line=self.line, bit=self.bit)
        return out


@dataclass
class FaultResult:
    """Classified outcome of executing one :class:`FaultSpec`."""

    spec: FaultSpec
    outcome: str                      # one of OUTCOMES
    detail: str = ""
    #: Function containing the pc at injection time (the image's
    #: function table); empty when attribution is disabled or the pc
    #: is unmapped.
    function: str = ""
    #: Cycles between injection and the detecting error (detected only).
    latency_cycles: int | None = None
    #: Completed with golden output but perturbed RunStats — the fault
    #: changed the *performance* trajectory without corrupting data.
    stats_differ: bool = False

    def to_dict(self) -> dict[str, object]:
        out = self.spec.to_dict()
        out["outcome"] = self.outcome
        if self.detail:
            out["detail"] = self.detail
        if self.function:
            out["function"] = self.function
        if self.latency_cycles is not None:
            out["latency_cycles"] = self.latency_cycles
        if self.stats_differ:
            out["stats_differ"] = True
        return out


@dataclass
class GoldenRun:
    """The reference execution a faulty run is diffed against."""

    instructions: int
    interlocks: int
    exit_code: int
    output: str = field(repr=False, default="")
