"""Static fault-vulnerability classification over linked binaries.

Every fault the PR-4 campaigns inject is a point perturbation of the
machine — a register bit, an instruction word, a memory byte, a trap
resource, a cache line.  The :class:`MaskingOracle` decides, *before
any execution*, whether a given :class:`~repro.faults.model.FaultSpec`
is **provably masked**: no observable behavior (stdout bytes, exit
code, structured machine errors, termination) can change.  Everything
it cannot prove stays *potentially ACE* (Architecturally Correct
Execution required — the AVF term for "this bit may matter").

The proofs compose the backward liveness fixpoint of
:mod:`repro.analysis.liveness` with the interval x SP-offset value
analysis and the golden instruction trace:

``reg``
    The flip lands in the paused architectural register file just
    before the instruction at ``itrace[trigger]`` executes.  Masked
    when the flipped bit is dead there (per-bit liveness), when the
    register is DLXe's hard-wired r0 (the injector absorbs it), or
    when the register is beyond the ISA's architectural file (no
    encoding can read it).

``ifetch``
    The flipped word is patched into text permanently.  Masked when
    both the original and the patched word decode to *pure* ALU
    operations (no memory access, control transfer, trap, division,
    or untracked-state access) whose written registers are dead after
    that program point, and no load with a live destination can read
    the patched word (text is data too).  Purity makes every future
    visit of the pc behave identically, so the per-pc liveness fact
    covers the permanent patch.

``mem``
    A flipped data byte is observable only through a load that reads
    it into live destination bits.  Masked when every reachable load
    either targets the stack (the toolchain addresses locals
    SP-relatively; the stack, at the top of memory, never overlaps
    the static data segment), provably cannot cover the byte (absint
    interval), or covers it only with dead destination bits (exact
    addresses refine per byte).  Instruction fetch never reads the
    byte because the planner draws addresses from the data segment —
    checked anyway.

``trap``
    ``getc-eof`` truncates stdin at the current read position — an
    identity on the empty stdin every campaign run uses.
    ``sbrk-exhaust`` pulls the heap limit down to the current break,
    which only ``trap 3`` can observe (the handler fails soft with -1,
    it never raises).

``cache``
    The replay corrupts one line's metadata.  Masked when no address
    of the instruction trace maps to that line: the line is neither
    consulted nor refilled, so miss and traffic counts are identical.

Whole-trace quantifications (``ifetch``/``mem``/``trap``) additionally
require ``liveness.imprecise`` to be False — when control flow escaped
attribution the recovered load/trap sets may be incomplete and only
the per-pc register proofs remain sound.

The same liveness facts integrate into AVF-style summaries
(:func:`avf_summary`): vulnerable bit-cycles are the live register
bits summed over every retired instruction of the golden trace,
normalized by the architectural register file size — the static
D16-vs-DLXe exposure comparison of EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..isa import Op
from ..machine.memory import DEFAULT_MEM_SIZE
from .absint import AnalysisResult
from .findings import Finding, finding
from .liveness import (FULL, LivenessAnalysis, _load_byte_mask,
                       analyze_liveness)

if TYPE_CHECKING:
    from ..faults.model import FaultSpec

#: Operations whose execution touches nothing but general registers
#: and can never raise: replacing one with another at the same pc
#: keeps control flow, memory, traps, and the FP/SR files untouched.
PURE_OPS = frozenset({
    Op.NOP, Op.MV, Op.MVI, Op.MVHI, Op.NEG, Op.INV,
    Op.ADD, Op.SUB, Op.MUL, Op.ADDI, Op.SUBI,
    Op.AND, Op.OR, Op.XOR, Op.ANDI, Op.ORI, Op.XORI,
    Op.SHL, Op.SHR, Op.SHRA, Op.SHLI, Op.SHRI, Op.SHRAI,
    Op.CMP, Op.CMPI,
})


@dataclass(frozen=True)
class SiteVerdict:
    """Static classification of one fault site."""

    index: int
    kind: str
    masked: bool          # True = provably masked
    reason: str
    #: pc about to execute at the trigger (None when not consulted).
    pc: int | None = None


@dataclass
class VulnSummary:
    """AVF-style exposure summary of one (program, target) cell."""

    instructions: int
    #: Sum over the golden trace of live register bits per cycle.
    vulnerable_bit_cycles: int
    #: ``instructions * architectural-register-bits`` (r0 excluded on
    #: DLXe: hard-wired bits can never hold ACE state).
    total_bit_cycles: int
    #: Architectural vulnerability factor of the register file.
    avf: float
    #: function -> {instructions, vulnerable_bit_cycles, avf}.
    functions: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class CellVulnerability:
    """Verdicts plus exposure summary for one campaign cell."""

    bench: str
    target: str
    verdicts: list[SiteVerdict]
    summary: VulnSummary

    @property
    def proven_masked(self) -> int:
        return sum(1 for v in self.verdicts if v.masked)

    def by_kind(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for verdict in self.verdicts:
            per = out.setdefault(verdict.kind, {"sites": 0, "masked": 0})
            per["sites"] += 1
            if verdict.masked:
                per["masked"] += 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict[str, object]:
        return {
            "bench": self.bench,
            "target": self.target,
            "sites": len(self.verdicts),
            "proven_masked": self.proven_masked,
            "by_kind": self.by_kind(),
            "verdicts": [{"index": v.index, "kind": v.kind,
                          "masked": v.masked, "reason": v.reason}
                         for v in self.verdicts],
            "avf": self.summary.avf,
            "vulnerable_bit_cycles": self.summary.vulnerable_bit_cycles,
            "total_bit_cycles": self.summary.total_bit_cycles,
        }


class MaskingOracle:
    """Per-image static masked/ACE classifier for fault specs."""

    def __init__(self, liveness: LivenessAnalysis,
                 itrace: Sequence[int]) -> None:
        self.liveness = liveness
        self.cfg = liveness.cfg
        self.exe = self.cfg.exe
        self.isa = self.cfg.isa
        self.itrace = itrace
        self.zero_r0 = self.isa.name == "DLXe"
        self.num_gregs = self.isa.num_gregs
        #: Immediates of every reachable ``trap`` instruction.
        self.trap_codes: set[int] = set()
        for block in self.cfg.blocks.values():
            for _pc, instr in block.instrs:
                if instr.op == Op.TRAP:
                    self.trap_codes.add(instr.imm or 0)
        self._touched_lines: dict[tuple[int, int], set[int]] = {}

    # ----------------------------------------------------------- entry

    def classify(self, spec: "FaultSpec") -> SiteVerdict:
        """Prove ``spec`` masked, or return the obstacle."""
        if spec.kind == "cache":
            return self._classify_cache(spec)
        if spec.kind == "trap":
            return self._classify_trap(spec)
        if spec.trigger >= len(self.itrace):
            return self._verdict(spec, True,
                                 "program exits before the trigger")
        if spec.kind == "reg":
            return self._classify_reg(spec)
        if spec.kind == "ifetch":
            return self._classify_ifetch(spec)
        if spec.kind == "mem":
            return self._classify_mem(spec)
        return self._verdict(spec, False,
                             f"unknown fault kind {spec.kind!r}")

    def _verdict(self, spec: "FaultSpec", masked: bool, reason: str,
                 pc: int | None = None) -> SiteVerdict:
        return SiteVerdict(index=spec.index, kind=spec.kind,
                           masked=masked, reason=reason, pc=pc)

    # ------------------------------------------------------------- reg

    def _classify_reg(self, spec: "FaultSpec") -> SiteVerdict:
        reg = spec.reg % 32
        bit = spec.bit % 32
        if self.zero_r0 and reg == 0:
            return self._verdict(spec, True,
                                 "hard-wired r0 absorbs the flip")
        if reg >= self.num_gregs:
            return self._verdict(
                spec, True,
                f"r{reg} is beyond {self.isa.name}'s architectural "
                f"file; no encoding reads it")
        pc = self.itrace[spec.trigger]
        mask = self.liveness.live_mask(pc, reg)
        if not (mask >> bit) & 1:
            return self._verdict(
                spec, True,
                f"bit {bit} of r{reg} is dead at {pc:#x}", pc)
        return self._verdict(
            spec, False,
            f"bit {bit} of r{reg} is live at {pc:#x}", pc)

    # ---------------------------------------------------------- ifetch

    def _classify_ifetch(self, spec: "FaultSpec") -> SiteVerdict:
        if self.liveness.imprecise:
            return self._verdict(
                spec, False, "control-flow attribution is incomplete")
        pc = self.itrace[spec.trigger]
        width = self.isa.width_bytes
        index = (pc - self.exe.text_base) // width
        word = bytearray(
            self.exe.text[index * width:(index + 1) * width])
        if len(word) != width:
            return self._verdict(spec, False,
                                 f"trigger pc {pc:#x} outside text", pc)
        bit = spec.bit % (width * 8)
        word[bit // 8] ^= 1 << (bit % 8)
        try:
            patched = self.isa.decode_bytes(bytes(word))
        except Exception:  # noqa: BLE001 - strict decoder rejection
            return self._verdict(
                spec, False,
                "patched word does not decode (detected, not masked)",
                pc)
        _word, original = self.cfg.instr_at(pc)
        if not hasattr(original, "op"):
            return self._verdict(spec, False,
                                 f"no decoded instruction at {pc:#x}",
                                 pc)
        for label, instr in (("original", original),
                             ("patched", patched)):
            if instr.op not in PURE_OPS:
                return self._verdict(
                    spec, False,
                    f"{label} op {instr.op.value} is not a pure ALU "
                    f"write", pc)
        live_out = self.liveness.live_out.get(pc)
        if live_out is None:
            return self._verdict(spec, False,
                                 f"no liveness fact at {pc:#x}", pc)
        for label, instr in (("original", original),
                             ("patched", patched)):
            rd = instr.rd
            if rd is None or (self.zero_r0 and rd == 0):
                continue
            if live_out.get(rd, 0):
                return self._verdict(
                    spec, False,
                    f"{label} destination r{rd} is live after "
                    f"{pc:#x}", pc)
        lo = self.exe.text_base + index * width
        clash = self._live_load_over(lo, lo + width - 1)
        if clash is not None:
            return self._verdict(spec, False, clash, pc)
        return self._verdict(
            spec, True,
            f"both encodings at {pc:#x} are pure ALU writes to dead "
            f"destinations", pc)

    # ------------------------------------------------------------- mem

    def _classify_mem(self, spec: "FaultSpec") -> SiteVerdict:
        if self.liveness.imprecise:
            return self._verdict(
                spec, False, "control-flow attribution is incomplete")
        addr = spec.addr % DEFAULT_MEM_SIZE
        text_end = self.exe.text_base + len(self.exe.text)
        if self.exe.text_base <= addr < text_end:
            return self._verdict(
                spec, False,
                f"byte {addr:#x} lies in text; fetch reads it")
        clash = self._live_load_over(addr, addr)
        if clash is not None:
            return self._verdict(spec, False, clash)
        return self._verdict(
            spec, True,
            f"byte {addr:#x} is never read into live destination bits")

    def _live_load_over(self, lo: int, hi: int) -> str | None:
        """Why some load may observe bytes ``[lo, hi]`` (None = none)."""
        for load in self.liveness.loads:
            if load.stack or load.dest_live == 0:
                continue
            if load.addr is None:
                return (f"load at {load.pc:#x} has an unknown address "
                        f"and a live destination")
            alo, ahi = load.addr
            if ahi + load.size - 1 < lo or hi < alo:
                continue
            if alo == ahi:
                # Exact address: refine per byte through the datum's
                # destination-bit mapping.
                masks = 0
                for byte in range(max(lo, alo),
                                  min(hi, alo + load.size - 1) + 1):
                    masks |= _load_byte_mask(load.op, byte - alo)
                if load.dest_live & masks:
                    return (f"load at {load.pc:#x} reads the byte into "
                            f"live bits")
                continue
            return (f"load at {load.pc:#x} may cover the byte "
                    f"(address in [{alo:#x}, {ahi:#x}])")
        return None

    # ------------------------------------------------------------ trap

    def _classify_trap(self, spec: "FaultSpec") -> SiteVerdict:
        if spec.mode == "getc-eof":
            # Programs run with an empty stdin.
            return self._verdict(
                spec, True,
                "stdin is empty: truncating at the read position "
                "is an identity")
        if spec.mode == "sbrk-exhaust":
            if self.liveness.imprecise:
                return self._verdict(
                    spec, False,
                    "control-flow attribution is incomplete")
            if 3 not in self.trap_codes:
                return self._verdict(spec, True,
                                     "no reachable sbrk trap")
            return self._verdict(spec, False,
                                 "a reachable sbrk may observe the "
                                 "pulled-down heap limit")
        return self._verdict(spec, False,
                             f"unknown trap mode {spec.mode!r}")

    # ----------------------------------------------------------- cache

    def _classify_cache(self, spec: "FaultSpec") -> SiteVerdict:
        from ..faults.inject import FAULT_CACHE

        config = FAULT_CACHE
        line = spec.line % config.num_lines
        key = (config.block, config.num_lines)
        touched = self._touched_lines.get(key)
        if touched is None:
            # One mapping per distinct fetch address, not per fetch.
            block, lines = key
            touched = {(pc // block) % lines for pc in set(self.itrace)}
            self._touched_lines[key] = touched
        if line not in touched:
            return self._verdict(
                spec, True,
                f"cache line {line} is never touched by the fetch "
                f"trace")
        return self._verdict(
            spec, False, f"cache line {line} is touched by the trace")


def avf_summary(liveness: LivenessAnalysis,
                itrace: Sequence[int]) -> VulnSummary:
    """Vulnerable bit-cycles of the register file over a golden trace.

    Weights every retired instruction by the number of live register
    bits just before it executes — the classic ACE approximation of
    the architectural vulnerability factor, here computed from a sound
    static analysis, so the result is an *upper bound* on true AVF.
    Unknown pcs (possible only on imprecise images) weigh fully.
    """
    cfg = liveness.cfg
    reg_bits = cfg.isa.num_gregs * 32
    if cfg.isa.name == "DLXe":
        reg_bits -= 32                 # r0 can never hold ACE state
    weights: dict[int, int] = {}
    per_func: dict[str, dict[str, float]] = {}
    counts = Counter(itrace)
    vulnerable = 0
    for pc, n in counts.items():
        weight = weights.get(pc)
        if weight is None:
            state = liveness.live_in.get(pc)
            weight = reg_bits if state is None else \
                sum(mask.bit_count() for mask in state.values())
            weights[pc] = weight
        vulnerable += weight * n
        name = cfg.func_of(pc) or "?"
        entry = per_func.setdefault(
            name, {"instructions": 0, "vulnerable_bit_cycles": 0})
        entry["instructions"] += n
        entry["vulnerable_bit_cycles"] += weight * n
    total = len(itrace) * reg_bits
    for entry in per_func.values():
        denom = entry["instructions"] * reg_bits
        entry["avf"] = round(entry["vulnerable_bit_cycles"] / denom, 6) \
            if denom else 0.0
    return VulnSummary(
        instructions=len(itrace),
        vulnerable_bit_cycles=vulnerable,
        total_bit_cycles=total,
        avf=round(vulnerable / total, 6) if total else 0.0,
        functions=dict(sorted(per_func.items())))


def build_oracle(image: AnalysisResult,
                 itrace: Sequence[int]) -> MaskingOracle:
    """Run the backward liveness fixpoint over an image recovered by
    :func:`~repro.analysis.absint.resolve_cfg` and wrap it in an
    oracle."""
    return MaskingOracle(analyze_liveness(image), itrace)


def classify_cell(bench: str, target_name: str, oracle: MaskingOracle,
                  golden_instructions: int, *,
                  faults: int, seed: int) -> CellVulnerability:
    """Statically classify one campaign cell's planned fault list.

    Plans exactly the specs the seeded campaign would execute (same
    PRNG stream) and runs every one through the oracle — no simulation
    beyond the golden trace the oracle already holds.
    """
    from ..faults.campaign import plan_cell
    from ..faults.model import GoldenRun

    golden = GoldenRun(instructions=golden_instructions, interlocks=0,
                       exit_code=0)
    specs = plan_cell(bench, target_name, golden, oracle.exe,
                      faults=faults, seed=seed)
    verdicts = [oracle.classify(spec) for spec in specs]
    return CellVulnerability(bench=bench, target=target_name,
                             verdicts=verdicts,
                             summary=avf_summary(oracle.liveness,
                                                 oracle.itrace))


def vuln_findings(cell: CellVulnerability) -> list[Finding]:
    """The VULN002 statistics finding for one cell."""
    kinds = ", ".join(f"{kind} {per['masked']}/{per['sites']}"
                      for kind, per in cell.by_kind().items())
    return [finding(
        "VULN002", f"{cell.bench}/{cell.target}",
        f"{cell.proven_masked}/{len(cell.verdicts)} sites proven "
        f"masked ({kinds}); register-file AVF "
        f"{cell.summary.avf:.3f}")]


def check_soundness(cell: CellVulnerability,
                    results: Iterable[object]) -> list[Finding]:
    """VULN001 findings: proven-masked sites observed non-masked.

    ``results`` are the executed :class:`~repro.faults.model.
    FaultResult` list of the same cell (same seed and fault count, so
    index aligns with the verdict list).  Any contradiction is an
    analysis soundness bug — an ERROR, locked to zero in CI.
    """
    verdicts = {v.index: v for v in cell.verdicts}
    out: list[Finding] = []
    for result in results:
        spec = result.spec            # type: ignore[attr-defined]
        outcome = result.outcome      # type: ignore[attr-defined]
        verdict = verdicts.get(spec.index)
        if verdict is None or not verdict.masked:
            continue
        if outcome != "masked":
            out.append(finding(
                "VULN001",
                f"{cell.bench}/{cell.target}#"
                f"{spec.index}",
                f"{spec.kind} fault proven masked "
                f"({verdict.reason}) but observed {outcome}"))
    return out


__all__ = ["PURE_OPS", "SiteVerdict", "VulnSummary",
           "CellVulnerability", "MaskingOracle", "avf_summary",
           "build_oracle", "classify_cell", "vuln_findings",
           "check_soundness", "FULL"]
