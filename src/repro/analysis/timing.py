"""Static cycle/stall bounds over the binary CFG.

For every basic block recovered by :mod:`repro.analysis.cfg` this
module derives a provable lower and upper bound on the interlock
stalls one execution of the block can incur, using the *same*
:class:`~repro.machine.pipeline.PipelineParams` latency table and
:class:`~repro.machine.pipeline.HazardModel` rules as the simulator —
the analyzer cannot drift from the machine because they share one
source of truth.

The bounds exploit two facts about the hazard rules:

* stalls are **monotone** in the block-entry state (every update is a
  ``max`` or an addition of a non-negative latency), and
* at any instruction boundary no register can be more than
  ``PipelineParams.max_result_latency`` cycles from ready, and the math
  unit no further from free (a result becomes ready at most that many
  cycles after its writer issues).

So running the hazard model from the all-zero entry state lower-bounds
the stalls of any real entry state, and running it from the
everything-busy state (every register and the math unit exactly
``max_result_latency`` away) upper-bounds them.  (Total stalls of a
sequence equal ``final issue time - entry time - n``, and the final
issue time is a max-plus — hence monotone — function of the entry
readiness vector, so ordering entry states orders the totals.)

The lower bound is additionally tightened with a **one-level
predecessor lookback**: when every CFG predecessor ``p`` of a block
provably leaves a register busy at its exit — its last writer sits
``gap`` slots before ``p``'s end, and ``result latency - gap - 1``
exceeds even the *upper* bound of the stalls ``p``'s tail suffix can
insert — that guaranteed remaining latency seeds the block's
lower-bound entry state.  Every execution enters via *some* static
predecessor, so the block bound is the minimum over per-predecessor
seeded runs; it collapses to the cold bound for function entries, call
fall-throughs, and indirect-edge targets, where the real predecessor
executes arbitrary code.  This recovers, e.g., the delayed-load
interlock of a load sitting in a predecessor's final slot with its
consumer at the block head.

Aggregating with the simulator's per-site execution counts gives
whole-run bounds::

    interlocks  in  [sum(count_b * lo_b),  sum(count_b * hi_b)]
    cycles      =   IC + interlocks        (zero-wait-state machine)

:func:`validate_run` cross-checks a simulation against the bounds:
TIM001 (error) if the observed interlocks escape the static interval,
TIM002 (warning) if the execution profile is not fully covered by the
static CFG (executed sites outside every block, or counts that are not
uniform within a block — both impossible for toolchain output, so
either indicates CFG-recovery breakage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Sequence

from ..isa import Instr
from ..machine.pipeline import HazardModel, PipelineParams, hazard_indices
from ..machine.stats import RunStats
from .cfg import BasicBlock, BinaryCFG
from .findings import Finding, finding

#: Entry seed for a block's lower-bound run: guaranteed remaining
#: latency per hazard index, plus the guaranteed remaining math-unit
#: occupancy.  All values are relative to the block's first issue slot.
EntrySeed = tuple[dict[int, int], int]

_ZERO_SEED: EntrySeed = ({}, 0)


def block_stall_bounds(instrs: Sequence[tuple[int, Instr] | Instr],
                       model: PipelineParams,
                       entry_seed: EntrySeed | None = None
                       ) -> tuple[int, int]:
    """Provable [lo, hi] interlock stalls for one straight-line run.

    ``instrs`` is a sequence of ``(addr, Instr)`` pairs (a
    :class:`~repro.analysis.cfg.BasicBlock`'s body) or bare
    instructions.  ``entry_seed`` optionally tightens the lower bound
    with latencies every real entry state provably still carries (see
    :func:`exit_seed`); the upper bound is unaffected.
    """
    lo_model = HazardModel(model)
    hi_model = HazardModel(model)
    busy = model.max_result_latency
    hi_model.ready = [busy] * len(hi_model.ready)
    hi_model.math_free = busy
    if entry_seed is not None:
        seeds, math_seed = entry_seed
        # The first instruction would issue at time+1 = 1, so a value
        # that stays busy for k more slots is ready at absolute time
        # 1 + k (stall k for a first-slot consumer, decaying after).
        for index, remaining in seeds.items():
            lo_model.ready[index] = 1 + remaining
        if math_seed:
            lo_model.math_free = 1 + math_seed
    lo = hi = 0
    for item in instrs:
        instr = item[1] if isinstance(item, tuple) else item
        lo += lo_model.issue(instr)
        hi += hi_model.issue(instr)
    return lo, hi


def _suffix_stall_upper(instrs: Sequence[tuple[int, Instr] | Instr],
                        start: int, model: PipelineParams) -> int:
    """Upper bound on the stalls ``instrs[start:]`` can insert, from
    the everything-busy state (sound for any real mid-block state)."""
    hm = HazardModel(model)
    busy = model.max_result_latency
    hm.ready = [busy] * len(hm.ready)
    hm.math_free = busy
    return sum(hm.issue(item[1] if isinstance(item, tuple) else item)
               for item in instrs[start:])


def exit_seed(block: BasicBlock, model: PipelineParams) -> EntrySeed:
    """Latencies ``block`` itself guarantees at its exit boundary.

    For the last writer of each hazard index, sitting ``gap`` slots
    before the block's end with result latency ``lat``, the value is
    still at least ``lat - gap - 1 - S`` slots from ready at the
    successor's first issue slot, where ``S`` upper-bounds the stalls
    the tail suffix can insert (stalls only *delay* the boundary,
    shrinking the leftover).  Values written before the block (or
    before the last writer) contribute nothing — they may already be
    ready — so this is a sound componentwise lower bound on any real
    exit state.  The math unit is handled identically via occupancy.
    """
    instrs = block.instrs
    n = len(instrs)
    seeds: dict[int, int] = {}
    math_seed = 0
    claimed: set[int] = set()
    math_seen = False
    sup_cache: dict[int, int] = {}

    def sup(i: int) -> int:
        if i not in sup_cache:
            sup_cache[i] = _suffix_stall_upper(instrs, i, model)
        return sup_cache[i]

    window = min(n, model.max_result_latency + 1)
    for j in range(n - 1, n - 1 - window, -1):
        instr = instrs[j][1] if isinstance(instrs[j], tuple) else instrs[j]
        gap = n - 1 - j
        _reads, writes = hazard_indices(instr)
        fresh = [idx for idx in writes if idx not in claimed]
        claimed.update(writes)
        if fresh:
            rem = model.result_latency(instr.info) - gap - 1
            if rem > 0:
                rem -= sup(j + 1)
            if rem > 0:
                for idx in fresh:
                    seeds[idx] = rem
        if not math_seen:
            occ = model.occupancy(instr.info)
            if occ:
                math_seen = True
                m = occ - gap - 1
                if m > 0:
                    m -= sup(j + 1)
                if m > 0:
                    math_seed = m
    return seeds, math_seed


@dataclass(frozen=True)
class BlockBounds:
    """Static timing facts for one basic block."""

    start: int
    n_instrs: int
    stall_lo: int
    stall_hi: int

    @property
    def cycles_lo(self) -> int:
        return self.n_instrs + self.stall_lo

    @property
    def cycles_hi(self) -> int:
        return self.n_instrs + self.stall_hi


@dataclass
class StaticBounds:
    """Per-block cycle/stall bounds for one linked image."""

    cfg: BinaryCFG
    model: PipelineParams
    blocks: dict[int, BlockBounds]           # block start -> bounds

    def describe(self) -> str:
        lines = [f"{len(self.blocks)} blocks, "
                 f"max result latency {self.model.max_result_latency}"]
        for start in sorted(self.blocks):
            b = self.blocks[start]
            lines.append(
                f"  {self.cfg.describe(start)}: {b.n_instrs} instrs, "
                f"stalls [{b.stall_lo}, {b.stall_hi}]")
        return "\n".join(lines)


def static_bounds(cfg: BinaryCFG, *,
                  model: PipelineParams | None = None) -> StaticBounds:
    """Compute per-block stall bounds over a recovered image CFG.

    Each block's lower bound is seeded from the guaranteed exit
    latencies of its CFG predecessors.
    """
    model = model or PipelineParams()

    preds: dict[int, list[BasicBlock]] = {}
    entry_points = {cfg.exe.entry} | {addr for addr, _name in cfg.funcs}
    for _start, block in cfg.blocks.items():
        for succ in block.succs:
            preds.setdefault(succ, []).append(block)

    seed_cache: dict[int, EntrySeed] = {}

    def pred_seeds(start: int) -> list[EntrySeed]:
        """One seed per provable entry path, or [] if any path is
        opaque (so only the cold bound is sound)."""
        if start in entry_points:
            return []
        seeds = []
        for pred in preds.get(start, []):
            if pred.is_call or pred.indirect:
                return []
            if pred.start not in seed_cache:
                seed_cache[pred.start] = exit_seed(pred, model)
            seeds.append(seed_cache[pred.start])
        return seeds

    blocks = {}
    for start, block in cfg.blocks.items():
        lo, hi = block_stall_bounds(block.instrs, model)
        # Every execution of the block enters via *some* static
        # predecessor, so the minimum over per-predecessor seeded runs
        # is a sound (and tighter) lower bound than seeding with the
        # componentwise-minimum vector.
        seeds = [s for s in pred_seeds(start) if s != _ZERO_SEED]
        if seeds and len(seeds) == len(preds.get(start, [])):
            lo = min(block_stall_bounds(block.instrs, model,
                                        entry_seed=s)[0]
                     for s in seeds)
        blocks[start] = BlockBounds(start=start,
                                    n_instrs=len(block.instrs),
                                    stall_lo=lo, stall_hi=hi)
    return StaticBounds(cfg=cfg, model=model, blocks=blocks)


@dataclass
class TimingValidation:
    """A simulated run checked against the static bounds."""

    bounds: StaticBounds
    interlocks_observed: int
    interlock_lo: int
    interlock_hi: int
    instructions: int                        # simulator path length
    covered_instructions: int                # executions inside CFG blocks
    findings: list[Finding] = field(default_factory=list)

    @property
    def cycles_observed(self) -> int:
        """Zero-wait-state cycles: IC + interlocks."""
        return self.instructions + self.interlocks_observed

    @property
    def cycles_lo(self) -> int:
        return self.instructions + self.interlock_lo

    @property
    def cycles_hi(self) -> int:
        return self.instructions + self.interlock_hi

    @property
    def tightness(self) -> float:
        """Bound width relative to the observed cycles (0 = exact)."""
        if not self.cycles_observed:
            return 0.0
        return (self.cycles_hi - self.cycles_lo) / self.cycles_observed


def validate_run(bounds: StaticBounds, stats: RunStats) -> TimingValidation:
    """Check one simulation's interlocks against the static bounds.

    ``stats`` must come from running the same executable the bounds
    were computed for (the per-site ``exec_counts`` vector is matched
    against the CFG's blocks positionally).
    """
    cfg = bounds.cfg
    base, width = cfg.base, cfg.width
    shift = 1 if width == 2 else 2
    counts = stats.exec_counts
    describe = cfg.describe
    findings: list[Finding] = []

    def count_at(addr: int) -> int:
        index = (addr - base) >> shift
        return counts[index] if 0 <= index < len(counts) else 0

    lo_total = hi_total = 0
    covered = 0
    covered_sites: set[int] = set()
    for start, bb in sorted(bounds.blocks.items()):
        block = cfg.blocks[start]
        block_count = count_at(start)
        site_counts = {addr: count_at(addr) for addr, _i in block.instrs}
        covered_sites.update(site_counts)
        if len(set(site_counts.values())) > 1:
            findings.append(finding(
                "TIM002", describe(start),
                f"execution counts vary inside one basic block "
                f"({sorted(set(site_counts.values()))}): the static CFG "
                f"disagrees with the executed control flow"))
            covered += sum(site_counts.values())
            continue
        covered += block_count * bb.n_instrs
        lo_total += block_count * bb.stall_lo
        hi_total += block_count * bb.stall_hi

    stray = sum(
        count for index, count in enumerate(counts)
        if count and (base + (index << shift)) not in covered_sites)
    if stray:
        findings.append(finding(
            "TIM002", f"text:{base:#x}",
            f"{stray} executed instruction(s) fall outside every "
            f"static basic block; bounds cannot cover the full run"))

    observed = stats.interlocks
    if observed < lo_total:
        findings.append(finding(
            "TIM001", f"text:{base:#x}",
            f"simulated interlocks {observed} fall below the static "
            f"lower bound {lo_total}"))
    if not stray and observed > hi_total:
        findings.append(finding(
            "TIM001", f"text:{base:#x}",
            f"simulated interlocks {observed} exceed the static "
            f"upper bound {hi_total}"))
    return TimingValidation(
        bounds=bounds, interlocks_observed=observed,
        interlock_lo=lo_total, interlock_hi=hi_total,
        instructions=stats.instructions,
        covered_instructions=covered, findings=findings)

