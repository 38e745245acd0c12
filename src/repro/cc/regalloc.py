"""Linear-scan register allocation with spill-and-retry.

The allocator works on IR functions:

1. linearize blocks and number instructions;
2. compute liveness (backward dataflow) and build one conservative live
   interval per virtual register;
3. scan intervals in start order, assigning physical registers; intervals
   that cross a call site are restricted to callee-saved registers;
4. on failure, spill the interval with the furthest end: rewrite each of
   its uses/defs through a fresh short-lived vreg plus a stack-slot
   load/store, then redo the scan (the new intervals are tiny, so this
   terminates quickly).

Two register classes exist: integers (``i``) and FP *pairs* (``f`` and
``d`` both occupy an aligned even/odd FPR pair, because doubles need one
and a uniform rule keeps allocation simple).  Move/two-address hints bias
assignment so two-address targets pay as little as the paper's compilers
did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (CallInst, FLoad, FStore, Function, Inst, Load, Move, Store,
                 VReg, liveness)
from .target import TargetSpec


class AllocationError(Exception):
    """The function cannot be colored (pathological register pressure)."""


@dataclass
class Interval:
    vreg: VReg
    start: int
    end: int
    crosses_call: bool = False
    hints: list[VReg] = field(default_factory=list)


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    int_assignment: dict[VReg, int]     # vreg -> r index
    fp_assignment: dict[VReg, int]      # vreg -> even f index (pair base)
    used_callee_int: list[int]
    used_callee_fp_pairs: list[int]
    spill_count: int

    def reg_of(self, vreg: VReg) -> int:
        if vreg.cls == "i":
            return self.int_assignment[vreg]
        return self.fp_assignment[vreg]


def _build_intervals(func: Function) -> tuple[list[Interval], list[int]]:
    live_in, live_out = liveness(func)
    position = 0
    ranges: dict[VReg, list[int]] = {}
    call_positions: list[int] = []
    block_bounds: list[tuple[int, int, str]] = []

    def touch(vreg: VReg, pos: int):
        entry = ranges.get(vreg)
        if entry is None:
            ranges[vreg] = [pos, pos]
        else:
            if pos < entry[0]:
                entry[0] = pos
            if pos > entry[1]:
                entry[1] = pos

    for param in func.params:
        touch(param, 0)

    for block in func.blocks:
        start = position
        for inst in block.instrs:
            position += 2
            for u in inst.uses():
                touch(u, position)
            for d in inst.defs():
                touch(d, position + 1)
            if isinstance(inst, CallInst):
                # Intrinsics (traps) clobber the argument/result registers,
                # so they restrict crossing intervals exactly like calls.
                call_positions.append(position)
        block_bounds.append((start, position + 1, block.label))

    # Extend across whole blocks where the value is live-through.
    for start, end, label in block_bounds:
        for vreg in live_in[label]:
            touch(vreg, start)
        for vreg in live_out[label]:
            touch(vreg, end)

    intervals = [Interval(v, r[0], r[1]) for v, r in ranges.items()]
    for interval in intervals:
        interval.crosses_call = any(
            interval.start < pos < interval.end for pos in call_positions)

    # Allocation hints from moves and (two-address) first operands.
    by_vreg = {iv.vreg: iv for iv in intervals}
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, Move):
                dst, src = inst.dst, inst.src
                if dst in by_vreg and src in by_vreg:
                    by_vreg[dst].hints.append(src)
                    by_vreg[src].hints.append(dst)
            elif hasattr(inst, "op") and hasattr(inst, "a") \
                    and inst.defs():
                dst = inst.defs()[0]
                a = getattr(inst, "a", None)
                if isinstance(a, VReg) and dst in by_vreg and a in by_vreg \
                        and a.cls == dst.cls:
                    by_vreg[dst].hints.append(a)
    return intervals, call_positions


def _scan(intervals: list[Interval], pool: tuple[int, ...],
          callee_saved: frozenset[int],
          assignment: dict[VReg, int]) -> list[Interval]:
    """One linear scan over one register class; returns spilled intervals."""
    intervals = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    active: list[Interval] = []
    free = list(pool)
    spilled: list[Interval] = []

    def expire(now: int):
        still = []
        for iv in active:
            if iv.end < now:
                free.append(assignment[iv.vreg])
            else:
                still.append(iv)
        active[:] = still

    for interval in intervals:
        expire(interval.start)
        candidates = [r for r in free
                      if not interval.crosses_call or r in callee_saved]
        if candidates:
            chosen = None
            for hint in interval.hints:
                hint_reg = assignment.get(hint)
                if hint_reg in candidates:
                    chosen = hint_reg
                    break
            if chosen is None:
                # Prefer caller-saved for call-free intervals to keep
                # callee-saved (and their save/restore cost) for values
                # that actually live across calls.
                non_saved = [r for r in candidates if r not in callee_saved]
                chosen = non_saved[0] if non_saved else candidates[0]
            free.remove(chosen)
            assignment[interval.vreg] = chosen
            active.append(interval)
            continue
        # Spill: the furthest-ending compatible interval, or this one.
        victims = [iv for iv in active
                   if not interval.crosses_call
                   or assignment[iv.vreg] in callee_saved]
        victim = max(victims, key=lambda iv: iv.end, default=None)
        if victim is not None and victim.end > interval.end:
            reg = assignment.pop(victim.vreg)
            active.remove(victim)
            spilled.append(victim)
            assignment[interval.vreg] = reg
            active.append(interval)
        else:
            spilled.append(interval)
    return spilled


def _rewrite_spills(func: Function, spilled: list[VReg]) -> None:
    """Send spilled vregs through stack slots around each use/def."""
    slots: dict[VReg, object] = {}
    for vreg in spilled:
        size = 8 if vreg.cls == "d" else 4
        slots[vreg] = func.new_slot(size, 4, f"spill_{vreg}")

    for block in func.blocks:
        out: list[Inst] = []
        for inst in block.instrs:
            pre: list[Inst] = []
            post: list[Inst] = []
            mapping: dict[VReg, VReg] = {}
            for use in set(inst.uses()):
                if use in slots:
                    tmp = func.new_vreg(use.cls, f"rl_{use.id}")
                    if use.cls == "i":
                        pre.append(Load(tmp, slots[use], 4))
                    else:
                        pre.append(FLoad(tmp, slots[use]))
                    mapping[use] = tmp
            if mapping:
                inst.replace_uses(mapping)
            for definition in inst.defs():
                if definition in slots:
                    tmp = func.new_vreg(definition.cls,
                                        f"sp_{definition.id}")
                    _replace_def(inst, definition, tmp)
                    if definition.cls == "i":
                        post.append(Store(slots[definition], tmp, 4))
                    else:
                        post.append(FStore(slots[definition], tmp))
            out.extend(pre)
            out.append(inst)
            out.extend(post)
        block.instrs = out


def _replace_def(inst: Inst, old: VReg, new: VReg) -> None:
    if getattr(inst, "dst", None) == old:
        inst.dst = new
        return
    raise AllocationError(f"cannot rewrite def of {old} in {inst}")


def allocate(func: Function, target: TargetSpec) -> Allocation:
    """Allocate registers, spilling as needed; mutates ``func``."""
    total_spills = 0
    for _attempt in range(12):
        intervals, _calls = _build_intervals(func)
        int_intervals = [iv for iv in intervals if iv.vreg.cls == "i"]
        fp_intervals = [iv for iv in intervals if iv.vreg.cls in ("f", "d")]
        int_assignment: dict[VReg, int] = {}
        fp_assignment: dict[VReg, int] = {}
        spilled = _scan(int_intervals, target.allocatable_int,
                        target.callee_saved_int, int_assignment)
        spilled += _scan(fp_intervals, target.allocatable_fp_pairs,
                         target.callee_saved_fp_pairs, fp_assignment)
        if not spilled:
            used_callee_int = sorted({
                reg for reg in int_assignment.values()
                if reg in target.callee_saved_int})
            used_callee_fp = sorted({
                reg for reg in fp_assignment.values()
                if reg in target.callee_saved_fp_pairs})
            return Allocation(int_assignment, fp_assignment,
                              used_callee_int, used_callee_fp,
                              total_spills)
        fresh = [iv.vreg for iv in spilled if not iv.vreg.hint.startswith(("rl_", "sp_"))]
        if not fresh:
            raise AllocationError(
                f"{func.name}: register pressure cannot be resolved")
        total_spills += len(fresh)
        _rewrite_spills(func, fresh)
    raise AllocationError(f"{func.name}: allocation did not converge")
