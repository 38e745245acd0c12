"""Within-block list instruction scheduling.

The paper's programs are compiled "with all optimizations enabled,
including instruction scheduling"; this pass is minic's equivalent.  It
reorders instructions inside each basic block to hide the pipeline's
delayed-load slot and math-unit latencies (the interlocks of paper
Table 10), using the same latency model the simulator charges.

Dependence edges:

* register RAW / WAR / WAW (the IR is not SSA, so anti/output
  dependences are real);
* memory: all loads and stores are conservatively treated as one
  location — loads may reorder with loads, nothing crosses a store;
* calls (and the implicit FP status register) are full barriers;
* the block terminator stays last.

Scheduling runs before register allocation, so it trades a little
register pressure for stalls — the same trade period compilers made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.pipeline import PipelineParams
from .ir import (Block, CallInst, FCmp, FLoad, FStore, Function, Inst,
                 Load, Store, TERMINATORS, VReg)

#: The pipeline whose latencies the scheduler hides.
_PARAMS = PipelineParams()


def _latency(inst: Inst) -> int:
    """Cycles until this instruction's result may be consumed."""
    if isinstance(inst, (Load, FLoad)):
        return 1 + _PARAMS.load_delay
    math_class = _math_class(inst)
    if math_class is not None:
        return _PARAMS.latency_of(math_class)
    return 1


def _math_class(inst: Inst) -> str | None:
    op = getattr(inst, "op", None)
    if op in ("mul",):
        return "imul"
    if op in ("div", "rem"):
        return "idiv"
    if op in ("fadd", "fsub"):
        return "fadd"
    if op == "fmul":
        return "fmul"
    if op == "fdiv":
        return "fdiv"
    if op == "fneg":
        return "fmove"
    if isinstance(inst, FCmp):
        return "fcmp"
    kind = getattr(inst, "kind", None)
    if kind in ("i2f", "i2d", "f2i", "d2i", "f2d", "d2f"):
        return "fcvt"
    return None


def _is_mem_read(inst: Inst) -> bool:
    return isinstance(inst, (Load, FLoad))


def _is_mem_write(inst: Inst) -> bool:
    return isinstance(inst, (Store, FStore))


def _is_barrier(inst: Inst) -> bool:
    return isinstance(inst, CallInst)


@dataclass
class _Node:
    index: int
    inst: Inst
    preds: set[int] = field(default_factory=set)
    succs: dict[int, int] = field(default_factory=dict)   # succ -> latency
    height: int = 0
    unscheduled_preds: int = 0
    ready_at: int = 0


def _build_graph(instrs: list[Inst]) -> list[_Node]:
    nodes = [_Node(index=i, inst=inst) for i, inst in enumerate(instrs)]
    last_writer: dict[VReg, int] = {}
    readers_since: dict[VReg, list[int]] = {}
    last_store: int | None = None
    loads_since_store: list[int] = []
    last_barrier: int | None = None
    since_barrier: list[int] = []

    def edge(src: int, dst: int, latency: int) -> None:
        if src == dst:
            return
        current = nodes[src].succs.get(dst, 0)
        if latency > current:
            nodes[src].succs[dst] = latency
            nodes[dst].preds.add(src)

    for i, inst in enumerate(instrs):
        for use in inst.uses():
            writer = last_writer.get(use)
            if writer is not None:
                edge(writer, i, _latency(instrs[writer]))
            readers_since.setdefault(use, []).append(i)
        for definition in inst.defs():
            writer = last_writer.get(definition)
            if writer is not None:
                edge(writer, i, 1)                      # WAW
            for reader in readers_since.get(definition, ()):
                edge(reader, i, 1)                      # WAR
            readers_since[definition] = []
            last_writer[definition] = i

        if _is_barrier(inst):
            for j in since_barrier:
                edge(j, i, 1)
            since_barrier = [i]
            last_barrier = i
            last_store = i
            loads_since_store = []
            continue
        since_barrier.append(i)
        if last_barrier is not None:
            edge(last_barrier, i, 1)
        if _is_mem_read(inst):
            if last_store is not None:
                edge(last_store, i, 1)
            loads_since_store.append(i)
        elif _is_mem_write(inst):
            if last_store is not None:
                edge(last_store, i, 1)
            for j in loads_since_store:
                edge(j, i, 1)
            last_store = i
            loads_since_store = []

    # Critical-path heights (reverse topological: indices are one valid
    # topological order because edges always point forward).
    for node in reversed(nodes):
        node.height = max(
            (latency + nodes[succ].height
             for succ, latency in node.succs.items()),
            default=0)
        node.unscheduled_preds = len(node.preds)
    return nodes


def schedule_block(block: Block) -> None:
    """Reorder one block's instructions to reduce stalls."""
    instrs = block.instrs
    if len(instrs) < 3:
        return
    has_terminator = (isinstance(instrs[-1], TERMINATORS)
                      or hasattr(instrs[-1], "if_true"))

    # The terminator joins the graph (its operand latencies matter: a
    # compare feeding the branch must not drift to the very end), but is
    # pinned last with ordering edges from every other node.
    nodes = _build_graph(instrs)
    if has_terminator:
        last = nodes[-1]
        for node in nodes[:-1]:
            if last.index not in node.succs:
                node.succs[last.index] = 1
                last.preds.add(node.index)
        last.unscheduled_preds = len(last.preds)
    body = instrs
    ready = [n for n in nodes if n.unscheduled_preds == 0]
    scheduled: list[Inst] = []
    time = 0
    math_free = 0            # the math unit is not pipelined

    def effective_ready(node: _Node) -> int:
        if _math_class(node.inst) is not None:
            return max(node.ready_at, math_free)
        return node.ready_at

    while ready:
        # Prefer instructions issuable *now* (operands ready, math unit
        # free); among those the longest critical path wins, stable on
        # source order.  If nothing is issuable, take whatever becomes
        # ready soonest rather than stalling on the tallest chain.
        available = [n for n in ready if effective_ready(n) <= time]
        if available:
            available.sort(key=lambda n: (-n.height, n.index))
            chosen = available[0]
        else:
            chosen = min(ready, key=lambda n: (effective_ready(n),
                                               -n.height, n.index))
        ready.remove(chosen)
        scheduled.append(chosen.inst)
        issue = max(time, effective_ready(chosen))
        time = issue + 1
        if _math_class(chosen.inst) is not None:
            math_free = issue + _latency(chosen.inst)
        for succ, latency in chosen.succs.items():
            node = nodes[succ]
            node.unscheduled_preds -= 1
            node.ready_at = max(node.ready_at, issue + latency)
            if node.unscheduled_preds == 0:
                ready.append(node)

    assert len(scheduled) == len(body)
    # Keep the new order only if it is locally no worse.  The cost runs
    # the sequence twice back-to-back, so loop-carried latency (the next
    # iteration consuming this one's tail) is part of the estimate —
    # naive per-block scheduling can otherwise pessimize tight loops.
    if _sequence_cost(scheduled + scheduled) \
            <= _sequence_cost(instrs + instrs):
        block.instrs = scheduled


def _sequence_cost(instrs: list[Inst]) -> int:
    """Issue-cycle estimate of a straight-line order (HazardModel rules)."""
    ready: dict[VReg, int] = {}
    math_free = 0
    time = 0
    for inst in instrs:
        issue = time + 1
        for use in inst.uses():
            when = ready.get(use, 0)
            if when > issue:
                issue = when
        is_math = _math_class(inst) is not None
        if is_math and math_free > issue:
            issue = math_free
        time = issue
        latency = _latency(inst)
        if is_math:
            math_free = time + latency
        for definition in inst.defs():
            ready[definition] = time + latency
    return time


def schedule_function(func: Function) -> None:
    """Schedule every block of a function for the default pipeline."""
    for block in func.blocks:
        schedule_block(block)
