"""Dominator trees and natural-loop recovery over binary CFGs.

The whole-program cycle-bound analysis (:mod:`repro.analysis.wcet`)
needs the loop structure of every function: which blocks form a loop,
where the back edges are, and whether the region is *reducible* (every
cycle is entered through a single header that dominates the whole
body).  This module recovers that structure from the basic blocks of a
:class:`~repro.analysis.cfg.BinaryCFG` function:

* :func:`dominator_tree` — iterative immediate-dominator computation
  (Cooper/Harvey/Kennedy) over the blocks reachable from a function
  entry;
* :func:`find_loops` — natural loops from back edges (edges whose
  target dominates their source), merged per header, nested by body
  containment.  Retreating edges whose target does *not* dominate the
  source mark an **irreducible** region; those are reported, never
  guessed at, and the timing composer refuses to bound them.

Toolchain-generated code is always reducible (the compiler emits
structured ``for``/``while`` loops only), so irreducibility in a
linked image indicates either hand-written assembly or CFG-recovery
breakage — both worth a finding rather than silent unsoundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cfg import BasicBlock


def reverse_postorder(blocks: dict[int, BasicBlock],
                      entry: int) -> list[int]:
    """Reverse post-order of the blocks reachable from ``entry``.

    Successor edges leaving ``blocks`` (e.g. cross-function branches in
    a restricted view) are ignored.
    """
    if entry not in blocks:
        return []
    seen = {entry}
    post: list[int] = []
    stack: list[tuple[int, iter]] = [(entry, iter(blocks[entry].succs))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ in blocks and succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(blocks[succ].succs)))
                advanced = True
                break
        if not advanced:
            post.append(node)
            stack.pop()
    return post[::-1]


@dataclass
class DomTree:
    """Immediate dominators of one function's reachable blocks."""

    entry: int
    idom: dict[int, int]                  # block -> immediate dominator
    rpo: list[int]                        # reverse post-order
    index: dict[int, int]                 # block -> RPO position
    preds: dict[int, list[int]]           # reachable-predecessor map

    def dominates(self, a: int, b: int) -> bool:
        """True when every path from the entry to ``b`` passes ``a``."""
        while True:
            if a == b:
                return True
            if b == self.entry or b not in self.idom:
                return False
            parent = self.idom[b]
            if parent == b:
                return False
            b = parent


def dominator_tree(blocks: dict[int, BasicBlock], entry: int) -> DomTree:
    """Compute immediate dominators with the iterative RPO algorithm."""
    rpo = reverse_postorder(blocks, entry)
    index = {b: i for i, b in enumerate(rpo)}
    preds: dict[int, list[int]] = {b: [] for b in rpo}
    for b in rpo:
        for succ in blocks[b].succs:
            if succ in index and b not in preds[succ]:
                preds[succ].append(b)
    idom: dict[int, int] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for b in rpo[1:]:
            new = None
            for p in preds[b]:
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if new is not None and idom.get(b) != new:
                idom[b] = new
                changed = True
    return DomTree(entry=entry, idom=idom, rpo=rpo, index=index,
                   preds=preds)


@dataclass
class Loop:
    """One natural loop: a header and the blocks that cycle back to it."""

    header: int
    body: frozenset[int]                  # block starts, header included
    latches: tuple[int, ...]              # back-edge source blocks
    exits: tuple[tuple[int, int], ...]    # (from-block, to-block) edges
    parent: int | None = None             # enclosing loop's header
    depth: int = 1                        # 1 = outermost


@dataclass
class LoopForest:
    """All natural loops of one function, plus irreducibility evidence."""

    entry: int
    dom: DomTree
    loops: dict[int, Loop] = field(default_factory=dict)   # by header
    irreducible: tuple[tuple[int, int], ...] = ()

    def innermost_first(self) -> list[Loop]:
        """Loops ordered so inner loops precede the loops containing
        them (body-size order; ties cannot nest)."""
        return sorted(self.loops.values(),
                      key=lambda lp: (len(lp.body), lp.header))


def find_loops(blocks: dict[int, BasicBlock], entry: int) -> LoopForest:
    """Recover the natural-loop forest of one function's blocks."""
    dom = dominator_tree(blocks, entry)
    forest = LoopForest(entry=entry, dom=dom)
    if not dom.rpo:
        return forest

    # Classify retreating edges with an explicit DFS stack: an edge to a
    # block currently on the stack closes a cycle; it is a back edge
    # when its target dominates its source, irreducible otherwise.
    back_edges: list[tuple[int, int]] = []
    irreducible: list[tuple[int, int]] = []
    on_stack: set[int] = set()
    visited: set[int] = set()
    stack: list[tuple[int, iter]] = [(entry, iter(blocks[entry].succs))]
    visited.add(entry)
    on_stack.add(entry)
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in blocks:
                continue
            if succ in on_stack:
                if dom.dominates(succ, node):
                    back_edges.append((node, succ))
                else:
                    irreducible.append((node, succ))
            elif succ not in visited:
                visited.add(succ)
                on_stack.add(succ)
                stack.append((succ, iter(blocks[succ].succs)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            on_stack.discard(node)
    forest.irreducible = tuple(sorted(set(irreducible)))

    # Natural loop of each header: the header plus everything that
    # reaches a latch without passing through the header.
    latches_of: dict[int, set[int]] = {}
    for src, header in back_edges:
        latches_of.setdefault(header, set()).add(src)
    for header, latches in sorted(latches_of.items()):
        body = {header}
        work = [lt for lt in latches if lt != header]
        body.update(work)
        while work:
            b = work.pop()
            for p in dom.preds.get(b, ()):
                if p not in body:
                    body.add(p)
                    work.append(p)
        exits = tuple(sorted(
            (b, s) for b in body for s in set(blocks[b].succs)
            if s in blocks and s not in body))
        forest.loops[header] = Loop(header=header, body=frozenset(body),
                                    latches=tuple(sorted(latches)),
                                    exits=exits)

    # Nesting: the parent is the smallest strictly-containing loop.
    loops = list(forest.loops.values())
    for loop in loops:
        parent = None
        for other in loops:
            if other is loop or loop.header not in other.body:
                continue
            if not loop.body <= other.body:
                continue
            if parent is None or len(other.body) < len(parent.body):
                parent = other
        if parent is not None:
            forest.loops[loop.header] = replace(
                loop, parent=parent.header)
    for header in list(forest.loops):
        depth = 1
        seen = {header}
        walk = forest.loops[header].parent
        while walk is not None and walk not in seen:
            seen.add(walk)
            depth += 1
            walk = forest.loops[walk].parent
        forest.loops[header] = replace(forest.loops[header], depth=depth)
    return forest
