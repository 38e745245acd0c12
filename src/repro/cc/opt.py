"""IR optimization passes.

The paper's experiments use "all optimizations enabled" GCC; these passes
give minic the equivalent essentials so that instruction-set effects (not
naive code) dominate the measurements:

* constant folding + algebraic simplification + strength reduction,
* copy propagation (local),
* address-offset folding into load/store displacements — this is what
  makes the D16-vs-DLXe displacement-width comparison meaningful,
* local common-subexpression elimination (value numbering),
* dead code elimination (global),
* CFG simplification (jump threading, unreachable-block removal).
"""

from __future__ import annotations

from typing import Callable

from ..isa.operations import Cond
from .ir import (AddrGlobal, AddrStack, Bin, Block, CJump, Cmp, Const,
                 Cvt, FCmp, FConst, FLoad, FStore, Function, Inst, Jump,
                 Load, Move, Store, Un, VReg, fingerprint, freeze, thaw)

_WORD = 0xFFFFFFFF


def _s32(value: int) -> int:
    value &= _WORD
    return value - (1 << 32) if value & 0x80000000 else value


_FOLD_BIN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: _s32(a) * _s32(b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "shr": lambda a, b: (a & _WORD) >> (b & 31),
    "shra": lambda a, b: _s32(a) >> (b & 31),
}

_CMP_EVAL = {
    Cond.LT: lambda a, b: _s32(a) < _s32(b),
    Cond.LTU: lambda a, b: (a & _WORD) < (b & _WORD),
    Cond.LE: lambda a, b: _s32(a) <= _s32(b),
    Cond.LEU: lambda a, b: (a & _WORD) <= (b & _WORD),
    Cond.EQ: lambda a, b: (a & _WORD) == (b & _WORD),
    Cond.NE: lambda a, b: (a & _WORD) != (b & _WORD),
    Cond.GT: lambda a, b: _s32(a) > _s32(b),
    Cond.GTU: lambda a, b: (a & _WORD) > (b & _WORD),
    Cond.GE: lambda a, b: _s32(a) >= _s32(b),
    Cond.GEU: lambda a, b: (a & _WORD) >= (b & _WORD),
}


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def fold_constants(func: Function) -> bool:
    """Per-block constant folding, algebraic identities, strength reduction."""
    changed = False
    for block in func.blocks:
        consts: dict[VReg, int] = {}
        out: list = []

        def invalidate(defs):
            for d in defs:
                consts.pop(d, None)

        for inst in block.instrs:
            replacement = None
            if isinstance(inst, Const):
                invalidate(inst.defs())
                consts[inst.dst] = inst.value & _WORD
                out.append(inst)
                continue
            if isinstance(inst, Move) and inst.src in consts \
                    and inst.src.cls == "i":
                replacement = Const(inst.dst, consts[inst.src])
            elif isinstance(inst, Un) and inst.a in consts:
                value = consts[inst.a]
                if inst.op == "neg":
                    replacement = Const(inst.dst, (-value) & _WORD)
                elif inst.op == "inv":
                    replacement = Const(inst.dst, value ^ _WORD)
            elif isinstance(inst, Bin) and inst.op in _FOLD_BIN:
                av = consts.get(inst.a)
                bv = consts.get(inst.b)
                if av is not None and bv is not None:
                    replacement = Const(
                        inst.dst, _FOLD_BIN[inst.op](av, bv) & _WORD)
                else:
                    replacement = _algebraic(inst, av, bv, func, out)
            elif isinstance(inst, Bin) and inst.op in ("div", "rem"):
                av, bv = consts.get(inst.a), consts.get(inst.b)
                if av is not None and bv is not None and _s32(bv) != 0:
                    a, b = _s32(av), _s32(bv)
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    value = a - q * b if inst.op == "rem" else q
                    replacement = Const(inst.dst, value & _WORD)
            elif isinstance(inst, Cmp):
                av, bv = consts.get(inst.a), consts.get(inst.b)
                if av is not None and bv is not None:
                    flag = 1 if _CMP_EVAL[inst.cond](av, bv) else 0
                    replacement = Const(inst.dst, flag)
            elif isinstance(inst, CJump):
                av = consts.get(inst.a)
                bv = consts.get(inst.b) if inst.b is not None else 0
                if inst.b is not None and inst.b in consts and bv == 0 \
                        and inst.cond in (Cond.EQ, Cond.NE):
                    inst.b = None
                    changed = True
                    bv = 0
                if av is not None and (inst.b is None or inst.b in consts):
                    taken = _CMP_EVAL[inst.cond](av, bv)
                    replacement = Jump(inst.if_true if taken
                                       else inst.if_false)

            if replacement is not None:
                invalidate(replacement.defs() if hasattr(replacement, "defs")
                           else [])
                if isinstance(replacement, Const):
                    consts[replacement.dst] = replacement.value & _WORD
                out.append(replacement)
                changed = True
            else:
                invalidate(inst.defs())
                out.append(inst)
        block.instrs = out
    return changed


def _algebraic(inst: Bin, av, bv, func: Function, out: list):
    """Simplify ``a op const`` / ``const op a`` patterns."""
    op = inst.op
    if bv is not None:
        if op in ("add", "sub", "or", "xor", "shl", "shr", "shra") \
                and bv == 0:
            return Move(inst.dst, inst.a)
        if op == "mul":
            if bv == 1:
                return Move(inst.dst, inst.a)
            if bv == 0:
                return Const(inst.dst, 0)
            if _is_pow2(bv):
                shift = func.new_vreg("i")
                out.append(Const(shift, bv.bit_length() - 1))
                return Bin("shl", inst.dst, inst.a, shift)
        if op == "and" and bv == _WORD:
            return Move(inst.dst, inst.a)
        if op == "div" and bv == 1:
            return Move(inst.dst, inst.a)
    if av is not None:
        if op in ("add", "or", "xor") and av == 0:
            return Move(inst.dst, inst.b)
        if op == "mul":
            if av == 1:
                return Move(inst.dst, inst.b)
            if av == 0:
                return Const(inst.dst, 0)
            if _is_pow2(av):
                shift = func.new_vreg("i")
                out.append(Const(shift, av.bit_length() - 1))
                return Bin("shl", inst.dst, inst.b, shift)
        if op == "sub" and av == 0:
            return Un("neg", inst.dst, inst.b)
    return None


def copy_propagation(func: Function) -> bool:
    """Per-block copy propagation (replaces uses of copied values)."""
    changed = False
    for block in func.blocks:
        copies: dict[VReg, VReg] = {}
        for inst in block.instrs:
            mapping = {}
            for use in inst.uses():
                root = copies.get(use)
                if root is not None:
                    mapping[use] = root
            if mapping:
                inst.replace_uses(mapping)
                changed = True
            defs = inst.defs()
            for d in defs:
                copies.pop(d, None)
                stale = [k for k, v in copies.items() if v == d]
                for k in stale:
                    del copies[k]
            if isinstance(inst, Move) and inst.dst.cls == inst.src.cls \
                    and inst.dst != inst.src:
                copies[inst.dst] = inst.src
    return changed


def fold_offsets(func: Function) -> bool:
    """Fold address arithmetic into load/store displacements.

    Tracks ``v = base + const`` and ``v = &slot/&global (+ const)``
    definitions per block and rewrites memory ops using ``v`` to address
    the base with a displacement.  Targets later re-legalize offsets that
    exceed their displacement fields — which is exactly the cost the
    paper attributes to D16's short offsets.
    """
    changed = False
    for block in func.blocks:
        consts: dict[VReg, int] = {}
        addrs: dict[VReg, tuple[object, int]] = {}   # v -> (base, offset)

        def invalidate(reg: VReg):
            consts.pop(reg, None)
            addrs.pop(reg, None)
            stale = [k for k, (b, _o) in addrs.items() if b == reg]
            for k in stale:
                del addrs[k]

        for inst in block.instrs:
            if isinstance(inst, (Load, FLoad, Store, FStore)) \
                    and isinstance(inst.base, VReg) and inst.base in addrs:
                base, extra = addrs[inst.base]
                inst.base = base
                inst.offset += extra
                changed = True
            for d in inst.defs():
                invalidate(d)
            if any(d in inst.uses() for d in inst.defs()):
                continue   # self-referential defs cannot be tracked safely
            if isinstance(inst, Const):
                consts[inst.dst] = _s32(inst.value)
            elif isinstance(inst, AddrStack):
                addrs[inst.dst] = (inst.slot, 0)
            elif isinstance(inst, AddrGlobal):
                addrs[inst.dst] = (inst.name, inst.offset)
            elif isinstance(inst, Bin) and inst.op == "add" \
                    and inst.dst.cls == "i":
                if inst.b in consts:
                    root = addrs.get(inst.a, (inst.a, 0))
                    addrs[inst.dst] = (root[0], root[1] + consts[inst.b])
                elif inst.a in consts:
                    root = addrs.get(inst.b, (inst.b, 0))
                    addrs[inst.dst] = (root[0], root[1] + consts[inst.a])
            elif isinstance(inst, Bin) and inst.op == "sub" \
                    and inst.b in consts:
                root = addrs.get(inst.a, (inst.a, 0))
                addrs[inst.dst] = (root[0], root[1] - consts[inst.b])
            elif isinstance(inst, Move):
                if inst.src in addrs:
                    addrs[inst.dst] = addrs[inst.src]
                if inst.src in consts:
                    consts[inst.dst] = consts[inst.src]
    return changed


_PURE = (Const, FConst, Bin, Un, Cmp, FCmp, Cvt, Move, AddrStack, AddrGlobal)


def local_cse(func: Function) -> bool:
    """Local value numbering: reuse previously computed pure expressions."""
    changed = False
    for block in func.blocks:
        next_vn = [0]
        vn_of: dict[VReg, int] = {}
        expr_table: dict[tuple, tuple[VReg, int]] = {}

        def vn(reg: VReg) -> int:
            if reg not in vn_of:
                vn_of[reg] = next_vn[0]
                next_vn[0] += 1
            return vn_of[reg]

        out = []
        for inst in block.instrs:
            key = None
            if isinstance(inst, Const):
                key = ("const", inst.value)
            elif isinstance(inst, FConst):
                key = ("fconst", inst.dst.cls, repr(inst.value))
            elif isinstance(inst, Bin) and inst.op not in ("div", "rem"):
                a, b = vn(inst.a), vn(inst.b)
                if inst.op in ("add", "mul", "and", "or", "xor",
                               "fadd", "fmul"):
                    a, b = min(a, b), max(a, b)
                key = ("bin", inst.op, inst.dst.cls, a, b)
            elif isinstance(inst, Un):
                key = ("un", inst.op, inst.dst.cls, vn(inst.a))
            elif isinstance(inst, Cmp):
                key = ("cmp", inst.cond, vn(inst.a), vn(inst.b))
            elif isinstance(inst, Cvt):
                key = ("cvt", inst.kind, vn(inst.a))
            elif isinstance(inst, AddrStack):
                key = ("addrstack", inst.slot.id)
            elif isinstance(inst, AddrGlobal):
                key = ("addrglobal", inst.name, inst.offset)

            if key is not None:
                hit = expr_table.get(key)
                if hit is not None:
                    src, src_vn = hit
                    if vn_of.get(src) == src_vn and src != inst.dst:
                        out.append(Move(inst.dst, src))
                        vn_of[inst.dst] = src_vn
                        changed = True
                        continue
                new_vn = next_vn[0]
                next_vn[0] += 1
                vn_of[inst.dst] = new_vn
                expr_table[key] = (inst.dst, new_vn)
                out.append(inst)
                continue
            for d in inst.defs():
                vn_of[d] = next_vn[0]
                next_vn[0] += 1
            out.append(inst)
        block.instrs = out
    return changed


def dead_code(func: Function) -> bool:
    """Remove pure instructions whose results are never used.

    A vreg is used if an impure instruction reads it, or a pure
    instruction defining a used vreg reads it.  The worklist walks from
    each used vreg to its pure definitions once, reaching the same least
    fixpoint as sweeping the whole function until nothing changes.
    """
    used: set[VReg] = set()
    pure: list[tuple[Inst, list[VReg]]] = []
    pure_defs: dict[VReg, list[Inst]] = {}
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, _PURE):
                defs = inst.defs()
                pure.append((inst, defs))
                for d in defs:
                    pure_defs.setdefault(d, []).append(inst)
            else:
                used.update(inst.uses())
    worklist = list(used)
    while worklist:
        for inst in pure_defs.pop(worklist.pop(), ()):
            for u in inst.uses():
                if u not in used:
                    used.add(u)
                    worklist.append(u)

    dead = {id(inst) for inst, defs in pure
            if defs and used.isdisjoint(defs)}
    if not dead:
        return False
    for block in func.blocks:
        block.instrs = [inst for inst in block.instrs
                        if id(inst) not in dead]
    return True


def simplify_cfg(func: Function) -> bool:
    """Thread jumps, drop unreachable blocks, collapse trivial CJumps."""
    changed = False

    # Jump threading: a block that is just "jump X" can be bypassed.
    forward: dict[str, str] = {}
    for block in func.blocks:
        if len(block.instrs) == 1 and isinstance(block.instrs[0], Jump):
            forward[block.label] = block.instrs[0].target

    def resolve(label: str) -> str:
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            target = resolve(term.target)
            if target != term.target:
                term.target = target
                changed = True
        elif isinstance(term, CJump):
            for attr in ("if_true", "if_false"):
                target = resolve(getattr(term, attr))
                if target != getattr(term, attr):
                    setattr(term, attr, target)
                    changed = True
            if term.if_true == term.if_false:
                block.instrs[-1] = Jump(term.if_true)
                changed = True

    new_blocks = func.reachable_blocks()
    if len(new_blocks) != len(func.blocks):
        changed = True
    func.blocks = new_blocks

    # Merge straight-line pairs: jump to a block with a single predecessor.
    preds: dict[str, int] = {}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ] = preds.get(succ, 0) + 1
    merged = True
    while merged:
        merged = False
        blocks = func.block_map()
        for block in func.blocks:
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            succ = blocks.get(term.target)
            if succ is None or succ is block or preds.get(succ.label) != 1:
                continue
            if succ is func.blocks[0]:
                continue
            block.instrs = block.instrs[:-1] + succ.instrs
            func.blocks.remove(succ)
            changed = True
            merged = True
            break
    return changed


def dedupe_single_defs(func: Function) -> bool:
    """Merge identical single-definition pure computations per block.

    Complements the purely local CSE: when LICM (or lowering) leaves two
    single-def vregs computing the same pure value in one block, the
    later definition is deleted and every use of it — anywhere in the
    function — is renamed to the earlier vreg.  Sound because the
    surviving definition precedes the deleted one, the deleted vreg had
    no other definition, and its operands (single-def themselves) cannot
    change in between.
    """
    def_counts: dict[VReg, int] = {}
    for block in func.blocks:
        for inst in block.instrs:
            for d in inst.defs():
                def_counts[d] = def_counts.get(d, 0) + 1

    def single(reg: VReg) -> bool:
        return def_counts.get(reg, 0) <= 1

    renames: dict[VReg, VReg] = {}
    for block in func.blocks:
        seen: dict[tuple, VReg] = {}
        kept = []
        for inst in block.instrs:
            key = None
            if isinstance(inst, FConst):
                key = ("fconst", inst.dst.cls, repr(inst.value))
            elif isinstance(inst, Const):
                key = ("const", inst.value)
            elif isinstance(inst, AddrGlobal):
                key = ("addrglobal", inst.name, inst.offset)
            elif isinstance(inst, AddrStack):
                key = ("addrstack", inst.slot.id)
            elif isinstance(inst, (Bin, Un, Cvt)) \
                    and all(single(u) for u in inst.uses()):
                operands = tuple(renames.get(u, u) for u in inst.uses())
                op = getattr(inst, "op", getattr(inst, "kind", None))
                key = (type(inst).__name__, op, inst.dst.cls, operands)
            if key is not None and single(inst.dst):
                existing = seen.get(key)
                if existing is not None and existing != inst.dst:
                    renames[inst.dst] = existing
                    continue        # drop the duplicate definition
                seen[key] = inst.dst
            kept.append(inst)
        block.instrs = kept

    if not renames:
        return False
    # Resolve chains, then rewrite all uses.
    def resolve(reg: VReg) -> VReg:
        while reg in renames:
            reg = renames[reg]
        return reg

    mapping = {src: resolve(src) for src in renames}
    for block in func.blocks:
        for inst in block.instrs:
            inst.replace_uses(mapping)
    return True


# ------------------------------------------------------------------- LICM


def _predecessors(func: Function) -> dict[str, list[str]]:
    """Predecessor labels of every block, in layout order."""
    preds: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block.label)
    return preds


def _dominators(func: Function,
                preds: dict[str, list[str]]) -> dict[str, set[str]]:
    """Iterative dominator sets per block label."""
    labels = [b.label for b in func.blocks]
    entry = labels[0]
    dom: dict[str, set[str]] = {label: set(labels) for label in labels}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in labels[1:]:
            if preds[label]:
                new = set.intersection(*(dom[p] for p in preds[label]))
            else:
                new = set()
            new = new | {label}
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def _natural_loop(preds: dict[str, list[str]], header: str,
                  tail: str) -> set[str]:
    """Blocks of the natural loop for back edge tail -> header."""
    body = {header, tail}
    stack = [tail]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for pred in preds[label]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


#: What LICM may hoist.  Deliberately narrow: global addresses and FP
#: constants are expensive to rematerialize (constant-pool loads on D16,
#: mvhi/addi pairs on DLXe), while plain integer constants are a single
#: mvi — hoisting those would trade cheap instructions for register
#: pressure, which measurably hurts on the 16-register machines.
_HOISTABLE = (FConst, AddrGlobal, AddrStack)


def licm(func: Function) -> bool:
    """Loop-invariant code motion for pure single-definition values.

    Hoists pure computations whose operands are defined outside the loop
    into a preheader.  Safe without SSA because only vregs with exactly
    one definition in the whole function are considered.
    """
    if not func.blocks:
        return False
    def_counts: dict[VReg, int] = {}
    def_blocks: dict[VReg, set[str]] = {}
    for block in func.blocks:
        for inst in block.instrs:
            for d in inst.defs():
                def_counts[d] = def_counts.get(d, 0) + 1
                def_blocks.setdefault(d, set()).add(block.label)

    preds = _predecessors(func)
    dom = _dominators(func, preds)
    changed = False
    handled_headers: set[str] = set()
    # A snapshot: _insert_preheader inserts into func.blocks, at or
    # before the block being visited, which would hand it out again.
    for block in list(func.blocks):
        for succ in block.successors():
            if succ not in dom.get(block.label, set()):
                continue            # not a back edge
            header = succ
            if header in handled_headers:
                continue
            handled_headers.add(header)
            body = _natural_loop(preds, header, block.label)
            hoisted: list = []
            moved = True
            hoisted_defs: set[VReg] = set()
            while moved:
                moved = False
                for loop_block in func.blocks:   # deterministic order
                    if loop_block.label not in body:
                        continue
                    kept = []
                    for inst in loop_block.instrs:
                        if self_hoistable(inst, def_counts, def_blocks,
                                          body, hoisted_defs):
                            hoisted.append(inst)
                            hoisted_defs.update(inst.defs())
                            moved = True
                        else:
                            kept.append(inst)
                    loop_block.instrs = kept
            if hoisted:
                changed = True
                _insert_preheader(func, header, body, hoisted)
                preds = _predecessors(func)
    return changed


def self_hoistable(inst, def_counts, def_blocks, body,
                   hoisted_defs) -> bool:
    if not isinstance(inst, _HOISTABLE):
        return False
    defs = inst.defs()
    if len(defs) != 1 or def_counts.get(defs[0], 0) != 1:
        return False
    for use in inst.uses():
        if use in hoisted_defs:
            continue
        if any(label in body for label in def_blocks.get(use, ())):
            return False
    return True


def _insert_preheader(func: Function, header: str, body: set[str],
                      hoisted: list) -> None:
    pre_label = f"{header}.pre"
    preheader = Block(label=pre_label, instrs=hoisted + [Jump(header)])
    # Redirect all edges into the header from outside the loop.
    for block in func.blocks:
        if block.label in body:
            continue
        term = block.terminator
        if isinstance(term, Jump) and term.target == header:
            term.target = pre_label
        elif term is not None and hasattr(term, "if_true"):
            if term.if_true == header:
                term.if_true = pre_label
            if term.if_false == header:
                term.if_false = pre_label
    index = next(i for i, b in enumerate(func.blocks)
                 if b.label == header)
    # Before the header: if the header is the entry, so is the preheader.
    func.blocks.insert(index, preheader)


class PassVerificationError(Exception):
    """An optimizer pass left the IR in an invalid state.

    Raised by :func:`optimize` under ``verify=True``; names the exact
    pass after which the IR verifier first reported errors, so a
    miscompile is localized to one transformation.
    """

    def __init__(self, func_name: str, pass_name: str, findings):
        self.func_name = func_name
        self.pass_name = pass_name
        self.findings = list(findings)
        detail = "\n".join(f.format() for f in self.findings)
        super().__init__(
            f"IR verification failed after '{pass_name}' on function "
            f"'{func_name}':\n{detail}")


#: The pass pipeline, named so ``verify`` failures localize precisely.
_PIPELINE_O1 = (
    ("copy-propagation", copy_propagation),
    ("fold-constants", fold_constants),
    ("fold-offsets", fold_offsets),
    ("local-cse", local_cse),
    ("copy-propagation", copy_propagation),
    ("dead-code", dead_code),
    ("simplify-cfg", simplify_cfg),
)
_PIPELINE_O2 = (
    ("licm", licm),
    ("dedupe-single-defs", dedupe_single_defs),
    ("dead-code", dead_code),
)


def _verify_after(func: Function, pass_name: str) -> None:
    from ..analysis.findings import Severity
    from ..analysis.irverify import verify_function

    errors = [f for f in verify_function(func)
              if f.severity == Severity.ERROR]
    if errors:
        raise PassVerificationError(func.name, pass_name, errors)


#: Per-pass observation hook: called as ``observer(function_name,
#: pass_name, round_index, before, after, changed)`` where ``before``
#: is a clone (:meth:`~repro.cc.ir.Function.clone`) of the function
#: taken immediately before the pass ran and ``after`` is the live
#: (possibly mutated) function.
PassObserver = Callable[[str, str, int, Function, Function, bool], None]


def optimize(func: Function, *, level: int = 2,
             verify: bool = False,
             observer: PassObserver | None = None) -> None:
    """Run the optimization pipeline to a fixed point (bounded).

    With ``verify=True`` the IR verifier runs on the input and after
    every pass; the first broken invariant raises
    :class:`PassVerificationError` naming the offending pass.

    With an ``observer``, every pass application is reported together
    with a pre-pass snapshot of the function — the hook the
    translation-validation driver (:mod:`repro.analysis.equiv`) uses to
    check a simulation relation across each transformation.
    """
    if verify:
        _verify_after(func, "initial IR")
    if level <= 0:
        return
    pipeline = _PIPELINE_O1 + (_PIPELINE_O2 if level >= 2 else ())
    for round_index in range(4 if level >= 2 else 1):
        changed = False
        for name, pass_fn in pipeline:
            snapshot = func.clone() if observer is not None else None
            pass_changed = pass_fn(func)
            changed |= pass_changed
            if verify:
                _verify_after(func, name)
            if observer is not None:
                assert snapshot is not None
                observer(func.name, name, round_index, snapshot, func,
                         pass_changed)
        if not changed:
            break


#: Each optimized function, frozen (:func:`~repro.cc.ir.freeze`), by
#: opt level and the fingerprint of the function before optimization.
#: Every program carries the same runtime library
#: (:func:`~repro.cc.runtime.with_runtime`), so a process that compiles
#: several programs optimizes each runtime function once.  The memo
#: lives in the process only: the output follows vreg hash order, which
#: ``PYTHONHASHSEED`` sets, so it must not reach another process.
_OPTIMIZED: dict[tuple[int, bytes], bytes] = {}


def optimize_module(module, *, level: int = 2,
                    verify: bool = False,
                    observer: PassObserver | None = None) -> None:
    """:func:`optimize` every function of ``module`` in place.

    A function optimized before in this process at this level is
    restored from :data:`_OPTIMIZED`, except under ``verify`` or an
    ``observer``, whose checks must see every pass run.
    """
    for func in module.functions:
        if verify or observer is not None:
            optimize(func, level=level, verify=verify, observer=observer)
            continue
        key = (level, fingerprint(func))
        optimized = _OPTIMIZED.get(key)
        if optimized is None:
            optimize(func, level=level)
            _OPTIMIZED[key] = freeze(func)
        else:
            thaw(func, optimized)
