"""IR verifier: structural and dataflow invariants for :mod:`repro.cc.ir`.

Checks are grouped in three families:

* **CFG well-formedness** — every block ends in exactly one terminator
  (IR001/IR002), every branch target names an existing block (IR003),
  labels are unique (IR004), and every block is reachable from the
  entry (IR005, warning: optimizer passes legitimately leave dead
  blocks behind for ``simplify_cfg`` to collect).
* **Dataflow** — no virtual register is read on a path where it has not
  been defined (IR006), computed by a forward must-be-defined analysis
  (intersection over predecessors) seeded with the function parameters.
* **Operands** — one vreg id never carries two register classes
  (IR007), every instruction's operand classes match its operation
  (IR008), stack-slot operands are registered with the function (IR009)
  and accesses stay inside the slot's extent (IR010, warning).

The verifier is deliberately tolerant of machine-level IR extensions
(``BinImm`` and friends from codegen): unknown instruction types still
participate in CFG and def-use checks through ``uses``/``defs`` but
skip the per-type class checks.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..cc.ir import (AddrGlobal, AddrStack, Bin, Block, CJump, Cmp, Const,
                     Cvt, FCmp, FConst, FLoad, FStore, Function, Inst, Load,
                     Module, Move, StackSlot, Store, TERMINATORS, Un, VReg)
from .findings import Finding, finding

_INT_BIN = {"add", "sub", "mul", "div", "rem", "and", "or", "xor",
            "shl", "shr", "shra"}
_FP_BIN = {"fadd", "fsub", "fmul", "fdiv"}
_CVT_SIG = {"i2f": ("i", "f"), "i2d": ("i", "d"), "f2i": ("f", "i"),
            "d2i": ("d", "i"), "f2d": ("f", "d"), "d2f": ("d", "f")}


def _is_terminator(inst: Inst) -> bool:
    return isinstance(inst, TERMINATORS) or hasattr(inst, "if_true")


def verify_function(func: Function) -> list[Finding]:
    """Verify one function; returns findings (empty list = clean)."""
    out: list[Finding] = []
    if not func.blocks:
        return out

    labels: dict[str, int] = {}
    for block in func.blocks:
        if block.label in labels:
            out.append(finding("IR004", f"{func.name}:{block.label}",
                               "label defined more than once"))
        labels[block.label] = labels.get(block.label, 0) + 1
    block_map = func.block_map()

    for block in func.blocks:
        loc = f"{func.name}:{block.label}"
        if block.terminator is None:
            out.append(finding("IR001", loc,
                               "block does not end in ret/jump/cjump"))
        for index, inst in enumerate(block.instrs[:-1]):
            if _is_terminator(inst):
                out.append(finding(
                    "IR002", f"{loc}:{index}",
                    f"terminator '{inst}' is not the last instruction"))
        for succ in block.successors():
            if succ not in block_map:
                out.append(finding(
                    "IR003", loc,
                    f"branch target '{succ}' is not a block"))

    reachable = {block.label for block in func.reachable_blocks()}
    for block in func.blocks:
        if block.label not in reachable:
            out.append(finding("IR005", f"{func.name}:{block.label}",
                               "no path from entry reaches this block"))

    out.extend(_check_classes(func))
    out.extend(_check_slots(func))
    # Dataflow only makes sense over a structurally sound CFG.
    if not any(f.rule in ("IR001", "IR002", "IR003", "IR004") for f in out):
        out.extend(_check_defs(func, block_map, reachable))
    return out


def verify_module(module: Module) -> list[Finding]:
    out: list[Finding] = []
    for func in module.functions:
        out.extend(verify_function(func))
    return out


# -------------------------------------------------------- def-before-use


def _check_defs(func: Function, block_map: dict[str, Block],
                reachable: set[str]) -> list[Finding]:
    """Forward must-be-defined dataflow over vreg ids.

    ``IN[entry]`` is the parameter set; ``IN[b]`` is the intersection of
    the predecessors' ``OUT`` sets (initialised to "everything" so loops
    converge from above); a use not covered by ``IN`` plus the defs so
    far in the block is a path where the vreg may be uninitialised.
    """
    out_findings: list[Finding] = []
    order = [b for b in func.blocks if b.label in reachable]
    preds: dict[str, set[str]] = {b.label: set() for b in order}
    for block in order:
        for succ in block.successors():
            if succ in preds:
                preds[succ].add(block.label)

    universe = _all_vreg_ids(func)
    entry = func.blocks[0].label
    in_sets: dict[str, set[int]] = {
        b.label: set(universe) for b in order}
    in_sets[entry] = {p.id for p in func.params}
    out_sets: dict[str, set[int]] = {
        label: s | _block_defs(block_map[label])
        for label, s in in_sets.items()}

    changed = True
    while changed:
        changed = False
        for block in order:
            if block.label == entry:
                continue
            if preds[block.label]:
                new_in = set.intersection(
                    *(out_sets[p] for p in preds[block.label]))
            else:
                new_in = {p.id for p in func.params}
            if new_in != in_sets[block.label]:
                in_sets[block.label] = new_in
                new_out = new_in | _block_defs(block)
                if new_out != out_sets[block.label]:
                    out_sets[block.label] = new_out
                    changed = True

    for block in order:
        defined = set(in_sets[block.label])
        for index, inst in enumerate(block.instrs):
            for use in inst.uses():
                if use.id not in defined:
                    out_findings.append(finding(
                        "IR006",
                        f"{func.name}:{block.label}:{index}",
                        f"{use} used by '{inst}' before any definition "
                        f"reaches it"))
            defined.update(d.id for d in inst.defs())
    return out_findings


def _block_defs(block: Block) -> set[int]:
    defs: set[int] = set()
    for inst in block.instrs:
        defs.update(d.id for d in inst.defs())
    return defs


def _all_vreg_ids(func: Function) -> set[int]:
    ids = {p.id for p in func.params}
    for block in func.blocks:
        for inst in block.instrs:
            ids.update(v.id for v in inst.uses())
            ids.update(v.id for v in inst.defs())
    return ids


# -------------------------------------------------------- operand classes


def _check_classes(func: Function) -> list[Finding]:
    out: list[Finding] = []
    cls_of: dict[int, tuple[str, str]] = {
        p.id: (p.cls, f"{func.name} parameter") for p in func.params}

    def note(reg: VReg, loc: str) -> None:
        seen = cls_of.get(reg.id)
        if seen is None:
            cls_of[reg.id] = (reg.cls, loc)
        elif seen[0] != reg.cls:
            out.append(finding(
                "IR007", loc,
                f"vreg id {reg.id} is class '{reg.cls}' here but "
                f"class '{seen[0]}' at {seen[1]}"))

    for block in func.blocks:
        for index, inst in enumerate(block.instrs):
            loc = f"{func.name}:{block.label}:{index}"
            for reg in (*inst.uses(), *inst.defs()):
                note(reg, loc)
            for message in _class_errors(inst):
                out.append(finding("IR008", loc, f"{message} in '{inst}'"))
    return out


def _class_errors(inst: Inst) -> Iterator[str]:
    if isinstance(inst, Const):
        if inst.dst.cls != "i":
            yield f"const destination {inst.dst} is not class 'i'"
    elif isinstance(inst, FConst):
        if inst.dst.cls not in ("f", "d"):
            yield f"fconst destination {inst.dst} is not class 'f'/'d'"
    elif isinstance(inst, Move):
        if inst.dst.cls != inst.src.cls:
            yield f"move between classes '{inst.src.cls}'->'{inst.dst.cls}'"
    elif isinstance(inst, Bin):
        want = "i" if inst.op in _INT_BIN else None
        if inst.op in _FP_BIN:
            want = inst.dst.cls if inst.dst.cls in ("f", "d") else "f"
            if inst.dst.cls == "i":
                yield f"fp op '{inst.op}' writes integer {inst.dst}"
        elif inst.op not in _INT_BIN:
            yield f"unknown binary op '{inst.op}'"
        if want is not None:
            for reg in (inst.dst, inst.a, inst.b):
                if reg.cls != want:
                    yield f"operand {reg} is not class '{want}'"
    elif isinstance(inst, Un):
        if inst.op in ("neg", "inv"):
            for reg in (inst.dst, inst.a):
                if reg.cls != "i":
                    yield f"operand {reg} is not class 'i'"
        elif inst.op == "fneg":
            if inst.dst.cls not in ("f", "d") or inst.a.cls != inst.dst.cls:
                yield "fneg operands must share an fp class"
        else:
            yield f"unknown unary op '{inst.op}'"
    elif isinstance(inst, Cmp):
        for reg in (inst.dst, inst.a, inst.b):
            if reg.cls != "i":
                yield f"operand {reg} is not class 'i'"
    elif isinstance(inst, FCmp):
        if inst.dst.cls != "i":
            yield f"fcmp result {inst.dst} is not class 'i'"
        if inst.a.cls not in ("f", "d") or inst.b.cls != inst.a.cls:
            yield "fcmp operands must share an fp class"
    elif isinstance(inst, Cvt):
        sig = _CVT_SIG.get(inst.kind)
        if sig is None:
            yield f"unknown conversion '{inst.kind}'"
        else:
            if inst.a.cls != sig[0]:
                yield f"{inst.kind} source {inst.a} is not class '{sig[0]}'"
            if inst.dst.cls != sig[1]:
                yield f"{inst.kind} result {inst.dst} is not " \
                      f"class '{sig[1]}'"
    elif isinstance(inst, Load):
        if inst.dst.cls != "i":
            yield f"load destination {inst.dst} is not class 'i'"
    elif isinstance(inst, FLoad):
        if inst.dst.cls not in ("f", "d"):
            yield f"fload destination {inst.dst} is not class 'f'/'d'"
    elif isinstance(inst, Store):
        if inst.src.cls != "i":
            yield f"store source {inst.src} is not class 'i'"
    elif isinstance(inst, FStore):
        if inst.src.cls not in ("f", "d"):
            yield f"fstore source {inst.src} is not class 'f'/'d'"
    elif isinstance(inst, (AddrGlobal, AddrStack)):
        if inst.dst.cls != "i":
            yield f"address result {inst.dst} is not class 'i'"
    elif isinstance(inst, CJump):
        if inst.a.cls != "i" or (inst.b is not None and inst.b.cls != "i"):
            yield "cjump compares non-integer operands"
    if isinstance(inst, (Load, FLoad, Store, FStore)) \
            and isinstance(inst.base, VReg) and inst.base.cls != "i":
        yield f"address base {inst.base} is not class 'i'"


# ------------------------------------------------------------ stack slots


def _check_slots(func: Function) -> list[Finding]:
    out: list[Finding] = []
    known = {slot.id for slot in func.slots}

    def check(slot: StackSlot, loc: str, inst: Inst,
              offset: int | None = None,
              size: int | None = None) -> None:
        if slot.id not in known:
            out.append(finding(
                "IR009", loc,
                f"{slot} in '{inst}' is not in the function's slot list"))
            return
        if offset is None:
            return
        end = offset + size
        if offset < 0 or end > slot.size:
            out.append(finding(
                "IR010", loc,
                f"access [{offset}, {end}) in '{inst}' is outside "
                f"{slot} of size {slot.size}"))

    for block in func.blocks:
        for index, inst in enumerate(block.instrs):
            loc = f"{func.name}:{block.label}:{index}"
            if isinstance(inst, AddrStack):
                check(inst.slot, loc, inst)
            elif isinstance(inst, (Load, Store)) \
                    and isinstance(inst.base, StackSlot):
                check(inst.base, loc, inst, inst.offset, inst.size)
            elif isinstance(inst, (FLoad, FStore)) \
                    and isinstance(inst.base, StackSlot):
                reg = inst.src if isinstance(inst, FStore) else inst.dst
                check(inst.base, loc, inst, inst.offset,
                      8 if reg.cls == "d" else 4)
    return out
