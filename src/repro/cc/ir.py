"""Three-address intermediate representation.

Functions are graphs of basic blocks; values live in typed virtual
registers (classes ``i`` = word/pointer, ``f`` = float, ``d`` = double).
The IR is deliberately close to the shared D16/DLXe operation set so that
instruction selection is mostly one-to-one, with the targets differing in
*legalization* (immediate ranges, addressing, two-address forms).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from ..isa.operations import Cond


@dataclass(frozen=True)
class VReg:
    id: int
    cls: str               # 'i', 'f', 'd'
    hint: str = ""

    def __str__(self):
        prefix = {"i": "v", "f": "vf", "d": "vd"}[self.cls]
        return f"{prefix}{self.id}"


@dataclass(frozen=True)
class StackSlot:
    id: int
    size: int
    align: int
    name: str = ""

    def __str__(self):
        return f"slot{self.id}({self.name})" if self.name else f"slot{self.id}"


class Inst:
    """Base IR instruction; subclasses define ``uses``/``defs``."""

    def uses(self) -> list[VReg]:
        return []

    def defs(self) -> list[VReg]:
        return []

    def replace_uses(self, mapping: dict[VReg, VReg]) -> None:
        """Rewrite used vregs in place via ``mapping`` (default: nothing)."""

    def clone(self) -> Inst:
        """A copy whose fields can be reassigned without touching this
        instruction; operand values (frozen ``VReg``/``StackSlot``,
        labels, constants) are shared."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin


def _mapped(mapping, value):
    return mapping.get(value, value)


@dataclass
class Const(Inst):
    dst: VReg
    value: int

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = {self.value}"


@dataclass
class FConst(Inst):
    dst: VReg
    value: float

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = {self.value!r}"


@dataclass
class Move(Inst):
    dst: VReg
    src: VReg

    def uses(self):
        return [self.src]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.src = _mapped(mapping, self.src)

    def __str__(self):
        return f"{self.dst} = {self.src}"


@dataclass
class Bin(Inst):
    op: str                # add/sub/mul/div/rem/and/or/xor/shl/shr/shra/f*
    dst: VReg
    a: VReg
    b: VReg

    def uses(self):
        return [self.a, self.b]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)
        self.b = _mapped(mapping, self.b)

    def __str__(self):
        return f"{self.dst} = {self.op} {self.a}, {self.b}"


@dataclass
class Un(Inst):
    op: str                # neg / inv / fneg
    dst: VReg
    a: VReg

    def uses(self):
        return [self.a]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)

    def __str__(self):
        return f"{self.dst} = {self.op} {self.a}"


@dataclass
class Cmp(Inst):
    dst: VReg
    cond: Cond
    a: VReg
    b: VReg

    def uses(self):
        return [self.a, self.b]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)
        self.b = _mapped(mapping, self.b)

    def __str__(self):
        return f"{self.dst} = cmp{self.cond.value} {self.a}, {self.b}"


@dataclass
class FCmp(Inst):
    dst: VReg
    cond: Cond
    a: VReg
    b: VReg

    def uses(self):
        return [self.a, self.b]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)
        self.b = _mapped(mapping, self.b)

    def __str__(self):
        return f"{self.dst} = fcmp{self.cond.value} {self.a}, {self.b}"


@dataclass
class Cvt(Inst):
    kind: str              # i2f i2d f2i d2i f2d d2f
    dst: VReg
    a: VReg

    def uses(self):
        return [self.a]

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)

    def __str__(self):
        return f"{self.dst} = {self.kind} {self.a}"


@dataclass
class Load(Inst):
    dst: VReg
    base: "VReg | StackSlot | str"   # str names a global
    size: int              # 1, 2, 4 (int class); FP loads use FLoad
    signed: bool = True
    offset: int = 0

    def uses(self):
        return [self.base] if isinstance(self.base, VReg) else []

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        if isinstance(self.base, VReg):
            self.base = _mapped(mapping, self.base)

    def __str__(self):
        sign = "s" if self.signed else "u"
        return f"{self.dst} = load{self.size}{sign} [{self.base}+{self.offset}]"


@dataclass
class FLoad(Inst):
    dst: VReg              # f or d class
    base: "VReg | StackSlot | str"
    offset: int = 0

    def uses(self):
        return [self.base] if isinstance(self.base, VReg) else []

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        if isinstance(self.base, VReg):
            self.base = _mapped(mapping, self.base)

    def __str__(self):
        return f"{self.dst} = fload [{self.base}+{self.offset}]"


@dataclass
class Store(Inst):
    base: "VReg | StackSlot | str"
    src: VReg
    size: int
    offset: int = 0

    def uses(self):
        used = [self.src]
        if isinstance(self.base, VReg):
            used.append(self.base)
        return used

    def replace_uses(self, mapping):
        if isinstance(self.base, VReg):
            self.base = _mapped(mapping, self.base)
        self.src = _mapped(mapping, self.src)

    def __str__(self):
        return f"store{self.size} [{self.base}+{self.offset}] = {self.src}"


@dataclass
class FStore(Inst):
    base: "VReg | StackSlot | str"
    src: VReg              # f or d class
    offset: int = 0

    def uses(self):
        used = [self.src]
        if isinstance(self.base, VReg):
            used.append(self.base)
        return used

    def replace_uses(self, mapping):
        if isinstance(self.base, VReg):
            self.base = _mapped(mapping, self.base)
        self.src = _mapped(mapping, self.src)

    def __str__(self):
        return f"fstore [{self.base}+{self.offset}] = {self.src}"


@dataclass
class AddrGlobal(Inst):
    dst: VReg
    name: str
    offset: int = 0        # folded displacement (pooled as name+offset)

    def defs(self):
        return [self.dst]

    def __str__(self):
        suffix = f"+{self.offset}" if self.offset else ""
        return f"{self.dst} = &{self.name}{suffix}"


@dataclass
class AddrStack(Inst):
    dst: VReg
    slot: StackSlot

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = &{self.slot}"


@dataclass
class CallInst(Inst):
    dst: VReg | None
    name: str
    args: list[VReg]

    def uses(self):
        return list(self.args)

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def replace_uses(self, mapping):
        self.args = [_mapped(mapping, a) for a in self.args]

    def clone(self):
        return CallInst(self.dst, self.name, list(self.args))

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dst} = " if self.dst else ""
        return f"{prefix}call {self.name}({args})"


@dataclass
class Ret(Inst):
    src: VReg | None = None

    def uses(self):
        return [self.src] if self.src is not None else []

    def replace_uses(self, mapping):
        if self.src is not None:
            self.src = _mapped(mapping, self.src)

    def __str__(self):
        return f"ret {self.src}" if self.src else "ret"


@dataclass
class Jump(Inst):
    target: str

    def __str__(self):
        return f"jump {self.target}"


@dataclass
class CJump(Inst):
    cond: Cond
    a: VReg
    b: VReg | None         # None: compare against zero
    if_true: str
    if_false: str

    def uses(self):
        return [self.a] if self.b is None else [self.a, self.b]

    def replace_uses(self, mapping):
        self.a = _mapped(mapping, self.a)
        if self.b is not None:
            self.b = _mapped(mapping, self.b)

    def __str__(self):
        rhs = "0" if self.b is None else str(self.b)
        return (f"if {self.a} {self.cond.value} {rhs} "
                f"goto {self.if_true} else {self.if_false}")


TERMINATORS = (Ret, Jump, CJump)


@dataclass
class Block:
    label: str
    instrs: list[Inst] = field(default_factory=list)

    @property
    def terminator(self) -> Inst | None:
        """The block-ending instruction, if present.

        Conditional jumps are duck-typed on ``if_true``/``if_false`` so
        machine-level variants (e.g. immediate-compare jumps created by
        the backends) participate in CFG queries too.
        """
        if not self.instrs:
            return None
        last = self.instrs[-1]
        if isinstance(last, TERMINATORS) or hasattr(last, "if_true"):
            return last
        return None

    def successors(self) -> list[str]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if term is not None and hasattr(term, "if_true"):
            return [term.if_true, term.if_false]
        return []

    def clone(self) -> Block:
        return Block(self.label, [inst.clone() for inst in self.instrs])

    def __str__(self):
        lines = [f"{self.label}:"]
        lines.extend(f"  {inst}" for inst in self.instrs)
        return "\n".join(lines)


@dataclass
class Function:
    name: str
    params: list[VReg]
    return_cls: str | None       # 'i', 'f', 'd', or None (void)
    blocks: list[Block] = field(default_factory=list)
    slots: list[StackSlot] = field(default_factory=list)
    next_vreg: int = 0
    next_slot: int = 0
    max_call_args: int = 0       # outgoing stack-arg words needed

    def new_vreg(self, cls: str, hint: str = "") -> VReg:
        vreg = VReg(self.next_vreg, cls, hint)
        self.next_vreg += 1
        return vreg

    def new_slot(self, size: int, align: int, name: str = "") -> StackSlot:
        slot = StackSlot(self.next_slot, size, align, name)
        self.next_slot += 1
        self.slots.append(slot)
        return slot

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def reachable_blocks(self) -> list[Block]:
        """The blocks a path from the entry block reaches, in layout
        order."""
        blocks = self.block_map()
        reached: set[str] = set()
        stack = [self.blocks[0].label] if self.blocks else []
        while stack:
            label = stack.pop()
            if label in reached or label not in blocks:
                continue
            reached.add(label)
            stack.extend(blocks[label].successors())
        return [block for block in self.blocks if block.label in reached]

    def clone(self) -> Function:
        """An independent copy: blocks, instructions and lists are
        copied, the frozen ``VReg`` and ``StackSlot`` values shared.
        Equal to ``copy.deepcopy(self)`` at a fraction of its cost."""
        return Function(self.name, list(self.params), self.return_cls,
                        [block.clone() for block in self.blocks],
                        list(self.slots), self.next_vreg, self.next_slot,
                        self.max_call_args)

    def __str__(self):
        header = f"func {self.name}({', '.join(map(str, self.params))})"
        return header + "\n" + "\n".join(str(b) for b in self.blocks)


# The compile memos (``repro.cc.opt`` and ``repro.cc.codegen``) hold
# functions pickled and key them by a digest of the pickle.  ``str``
# would not do as a key: it omits ``VReg.hint``, which feeds the
# ``VReg`` hash and so the iteration order of vreg sets.


def freeze(func: Function) -> bytes:
    """``func`` pickled: equal pickles are equal functions, down to
    vreg hints and which objects the function shares."""
    return pickle.dumps(func, pickle.HIGHEST_PROTOCOL)


def fingerprint(func: Function) -> bytes:
    """A digest of :func:`freeze`: the compile memos' key."""
    # Imported here: hashlib loads OpenSSL, about 5 ms that every
    # ``repro`` start-up would pay whether or not it compiles.
    from hashlib import blake2b

    return blake2b(freeze(func), digest_size=16).digest()


def thaw(func: Function, frozen: bytes) -> None:
    """Make ``func`` the frozen function ``frozen``, in place, as a
    pass that produced it would have left it."""
    vars(func).update(vars(pickle.loads(frozen)))


def liveness(func: Function) -> tuple[dict[str, frozenset[VReg]],
                                      dict[str, frozenset[VReg]]]:
    """Backward live-variable dataflow over ``func``'s blocks.

    Returns the live-in and live-out vreg sets per block label, the
    least fixpoint of ``in = use | (out - def)`` with ``out`` the union
    of the successors' live-in sets.
    """
    gen: dict[str, frozenset[VReg]] = {}
    kill: dict[str, frozenset[VReg]] = {}
    for block in func.blocks:
        use: set[VReg] = set()
        defined: set[VReg] = set()
        for inst in block.instrs:
            use.update(reg for reg in inst.uses() if reg not in defined)
            defined.update(inst.defs())
        gen[block.label] = frozenset(use)
        kill[block.label] = frozenset(defined)
    live_in: dict[str, frozenset[VReg]] = \
        {block.label: frozenset() for block in func.blocks}
    live_out = dict(live_in)
    changed = True
    while changed:
        changed = False
        for block in reversed(func.blocks):
            label = block.label
            out = frozenset().union(*(live_in.get(succ, frozenset())
                                      for succ in block.successors()))
            live_out[label] = out
            new = gen[label] | (out - kill[label])
            if new != live_in[label]:
                live_in[label] = new
                changed = True
    return live_in, live_out


@dataclass
class GlobalData:
    """One global variable's layout and initializer.

    ``init`` is a list of directives: ``("bytes", bytes)``,
    ``("word", int)``, ``("sym", name)``, ``("space", n)``.
    """

    name: str
    size: int
    align: int
    init: list[tuple] = field(default_factory=list)


@dataclass
class Module:
    functions: list[Function] = field(default_factory=list)
    globals: list[GlobalData] = field(default_factory=list)

    def clone(self) -> Module:
        """Clone every function; the globals, which code generation
        only reads, are shared."""
        return Module([func.clone() for func in self.functions],
                      list(self.globals))

    def function(self, name: str) -> Function:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def __str__(self):
        return "\n\n".join(str(f) for f in self.functions)
