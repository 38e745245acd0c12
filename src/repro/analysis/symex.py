"""Solver-free symbolic evaluation for translation validation.

Two symbolic executors share one canonicalized term language:

* :class:`IRExecutor` evaluates :mod:`repro.cc.ir` basic blocks — the
  substrate of the per-pass equivalence checks in
  :mod:`repro.analysis.equiv`;
* :class:`MachineExecutor` evaluates disassembled function bodies over
  the shared :class:`~repro.analysis.cfg.BinaryCFG`, producing the
  observable-effect summaries that upgrade the cross-ISA comparison
  from count consistency to semantic consistency.

Terms are immutable nested tuples, so structural equality *is* the
decision procedure: the normalizing constructors below fold constants
with the optimizer's exact 32-bit wrap semantics (``_s32`` arithmetic,
shift counts masked to 5 bits, ``mul`` on sign-interpreted operands)
and rewrite every linear combination into one canonical sum-of-terms
shape.  There is no SMT solver anywhere: whatever the rewriter cannot
prove is reported as :class:`Unknown`, never guessed.

Term grammar (all tuples)::

    ("lit", u32)                     literal word
    ("sym", key)                     free symbol (correlated by key)
    ("sum", c, ((t, k), ...))        c + sum(t_i * k_i) mod 2^32
    ("mul"|"and"|"or"|"xor"|..., a, b)   residual applications
    ("cmp", cond, a, b)              0/1-valued comparison
    ("glob", name) / ("slot", id)    address atoms
    ("ld", size, signed, addr, mem)  memory read
    ("mem", key) / ("st", ...)       memory states (stores chain)

A ``sum`` never nests, never carries literal or sum entries, keeps its
entries sorted, and collapses to ``lit``/bare-term forms, so any two
expressions equal modulo associativity, commutativity, distribution
over constants, and 32-bit wraparound construct the identical tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..cc.codegen import BinImm, CJumpImm, CmpImm
from ..cc.ir import (AddrGlobal, AddrStack, Bin, Block, CallInst, CJump,
                     Cmp, Const, Cvt, FCmp, FConst, FLoad, FStore,
                     Function, Inst, Jump, Load, Move, Ret, StackSlot,
                     Store, Un, VReg)
from ..cc.target import REG_GP, REG_LINK, REG_RET, REG_SP
from ..isa.instruction import Instr
from ..isa.operations import (COND_NEGATE, COND_SWAP, DATA_ACCESS,
                               DATA_LOADS, DATA_STORES, Cond, Op)
from ..isa.refs import ldc_pool_addr
from .cfg import BasicBlock, BinaryCFG

_WORD = 0xFFFFFFFF
_M32 = 1 << 32

#: Path-exploration limits: beyond these the region is ``Unknown``.
MAX_STEPS = 4096
MAX_LEAVES = 64

Term = tuple[object, ...]


class Unknown(Exception):
    """The engine cannot decide; carries a human-readable reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _s32(value: int) -> int:
    value &= _WORD
    return value - _M32 if value & 0x80000000 else value


# ------------------------------------------------------------------ terms


def lit(value: int) -> Term:
    return ("lit", value & _WORD)


def sym(key: tuple[object, ...]) -> Term:
    return ("sym", key)


def is_lit(term: Term) -> bool:
    return term[0] == "lit"


def lit_value(term: Term) -> int:
    assert term[0] == "lit"
    value = term[1]
    assert isinstance(value, int)
    return value


def _key(term: Term) -> str:
    """Total ordering key; ``repr`` of nested tuples is deterministic."""
    return repr(term)


def _sum_parts(term: Term) -> tuple[int, dict[Term, int]]:
    """Decompose any term into ``(constant, {atom: coefficient})``."""
    if term[0] == "lit":
        return lit_value(term), {}
    if term[0] == "sum":
        const = term[1]
        assert isinstance(const, int)
        pairs = term[2]
        assert isinstance(pairs, tuple)
        parts: dict[Term, int] = {}
        for entry in pairs:
            atom, coeff = entry
            parts[atom] = coeff
        return const, parts
    return 0, {term: 1}


def _make_sum(const: int, parts: Mapping[Term, int]) -> Term:
    cleaned = {t: k % _M32 for t, k in parts.items() if k % _M32}
    const %= _M32
    if not cleaned:
        return lit(const)
    if const == 0 and len(cleaned) == 1:
        (atom, coeff), = cleaned.items()
        if coeff == 1:
            return atom
    entries = tuple(sorted(cleaned.items(), key=lambda e: _key(e[0])))
    return ("sum", const, entries)


def add(a: Term, b: Term) -> Term:
    ca, pa = _sum_parts(a)
    cb, pb = _sum_parts(b)
    parts = dict(pa)
    for atom, coeff in pb.items():
        parts[atom] = parts.get(atom, 0) + coeff
    return _make_sum(ca + cb, parts)


def sub(a: Term, b: Term) -> Term:
    return add(a, _scale(b, -1))


def neg(a: Term) -> Term:
    return _scale(a, -1)


def _scale(term: Term, factor: int) -> Term:
    const, parts = _sum_parts(term)
    return _make_sum(const * factor,
                     {t: k * factor for t, k in parts.items()})


def mul(a: Term, b: Term) -> Term:
    if is_lit(a):
        return _scale(b, _s32(lit_value(a)))
    if is_lit(b):
        return _scale(a, _s32(lit_value(b)))
    lo, hi = sorted((a, b), key=_key)
    return ("mul", lo, hi)


def inv(a: Term) -> Term:
    return bitop("xor", a, lit(_WORD))


def bitop(op: str, a: Term, b: Term) -> Term:
    """``and``/``or``/``xor`` with literal folding and identities."""
    if is_lit(a) and is_lit(b):
        va, vb = lit_value(a), lit_value(b)
        folded = {"and": va & vb, "or": va | vb, "xor": va ^ vb}[op]
        return lit(folded)
    lo, hi = sorted((a, b), key=_key)
    if is_lit(lo):
        value = lit_value(lo)
        if op == "and":
            if value == 0:
                return lit(0)
            if value == _WORD:
                return hi
        elif op in ("or", "xor") and value == 0:
            return hi
        elif op == "or" and value == _WORD:
            return lit(_WORD)
    if lo == hi:
        if op == "xor":
            return lit(0)
        return lo                      # and/or idempotence
    return (op, lo, hi)


def shift(op: str, a: Term, b: Term) -> Term:
    """``shl``/``shr``/``shra``; shift counts are masked to 5 bits."""
    if is_lit(b):
        count = lit_value(b) & 31
        if count == 0:
            return a
        if op == "shl":
            return _scale(a, 1 << count)
        if is_lit(a):
            value = lit_value(a)
            if op == "shr":
                return lit(value >> count)
            return lit(_s32(value) >> count)
    return (op, a, b)


def divrem(op: str, a: Term, b: Term) -> Term:
    """Signed ``div``/``rem`` with the optimizer's rounding rules."""
    if is_lit(a) and is_lit(b) and _s32(lit_value(b)) != 0:
        sa, sb = _s32(lit_value(a)), _s32(lit_value(b))
        quot = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quot = -quot
        return lit(sa - quot * sb if op == "rem" else quot)
    if op == "div" and b == lit(1):
        return a
    return (op, a, b)


def _cond_eval(cond: str, a: int, b: int) -> bool:
    signed = {"lt": lambda x, y: x < y, "le": lambda x, y: x <= y,
              "gt": lambda x, y: x > y, "ge": lambda x, y: x >= y}
    unsigned = {"ltu": lambda x, y: x < y, "leu": lambda x, y: x <= y,
                "gtu": lambda x, y: x > y, "geu": lambda x, y: x >= y}
    if cond in signed:
        return signed[cond](_s32(a), _s32(b))
    if cond in unsigned:
        return unsigned[cond](a & _WORD, b & _WORD)
    if cond == "eq":
        return (a & _WORD) == (b & _WORD)
    return (a & _WORD) != (b & _WORD)      # neq


#: ``Cond.value`` spellings with a reflexive truth value.
_REFLEXIVE_TRUE = frozenset({"le", "leu", "ge", "geu", "eq"})


def compare(cond: Cond, a: Term, b: Term) -> Term:
    """0/1-valued comparison term with canonical operand order."""
    if is_lit(a) and is_lit(b):
        return lit(1 if _cond_eval(cond.value, lit_value(a),
                                   lit_value(b)) else 0)
    if a == b:
        return lit(1 if cond.value in _REFLEXIVE_TRUE else 0)
    # A comparison of a 0/1-valued comparison against zero collapses:
    # ``(a < b) != 0`` is ``a < b`` and ``(a < b) == 0`` its negation.
    # This makes "compute flag, branch on flag" and "branch on
    # condition" construct the identical term.
    if cond in (Cond.EQ, Cond.NE):
        for flag, other in ((a, b), (b, a)):
            if flag[0] == "cmp" and other == lit(0):
                if cond == Cond.NE:
                    return flag
                flag_cond = flag[1]
                assert isinstance(flag_cond, str)
                negated = COND_NEGATE[_COND_BY_NAME[flag_cond]]
                return ("cmp", negated.value, flag[2], flag[3])
    if _key(b) < _key(a):
        a, b, cond = b, a, COND_SWAP[cond]
    return ("cmp", cond.value, a, b)


#: Canonical members of each (condition, negation) pair, used when a
#: comparison term only matters for its truth value (branch guards).
_CANONICAL_CONDS = frozenset({"lt", "le", "eq", "ltu", "leu"})

_COND_BY_NAME = {c.value: c for c in Cond}


def guard(term: Term, taken: bool) -> tuple[Term, bool]:
    """Normalize a branch guard ``(condition term, taken)``.

    A guard only carries truth, so ``(a >= b, taken)`` and
    ``(a < b, not taken)`` are the same fact; both map to the
    canonical member of the condition pair.
    """
    if term[0] == "cmp":
        cond_name = term[1]
        assert isinstance(cond_name, str)
        if cond_name not in _CANONICAL_CONDS:
            flipped = COND_NEGATE[_COND_BY_NAME[cond_name]]
            a, b = term[2], term[3]
            assert isinstance(a, tuple) and isinstance(b, tuple)
            return (("cmp", flipped.value, a, b), not taken)
    return (term, taken)


def binop(op: str, a: Term, b: Term) -> Term:
    """Dispatch one IR ``Bin`` operation to the normalizing rewriter."""
    if op == "add":
        return add(a, b)
    if op == "sub":
        return sub(a, b)
    if op == "mul":
        return mul(a, b)
    if op in ("and", "or", "xor"):
        return bitop(op, a, b)
    if op in ("shl", "shr", "shra"):
        return shift(op, a, b)
    if op in ("div", "rem"):
        return divrem(op, a, b)
    if op in ("fadd", "fmul"):
        lo, hi = sorted((a, b), key=_key)
        return ("fbin", op, lo, hi)
    if op in ("fsub", "fdiv"):
        return ("fbin", op, a, b)
    raise Unknown(f"unsupported binary op '{op}'")


def unop(op: str, a: Term) -> Term:
    if op == "neg":
        return neg(a)
    if op == "inv":
        return inv(a)
    if op == "fneg":
        return ("fun", "fneg", a)
    raise Unknown(f"unsupported unary op '{op}'")


# ------------------------------------------------------- symbolic memory


def _addr_split(addr: Term) -> tuple[tuple[tuple[Term, int], ...], int]:
    """``(symbolic part, literal displacement)`` of an address term."""
    const, parts = _sum_parts(addr)
    base = tuple(sorted(parts.items(), key=lambda e: _key(e[0])))
    return base, const


def _distinct_atoms(a: Term, b: Term) -> bool:
    """True when two address atoms provably name disjoint regions.

    Stack slots are pairwise disjoint and never overlap globals; two
    distinct global symbols occupy separate definitions.  Anything
    involving a free symbol (or a literal against a symbol) may alias.
    """
    if a == b:
        return False
    tags = (a[0], b[0])
    if tags == ("slot", "slot") or "slot" in tags and "glob" in tags:
        return True
    if tags == ("glob", "glob"):
        return True
    return False


def addrs_disjoint(addr_a: Term, size_a: int,
                   addr_b: Term, size_b: int) -> bool:
    """Provably non-overlapping accesses (conservative)."""
    base_a, off_a = _addr_split(addr_a)
    base_b, off_b = _addr_split(addr_b)
    if base_a == base_b:
        lo, lo_size, hi_off = ((off_a, size_a, off_b)
                               if off_a <= off_b else (off_b, size_b, off_a))
        return lo + lo_size <= hi_off
    if len(base_a) == 1 and len(base_b) == 1 \
            and base_a[0][1] == 1 and base_b[0][1] == 1:
        return _distinct_atoms(base_a[0][0], base_b[0][0])
    return False


def frame_access(addr: Term, stack_atoms: frozenset[Term]) \
        -> tuple[Term, int] | str | None:
    """Classify an address against the private stack frame.

    Returns ``(base atom, byte offset)`` for an exact frame slot,
    ``"mixed"`` when a stack atom appears with a symbolic displacement
    or coefficient (in-frame, but not a trackable slot), and ``None``
    for public (non-stack) memory.
    """
    base, off = _addr_split(addr)
    if not any(atom in stack_atoms for atom, _coeff in base):
        return None
    if len(base) == 1 and base[0][1] == 1:
        return (base[0][0], off)
    return "mixed"


def mentions_atoms(term: Term, atoms: frozenset[Term]) -> bool:
    """True when any of the address ``atoms`` occurs inside ``term``."""
    stack: list[object] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            if node in atoms:
                return True
            stack.extend(node)
    return False


class Frame:
    """Private per-function stack memory for summary-mode execution.

    Keys are ``(base atom, byte offset)``.  A store with a symbolic
    in-frame displacement invalidates the whole frame (``hazy``) —
    after that, any unmatched load is :class:`Unknown`.  Contents
    survive calls: the callee operates strictly below the caller's
    stack pointer, which is exactly the privacy invariant the escape
    checks protect.  Only word-sized integer slots and exact
    floating-point spills forward; sub-word traffic would need
    truncation semantics the raw value term does not carry.
    """

    __slots__ = ("slots", "hazy")

    def __init__(self,
                 slots: Mapping[tuple[Term, int],
                                tuple[object, Term]] | None = None,
                 hazy: bool = False) -> None:
        self.slots: dict[tuple[Term, int], tuple[object, Term]] = \
            dict(slots or {})
        self.hazy = hazy

    def fork(self) -> "Frame":
        return Frame(self.slots, self.hazy)

    def store(self, atom: Term, off: int, kind: object,
              value: Term) -> None:
        self.slots[(atom, off)] = (kind, value)

    def invalidate(self) -> None:
        self.slots.clear()
        self.hazy = True

    def load(self, atom: Term, off: int, kind: object,
             where: str) -> Term:
        entry = self.slots.get((atom, off))
        if entry is not None:
            stored_kind, value = entry
            if stored_kind == kind \
                    and (kind == 4 or isinstance(kind, tuple)):
                return value
            raise Unknown(f"{where}: sub-word or mixed-type stack "
                          f"access at offset {off}")
        detail = " (frame clobbered)" if self.hazy else ""
        raise Unknown(f"{where}: read of untracked stack "
                      f"slot{detail}")


def mem_store(mem: Term, size: int, addr: Term, value: Term) -> Term:
    return ("st", mem, size, addr, value)


def mem_fstore(mem: Term, cls: str, addr: Term, value: Term) -> Term:
    return ("fst", mem, 8 if cls == "d" else 4, addr, value)


def mem_call(mem: Term, index: int) -> Term:
    return ("mcall", mem, index)


def mem_load(mem: Term, size: int, signed: bool, addr: Term, *,
             forward: bool = False) -> Term:
    """A load term; with ``forward`` it walks the store chain.

    Forwarding returns the stored value on an exact word-sized match
    and steps over provably disjoint stores; it stops at a call marker
    (the callee may write any public location).  Word-sized loads
    normalize ``signed`` away — signedness is meaningless at 32 bits.
    """
    if size == 4:
        signed = True
    if forward:
        node = mem
        while True:
            tag = node[0]
            if tag in ("st", "fst"):
                prev, st_size, st_addr, st_value = \
                    node[1], node[2], node[3], node[4]
                assert isinstance(prev, tuple)
                assert isinstance(st_size, int)
                assert isinstance(st_addr, tuple)
                assert isinstance(st_value, tuple)
                if tag == "st" and st_addr == addr \
                        and st_size == size == 4:
                    return st_value
                if addrs_disjoint(addr, size, st_addr, st_size):
                    node = prev
                    continue
                break
            break
        mem = node
    return ("ld", size, signed, addr, mem)


def mem_fload(mem: Term, cls: str, addr: Term) -> Term:
    return ("fld", cls, addr, mem)


def is_ground(term: Term) -> bool:
    """True when the term contains no free symbols or memory states."""
    stack: list[object] = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            if node and node[0] in ("sym", "mem", "ld", "fld"):
                return False
            stack.extend(node)
    return True


# --------------------------------------------------------- environments


class LazyEnv:
    """VReg environment with memoized lazy initialization.

    Reads of registers the region has not written are answered by the
    ``init`` hook — a shared start-of-region symbol or, for provably
    single-definition registers, the definition's own term.  ``written``
    records genuine assignments (the leaf's simulation-relation
    obligation); memoized lazy reads are not writes.
    """

    def __init__(self, init: Callable[[VReg], Term],
                 values: dict[VReg, Term] | None = None,
                 written: set[VReg] | None = None) -> None:
        self._init = init
        self.values: dict[VReg, Term] = dict(values or {})
        self.written: set[VReg] = set(written or ())

    def get(self, reg: VReg) -> Term:
        term = self.values.get(reg)
        if term is None:
            term = self._init(reg)
            self.values[reg] = term
        return term

    def set(self, reg: VReg, term: Term) -> None:
        self.values[reg] = term
        self.written.add(reg)

    def fork(self) -> "LazyEnv":
        return LazyEnv(self._init, self.values, self.written)

    def writes(self) -> dict[VReg, Term]:
        return {reg: self.values[reg] for reg in self.written}


def single_def_terms(func: Function) -> dict[VReg, Term]:
    """Pure closed-form terms for single-definition registers.

    A register qualifies when its one definition is a pure instruction
    whose operands are themselves single-definition computable.  The IR
    verifier's must-be-defined dataflow (IR006) guarantees any use is
    dominated by the definition, so substituting the term for a lazy
    region-entry read is exact — this is what lets the checker prove
    ``licm`` and ``dedupe_single_defs`` rewrites.
    """
    counts: dict[VReg, int] = {}
    defining: dict[VReg, Inst] = {}
    for block in func.blocks:
        for inst in block.instrs:
            for reg in inst.defs():
                counts[reg] = counts.get(reg, 0) + 1
                defining[reg] = inst
    terms: dict[VReg, Term] = {}
    changed = True
    while changed:
        changed = False
        for reg, inst in defining.items():
            if reg in terms or counts[reg] != 1:
                continue
            if not all(use in terms and counts.get(use, 0) == 1
                       for use in inst.uses()):
                continue
            term = _pure_term(inst, terms)
            if term is not None:
                terms[reg] = term
                changed = True
    return terms


def _pure_term(inst: Inst, env: Mapping[VReg, Term]) -> Term | None:
    """The term a pure instruction computes, if it is in fact pure."""
    try:
        if isinstance(inst, Const):
            return lit(inst.value)
        if isinstance(inst, FConst):
            return ("flit", inst.dst.cls, repr(inst.value))
        if isinstance(inst, Move):
            return env[inst.src]
        if isinstance(inst, AddrGlobal):
            return add(("glob", inst.name), lit(inst.offset))
        if isinstance(inst, AddrStack):
            return ("slot", inst.slot.id)
        if isinstance(inst, Bin):
            return binop(inst.op, env[inst.a], env[inst.b])
        if isinstance(inst, BinImm):
            return binop(inst.op, env[inst.a], lit(inst.value))
        if isinstance(inst, Un):
            return unop(inst.op, env[inst.a])
        if isinstance(inst, Cmp):
            return compare(inst.cond, env[inst.a], env[inst.b])
        if isinstance(inst, CmpImm):
            return compare(inst.cond, env[inst.a], lit(inst.value))
        if isinstance(inst, FCmp):
            return ("fcmp", inst.cond.value, env[inst.a], env[inst.b])
        if isinstance(inst, Cvt):
            return ("cvt", inst.kind, env[inst.a])
    except Unknown:
        return None
    return None


# ------------------------------------------------------------ block-level


@dataclass(frozen=True)
class Leaf:
    """One fully explored path through a region.

    ``kind`` is ``"cut"`` (reached a cut-point label), ``"ret"``, or
    ``"halt"``; ``guards`` are the normalized symbolic branch decisions
    taken along the way; ``effects`` is the ordered observable
    sequence; ``writes`` the register assignments made on the path.
    """

    kind: str
    target: str | None
    guards: tuple[tuple[Term, bool], ...]
    effects: tuple[Term, ...]
    ret: Term | None
    writes: tuple[tuple[VReg, Term], ...] = ()
    mem: Term | None = None

    def writes_map(self) -> dict[VReg, Term]:
        return dict(self.writes)


@dataclass
class _PathState:
    label: str
    env: LazyEnv
    mem: Term
    effects: list[Term]
    guards: list[tuple[Term, bool]]
    visited: set[str] = field(default_factory=set)
    frame: Frame = field(default_factory=Frame)
    steps: int = 0
    calls: int = 0

    def fork(self) -> "_PathState":
        return _PathState(self.label, self.env.fork(), self.mem,
                          list(self.effects), list(self.guards),
                          set(self.visited), self.frame.fork(),
                          self.steps, self.calls)


#: Builtins the backends lower to trap instructions (irgen BUILTINS).
TRAP_BUILTINS = {"exit": 0, "putchar": 1, "getchar": 2, "sbrk": 3}

#: Trap codes whose handler reads the ``r2`` argument.
_TRAP_READS_ARG = frozenset({0, 1, 3})

#: Trap codes whose handler overwrites ``r2`` with a result.
_TRAP_WRITES_RESULT = frozenset({2, 3})


class IRExecutor:
    """Symbolic execution of IR regions between cut-point labels.

    ``mode`` selects the simulation-relation flavour:

    * ``"pass"`` — per-pass translation validation: every store and
      call is an ordered observable, memory is an exact chain (no
      forwarding), calls are opaque effects;
    * ``"summary"`` — whole-function observable summaries for the
      cross-ISA comparison: stack-slot traffic is private (forwarded),
      trap builtins mirror the machine's trap semantics, and stack
      addresses must not escape.
    """

    def __init__(self, func: Function, *, cuts: frozenset[str],
                 region: str, init: Callable[[VReg], Term],
                 mode: str = "pass",
                 signatures: Mapping[str, int] | None = None) -> None:
        self.blocks = func.block_map()
        self.func = func
        self.cuts = cuts
        self.region = region
        self.init = init
        self.mode = mode
        self.signatures = signatures
        self.stack_atoms: frozenset[Term] = frozenset(
            ("slot", slot.id) for slot in func.slots)

    # -- entry point

    def explore(self, start: str) -> list[Leaf]:
        mem0: Term = ("mem", (self.region,))
        first = _PathState(start, LazyEnv(self.init), mem0, [], [])
        pending = [first]
        leaves: list[Leaf] = []
        while pending:
            state = pending.pop()
            try:
                self._run_path(state, pending, leaves,
                               entry=state is first)
            except _Halted as halted:
                leaves.append(halted.leaf)
            if len(leaves) > MAX_LEAVES:
                raise Unknown(f"region '{self.region}': more than "
                              f"{MAX_LEAVES} symbolic paths")
        return leaves

    def _run_path(self, state: _PathState, pending: list[_PathState],
                  leaves: list[Leaf], *, entry: bool) -> None:
        while True:
            label = state.label
            if label in self.cuts and not entry:
                leaves.append(self._leaf(state, "cut", label))
                return
            entry = False
            if label in state.visited:
                raise Unknown(f"region '{self.region}': cycle through "
                              f"non-cut label '{label}'")
            state.visited.add(label)
            block = self.blocks.get(label)
            if block is None:
                raise Unknown(f"region '{self.region}': missing block "
                              f"'{label}'")
            outcome = self._run_block(block, state, pending, leaves)
            if outcome is None:
                return
            state.label = outcome

    def _run_block(self, block: Block, state: _PathState,
                   pending: list[_PathState],
                   leaves: list[Leaf]) -> str | None:
        """Execute one block; returns the next label or None (done)."""
        for inst in block.instrs:
            state.steps += 1
            if state.steps > MAX_STEPS:
                raise Unknown(f"region '{self.region}': exceeded "
                              f"{MAX_STEPS} instructions")
            if isinstance(inst, Ret):
                ret = (state.env.get(inst.src)
                       if inst.src is not None else None)
                leaves.append(self._leaf(state, "ret", None, ret=ret))
                return None
            if isinstance(inst, Jump):
                return inst.target
            if isinstance(inst, CJump):
                b = (state.env.get(inst.b) if inst.b is not None
                     else lit(0))
                return self._branch(inst.cond, state.env.get(inst.a), b,
                                    inst.if_true, inst.if_false,
                                    state, pending)
            if isinstance(inst, CJumpImm):
                return self._branch(inst.cond, state.env.get(inst.a),
                                    lit(inst.value), inst.if_true,
                                    inst.if_false, state, pending)
            self._eval(inst, state)
        raise Unknown(f"block '{block.label}' has no terminator")

    def _branch(self, cond_name: Cond, a: Term, b: Term, if_true: str,
                if_false: str, state: _PathState,
                pending: list[_PathState]) -> str | None:
        cond = compare(cond_name, a, b)
        if is_lit(cond):
            return if_true if lit_value(cond) else if_false
        taken = state.fork()
        taken.guards.append(guard(cond, True))
        taken.label = if_true
        pending.append(taken)
        state.guards.append(guard(cond, False))
        return if_false

    def _leaf(self, state: _PathState, kind: str, target: str | None,
              ret: Term | None = None) -> Leaf:
        return Leaf(kind=kind, target=target,
                    guards=tuple(state.guards),
                    effects=tuple(state.effects), ret=ret,
                    writes=tuple(sorted(
                        state.env.writes().items(),
                        key=lambda item: (item[0].id, item[0].cls))),
                    mem=state.mem)

    # -- straight-line evaluation

    def _addr(self, base: VReg | StackSlot | str, offset: int,
              env: LazyEnv) -> Term:
        if isinstance(base, VReg):
            root: Term = env.get(base)
        elif isinstance(base, StackSlot):
            root = ("slot", base.id)
        else:
            root = ("glob", base)
        return add(root, lit(offset))

    def _eval(self, inst: Inst, state: _PathState) -> None:
        env = state.env
        if isinstance(inst, Const):
            env.set(inst.dst, lit(inst.value))
        elif isinstance(inst, FConst):
            env.set(inst.dst, ("flit", inst.dst.cls, repr(inst.value)))
        elif isinstance(inst, Move):
            env.set(inst.dst, env.get(inst.src))
        elif isinstance(inst, Bin):
            env.set(inst.dst,
                    binop(inst.op, env.get(inst.a), env.get(inst.b)))
        elif isinstance(inst, BinImm):
            env.set(inst.dst,
                    binop(inst.op, env.get(inst.a), lit(inst.value)))
        elif isinstance(inst, Un):
            env.set(inst.dst, unop(inst.op, env.get(inst.a)))
        elif isinstance(inst, Cmp):
            env.set(inst.dst,
                    compare(inst.cond, env.get(inst.a), env.get(inst.b)))
        elif isinstance(inst, CmpImm):
            env.set(inst.dst,
                    compare(inst.cond, env.get(inst.a), lit(inst.value)))
        elif isinstance(inst, FCmp):
            env.set(inst.dst, ("fcmp", inst.cond.value,
                               env.get(inst.a), env.get(inst.b)))
        elif isinstance(inst, Cvt):
            env.set(inst.dst, ("cvt", inst.kind, env.get(inst.a)))
        elif isinstance(inst, AddrGlobal):
            env.set(inst.dst, add(("glob", inst.name), lit(inst.offset)))
        elif isinstance(inst, AddrStack):
            env.set(inst.dst, ("slot", inst.slot.id))
        elif isinstance(inst, Load):
            addr = self._addr(inst.base, inst.offset, env)
            env.set(inst.dst,
                    self._load(addr, inst.size, inst.signed, state))
        elif isinstance(inst, FLoad):
            addr = self._addr(inst.base, inst.offset, env)
            env.set(inst.dst, self._fload(addr, inst.dst.cls, state))
        elif isinstance(inst, Store):
            self._store(inst, state)
        elif isinstance(inst, FStore):
            self._fstore(inst, state)
        elif isinstance(inst, CallInst):
            self._call(inst, state)
        else:
            raise Unknown(f"unsupported instruction {inst!r}")

    def _load(self, addr: Term, size: int, signed: bool,
              state: _PathState) -> Term:
        if self.mode != "summary":
            return mem_load(state.mem, size, signed, addr)
        where = frame_access(addr, self.stack_atoms)
        if where is None:
            return mem_load(state.mem, size, signed, addr, forward=True)
        if where == "mixed":
            raise Unknown(f"region '{self.region}': symbolic stack "
                          f"address in load")
        atom, off = where
        return state.frame.load(atom, off, size, self.region)

    def _fload(self, addr: Term, cls: str, state: _PathState) -> Term:
        if self.mode != "summary":
            return mem_fload(state.mem, cls, addr)
        where = frame_access(addr, self.stack_atoms)
        if where is None:
            return mem_fload(state.mem, cls, addr)
        if where == "mixed":
            raise Unknown(f"region '{self.region}': symbolic stack "
                          f"address in FP load")
        atom, off = where
        return state.frame.load(atom, off, ("f", cls), self.region)

    def _store(self, inst: Store, state: _PathState) -> None:
        addr = self._addr(inst.base, inst.offset, state.env)
        value = state.env.get(inst.src)
        if self.mode == "summary":
            where = frame_access(addr, self.stack_atoms)
            if where == "mixed":
                state.frame.invalidate()
                return
            if where is not None:
                atom, off = where
                state.frame.store(atom, off, inst.size, value)
                return
            if mentions_atoms(value, self.stack_atoms):
                raise Unknown(f"region '{self.region}': stack address "
                              f"stored to memory")
        state.effects.append(("store", inst.size, addr, value))
        state.mem = mem_store(state.mem, inst.size, addr, value)

    def _fstore(self, inst: FStore, state: _PathState) -> None:
        addr = self._addr(inst.base, inst.offset, state.env)
        value = state.env.get(inst.src)
        if self.mode == "summary":
            where = frame_access(addr, self.stack_atoms)
            if where == "mixed":
                state.frame.invalidate()
                return
            if where is not None:
                atom, off = where
                state.frame.store(atom, off, ("f", inst.src.cls), value)
                return
        state.effects.append(("fstore", inst.src.cls, addr, value))
        state.mem = mem_fstore(state.mem, inst.src.cls, addr, value)

    def _call(self, inst: CallInst, state: _PathState) -> None:
        env = state.env
        args = tuple(env.get(arg) for arg in inst.args)
        if self.mode == "summary":
            if any(mentions_atoms(arg, self.stack_atoms)
                   for arg in args):
                raise Unknown(
                    f"stack address escapes into call '{inst.name}'")
            code = TRAP_BUILTINS.get(inst.name)
            if code is not None:
                self._trap_builtin(inst, code, args, state)
                return
            if self.signatures is not None \
                    and inst.name not in self.signatures:
                raise Unknown(f"call to non-comparable function "
                              f"'{inst.name}'")
        index = state.calls
        state.calls += 1
        state.effects.append(("call", inst.name, args))
        state.mem = mem_call(state.mem, index)
        if inst.dst is not None:
            env.set(inst.dst, sym(("ret", self.region, index)))

    def _trap_builtin(self, inst: CallInst, code: int,
                      args: tuple[Term, ...], state: _PathState) -> None:
        """Builtin call, modelled exactly like the machine trap."""
        effect: Term = (("trap", code, args[0])
                        if code in _TRAP_READS_ARG
                        else ("trap", code))
        state.effects.append(effect)
        if inst.name == "exit":
            # The machine halts; anything after this call is dead.
            raise _Halted(self._leaf(state, "halt", None))
        if inst.dst is not None:
            if code in _TRAP_WRITES_RESULT:
                index = state.calls
                state.calls += 1
                state.env.set(inst.dst, sym(("trapret", index)))
            else:
                # PUTC leaves r2 (the argument) in place.
                state.env.set(inst.dst, args[0])


class _Halted(Exception):
    """Internal: a path ended in ``exit``/``trap 0``."""

    def __init__(self, leaf: Leaf) -> None:
        super().__init__("halted")
        self.leaf = leaf


def explore_region(func: Function, start: str, *, cuts: frozenset[str],
                   region: str, init: Callable[[VReg], Term]) -> list[Leaf]:
    """All symbolic paths from ``start`` to the next cut points."""
    executor = IRExecutor(func, cuts=cuts, region=region, init=init)
    return executor.explore(start)


def summarize_ir_function(func: Function,
                          signatures: Mapping[str, int]) -> list[Leaf]:
    """Whole-function observable summary of an IR function.

    Integer parameters are named by their argument registers
    (``("g", 2)`` …), matching :class:`MachineExecutor`'s register
    symbols, so IR and binary summaries are directly comparable.
    ``signatures`` maps each callable function to its integer-argument
    count (comparable signatures only).  Raises :class:`Unknown` for
    signatures the machine level cannot mirror (FP or stack-passed
    arguments) and for looping bodies.
    """
    if len(func.params) > 4 \
            or any(p.cls != "i" for p in func.params):
        raise Unknown(f"{func.name}: signature not comparable "
                      f"(FP or stack-passed arguments)")
    param_syms = {param: sym(("g", 2 + index))
                  for index, param in enumerate(func.params)}

    def init(reg: VReg) -> Term:
        term = param_syms.get(reg)
        if term is None:
            raise Unknown(f"{func.name}: read of undefined {reg}")
        return term

    if not func.blocks:
        raise Unknown(f"{func.name}: empty function")
    executor = IRExecutor(func, cuts=frozenset(), region="<fn>",
                          init=init, mode="summary",
                          signatures=signatures)
    return executor.explore(func.blocks[0].label)


# --------------------------------------------------------- machine level


_ALU_OPS = {Op.ADD: "add", Op.SUB: "sub", Op.AND: "and", Op.OR: "or",
            Op.XOR: "xor", Op.SHL: "shl", Op.SHR: "shr",
            Op.SHRA: "shra"}
_ALU_IMM_OPS = {Op.ADDI: "add", Op.SUBI: "sub", Op.ANDI: "and",
                Op.ORI: "or", Op.XORI: "xor", Op.SHLI: "shl",
                Op.SHRI: "shr", Op.SHRAI: "shra"}
_CONTROL_OPS = frozenset({Op.BR, Op.BZ, Op.BNZ, Op.J, Op.JZ, Op.JNZ,
                          Op.JD, Op.JL, Op.JLD})


@dataclass
class _MachState:
    label: int
    regs: dict[int, Term]
    mem: Term
    effects: list[Term]
    guards: list[tuple[Term, bool]]
    visited: set[int] = field(default_factory=set)
    frame: Frame = field(default_factory=Frame)
    steps: int = 0
    calls: int = 0

    def fork(self) -> "_MachState":
        return _MachState(self.label, dict(self.regs), self.mem,
                          list(self.effects), list(self.guards),
                          set(self.visited), self.frame.fork(),
                          self.steps, self.calls)


class MachineExecutor:
    """Symbolic execution of one disassembled function body.

    Mirrors the interpreter in :mod:`repro.machine.cpu` op for op over
    the recovered :class:`~repro.analysis.cfg.BinaryCFG`, producing
    whole-function observable summaries in the same term language as
    :func:`summarize_ir_function`: argument registers are the shared
    ``("g", i)`` symbols, public memory the shared ``("mem",
    ("<fn>",))`` chain, call/trap results the shared ``("ret", ...)``/
    ``("trapret", ...)`` symbols with one path-ordered counter, and the
    stack frame (everything addressed off the entry stack pointer) is
    private.  The IR summary is *grounded* first
    (:func:`ground_leaves`), substituting link-time addresses for its
    global atoms, so both sides speak absolute addresses and term
    equality is meaningful.

    Assumptions the comparison inherits (all standard for this
    toolchain's output, all conservative — violations surface as
    :class:`Unknown`, never as a wrong "proven" verdict at the pass
    level): callee frames live strictly below the caller's stack
    pointer, in-frame accesses never alias parameter pointers or
    globals, and no frame address escapes.

    Floating-point instructions are not modelled: any FP op raises
    :class:`Unknown`.  The comparable-signature filter already excludes
    FP interfaces; functions using FP internally simply stay unproven.
    """

    def __init__(self, cfg: BinaryCFG, fstart: int, name: str,
                 signatures: Mapping[str, int]) -> None:
        self.cfg = cfg
        self.fstart = fstart
        self.name = name
        self.signatures = signatures
        self.width = cfg.width
        self.zero_r0 = cfg.isa.name == "DLXe"
        self.blocks = {block.start: block
                       for block in cfg.function_blocks(fstart)}
        self.funcs_by_addr = {addr: fname for addr, fname in cfg.funcs}
        self.gp = cfg.exe.symbols.get("__gp")
        self.link_atom = sym(("g", REG_LINK))
        self.stack_atoms: frozenset[Term] = \
            frozenset({sym(("g", REG_SP))})

    # -- registers

    def _get(self, state: _MachState, index: int) -> Term:
        if index == 0 and self.zero_r0:
            return lit(0)
        term = state.regs.get(index)
        if term is None:
            if index == REG_GP and self.gp is not None:
                term = lit(self.gp)
            else:
                term = sym(("g", index))
            state.regs[index] = term
        return term

    def _set(self, state: _MachState, index: int, term: Term) -> None:
        if index == 0 and self.zero_r0:
            return                        # DLXe r0 is pinned to zero
        state.regs[index] = term

    # -- entry point

    def explore(self) -> list[Leaf]:
        if self.fstart not in self.blocks:
            raise Unknown(f"{self.name}: entry {self.fstart:#x} has no "
                          f"recovered block")
        mem0: Term = ("mem", ("<fn>",))
        pending = [_MachState(self.fstart, {}, mem0, [], [])]
        leaves: list[Leaf] = []
        while pending:
            state = pending.pop()
            try:
                self._run_path(state, pending, leaves)
            except _Halted as halted:
                leaves.append(halted.leaf)
            if len(leaves) > MAX_LEAVES:
                raise Unknown(f"{self.name}: more than "
                              f"{MAX_LEAVES} symbolic paths")
        return leaves

    def _run_path(self, state: _MachState, pending: list[_MachState],
                  leaves: list[Leaf]) -> None:
        while True:
            label = state.label
            if label in state.visited:
                raise Unknown(f"{self.name}: loop through block "
                              f"{label:#x}")
            state.visited.add(label)
            block = self.blocks.get(label)
            if block is None:
                raise Unknown(f"{self.name}: no block at {label:#x}")
            outcome = self._run_block(block, state, pending, leaves)
            if outcome is None:
                return
            state.label = outcome

    def _run_block(self, block: BasicBlock, state: _MachState,
                   pending: list[_MachState],
                   leaves: list[Leaf]) -> int | None:
        for pc, instr in block.instrs:
            state.steps += 1
            if state.steps > MAX_STEPS:
                raise Unknown(f"{self.name}: exceeded "
                              f"{MAX_STEPS} instructions")
            if instr.op in _CONTROL_OPS:
                return self._control(pc, instr, state, pending, leaves)
            self._eval(pc, instr, state)
        return self._target(block.end)

    def _target(self, addr: int) -> int:
        if addr not in self.blocks:
            raise Unknown(f"{self.name}: control reaches {addr:#x}, "
                          f"which has no block in this function")
        return addr

    # -- control flow

    def _control(self, pc: int, instr: Instr, state: _MachState,
                 pending: list[_MachState],
                 leaves: list[Leaf]) -> int | None:
        op = instr.op
        imm = instr.imm
        if op == Op.BR:
            assert imm is not None
            return self._target(pc + imm)
        if op == Op.JD:
            assert imm is not None
            return self._target(imm)
        if op in (Op.BZ, Op.BNZ):
            assert instr.rs1 is not None and imm is not None
            nonzero = compare(Cond.NE, self._get(state, instr.rs1),
                              lit(0))
            want = op == Op.BNZ
            return self._branch(nonzero, want, pc + imm,
                                pc + self.width, state, pending)
        if op == Op.J:
            assert instr.rs1 is not None
            return self._jump(self._get(state, instr.rs1), state,
                              leaves)
        if op in (Op.JZ, Op.JNZ):
            assert instr.rs1 is not None and instr.rs2 is not None
            nonzero = compare(Cond.NE, self._get(state, instr.rs2),
                              lit(0))
            want = op == Op.JNZ
            value = self._get(state, instr.rs1)
            if is_lit(nonzero):
                if bool(lit_value(nonzero)) == want:
                    return self._jump(value, state, leaves)
                return self._target(pc + self.width)
            branch = state.fork()
            branch.guards.append(guard(nonzero, want))
            outcome = self._jump(value, branch, leaves)
            if outcome is not None:
                branch.label = outcome
                pending.append(branch)
            state.guards.append(guard(nonzero, not want))
            return self._target(pc + self.width)
        if op in (Op.JL, Op.JLD):
            return self._call(pc, instr, state)
        raise Unknown(f"{self.name}: unmodelled control op "
                      f"{op.value}")          # pragma: no cover

    def _branch(self, nonzero: Term, want: bool, taken: int,
                fall: int, state: _MachState,
                pending: list[_MachState]) -> int:
        if is_lit(nonzero):
            return self._target(taken if bool(lit_value(nonzero)) == want
                                else fall)
        branch = state.fork()
        branch.guards.append(guard(nonzero, want))
        branch.label = self._target(taken)
        pending.append(branch)
        state.guards.append(guard(nonzero, not want))
        return self._target(fall)

    def _jump(self, value: Term, state: _MachState,
              leaves: list[Leaf]) -> int | None:
        if value == self.link_atom:
            leaves.append(Leaf(kind="ret", target=None,
                               guards=tuple(state.guards),
                               effects=tuple(state.effects),
                               ret=self._get(state, REG_RET),
                               mem=state.mem))
            return None
        if is_lit(value):
            return self._target(lit_value(value))
        raise Unknown(f"{self.name}: register-indirect jump to "
                      f"unresolved target")

    def _call(self, pc: int, instr: Instr, state: _MachState) -> int:
        if instr.op == Op.JL:
            assert instr.rs1 is not None
            target = self._get(state, instr.rs1)
            if not is_lit(target):
                raise Unknown(f"{self.name}: indirect call through "
                              f"unresolved register")
            addr = lit_value(target)
        else:
            assert instr.imm is not None
            addr = instr.imm
        callee = self.funcs_by_addr.get(addr)
        if callee is None:
            raise Unknown(f"{self.name}: call to unlabelled address "
                          f"{addr:#x}")
        arity = self.signatures.get(callee)
        if arity is None:
            raise Unknown(f"{self.name}: call to non-comparable "
                          f"function '{callee}'")
        args = tuple(self._get(state, REG_RET + index)
                     for index in range(arity))
        if any(mentions_atoms(arg, self.stack_atoms) for arg in args):
            raise Unknown(f"{self.name}: stack address escapes into "
                          f"call '{callee}'")
        index = state.calls
        state.calls += 1
        state.effects.append(("call", callee, args))
        state.mem = mem_call(state.mem, index)
        self._set(state, REG_LINK, lit(pc + self.width))
        self._set(state, REG_RET, sym(("ret", "<fn>", index)))
        for reg in range(REG_RET + 1, 10):   # caller-saved r3..r9
            state.regs[reg] = sym(("clob", index, reg))
        return self._target(pc + self.width)

    # -- straight-line evaluation

    def _eval(self, pc: int, instr: Instr, state: _MachState) -> None:
        op = instr.op
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        if op in _ALU_OPS:
            assert rd is not None and rs1 is not None \
                and rs2 is not None
            self._set(state, rd, binop(_ALU_OPS[op],
                                       self._get(state, rs1),
                                       self._get(state, rs2)))
        elif op in _ALU_IMM_OPS:
            assert rd is not None and rs1 is not None \
                and imm is not None
            self._set(state, rd, binop(_ALU_IMM_OPS[op],
                                       self._get(state, rs1),
                                       lit(imm)))
        elif op == Op.NEG:
            assert rd is not None and rs1 is not None
            self._set(state, rd, neg(self._get(state, rs1)))
        elif op == Op.INV:
            assert rd is not None and rs1 is not None
            self._set(state, rd, inv(self._get(state, rs1)))
        elif op == Op.MV:
            assert rd is not None and rs1 is not None
            self._set(state, rd, self._get(state, rs1))
        elif op == Op.MVI:
            assert rd is not None and imm is not None
            self._set(state, rd, lit(imm))
        elif op == Op.MVHI:
            assert rd is not None and imm is not None
            self._set(state, rd, lit(imm << 16))
        elif op == Op.CMP:
            assert rd is not None and rs1 is not None \
                and rs2 is not None and instr.cond is not None
            self._set(state, rd, compare(instr.cond,
                                         self._get(state, rs1),
                                         self._get(state, rs2)))
        elif op == Op.CMPI:
            assert rd is not None and rs1 is not None \
                and imm is not None and instr.cond is not None
            self._set(state, rd, compare(instr.cond,
                                         self._get(state, rs1),
                                         lit(imm)))
        elif op == Op.MUL:
            assert rd is not None and rs1 is not None \
                and rs2 is not None
            self._set(state, rd, mul(self._get(state, rs1),
                                     self._get(state, rs2)))
        elif op in (Op.DIV, Op.REM):
            assert rd is not None and rs1 is not None \
                and rs2 is not None
            self._set(state, rd,
                      divrem("rem" if op == Op.REM else "div",
                             self._get(state, rs1),
                             self._get(state, rs2)))
        elif op in DATA_LOADS:
            assert rd is not None and rs1 is not None \
                and imm is not None
            size, signed = DATA_ACCESS[op]
            addr = add(self._get(state, rs1), lit(imm))
            self._set(state, rd,
                      self._load(addr, size, signed, state))
        elif op == Op.LDC:
            assert rd is not None and imm is not None
            word = self.cfg.read_word(ldc_pool_addr(pc, imm))
            if word is None:
                raise Unknown(f"{self.name}: ldc pool word outside "
                              f"the text segment")
            self._set(state, rd, lit(word))
        elif op in DATA_STORES:
            assert rs1 is not None and rs2 is not None \
                and imm is not None
            addr = add(self._get(state, rs1), lit(imm))
            self._store(addr, DATA_ACCESS[op][0],
                        self._get(state, rs2), state)
        elif op == Op.TRAP:
            assert imm is not None
            self._trap(imm, state)
        elif op == Op.NOP:
            pass
        else:
            raise Unknown(f"{self.name}: unmodelled op {op.value}")

    def _load(self, addr: Term, size: int, signed: bool,
              state: _MachState) -> Term:
        where = frame_access(addr, self.stack_atoms)
        if where is None:
            return mem_load(state.mem, size, signed, addr,
                            forward=True)
        if where == "mixed":
            raise Unknown(f"{self.name}: symbolic stack address in "
                          f"load")
        atom, off = where
        return state.frame.load(atom, off, size, self.name)

    def _store(self, addr: Term, size: int, value: Term,
               state: _MachState) -> None:
        where = frame_access(addr, self.stack_atoms)
        if where == "mixed":
            state.frame.invalidate()
            return
        if where is not None:
            atom, off = where
            state.frame.store(atom, off, size, value)
            return
        if mentions_atoms(value, self.stack_atoms):
            raise Unknown(f"{self.name}: stack address stored to "
                          f"memory")
        state.effects.append(("store", size, addr, value))
        state.mem = mem_store(state.mem, size, addr, value)

    def _trap(self, code: int, state: _MachState) -> None:
        if code in _TRAP_READS_ARG:
            arg = self._get(state, REG_RET)
            if mentions_atoms(arg, self.stack_atoms):
                raise Unknown(f"{self.name}: stack address escapes "
                              f"into trap {code}")
            effect: Term = ("trap", code, arg)
        else:
            effect = ("trap", code)
        state.effects.append(effect)
        if code == 0:
            raise _Halted(Leaf(kind="halt", target=None,
                               guards=tuple(state.guards),
                               effects=tuple(state.effects),
                               ret=None, mem=state.mem))
        if code in _TRAP_WRITES_RESULT:
            index = state.calls
            state.calls += 1
            self._set(state, REG_RET, sym(("trapret", index)))


def summarize_binary_function(cfg: BinaryCFG, fstart: int, name: str,
                              signatures: Mapping[str, int]) \
        -> list[Leaf]:
    """Whole-function observable summary of one binary function."""
    executor = MachineExecutor(cfg, fstart, name, signatures)
    return executor.explore()


# ------------------------------------------------------------- grounding


def ground_term(term: Term, symbols: Mapping[str, int]) -> Term:
    """Substitute link-time addresses for global atoms, re-normalized.

    Applied to an IR summary before comparing it against a machine
    summary: after grounding, both sides express addresses as absolute
    words and canonical-term equality is a meaningful equivalence.
    Re-running the normalizing constructors matters — a comparison of
    two now-literal addresses folds to the same 0/1 the machine side
    folded during execution.
    """
    tag = term[0]
    if tag in ("lit", "sym", "mem", "flit", "slot"):
        return term
    if tag == "glob":
        name = term[1]
        assert isinstance(name, str)
        addr = symbols.get(name)
        if addr is None:
            raise Unknown(f"no link-time address for '{name}'")
        return lit(addr)
    if tag == "sum":
        const, entries = term[1], term[2]
        assert isinstance(const, int) and isinstance(entries, tuple)
        out = lit(const)
        for atom, coeff in entries:
            out = add(out, _scale(ground_term(atom, symbols), coeff))
        return out
    if tag == "mul":
        return mul(ground_term(term[1], symbols),      # type: ignore[arg-type]
                   ground_term(term[2], symbols))      # type: ignore[arg-type]
    if tag in ("and", "or", "xor"):
        return bitop(tag, ground_term(term[1], symbols),   # type: ignore[arg-type]
                     ground_term(term[2], symbols))        # type: ignore[arg-type]
    if tag in ("shl", "shr", "shra"):
        return shift(tag, ground_term(term[1], symbols),   # type: ignore[arg-type]
                     ground_term(term[2], symbols))        # type: ignore[arg-type]
    if tag in ("div", "rem"):
        return divrem(tag, ground_term(term[1], symbols),  # type: ignore[arg-type]
                      ground_term(term[2], symbols))       # type: ignore[arg-type]
    if tag == "cmp":
        cond = term[1]
        assert isinstance(cond, str)
        return compare(_COND_BY_NAME[cond],
                       ground_term(term[2], symbols),      # type: ignore[arg-type]
                       ground_term(term[3], symbols))      # type: ignore[arg-type]
    if tag == "ld":
        size, signed = term[1], term[2]
        return ("ld", size, signed,
                ground_term(term[3], symbols),             # type: ignore[arg-type]
                ground_term(term[4], symbols))             # type: ignore[arg-type]
    if tag == "fld":
        return ("fld", term[1],
                ground_term(term[2], symbols),             # type: ignore[arg-type]
                ground_term(term[3], symbols))             # type: ignore[arg-type]
    if tag in ("st", "fst"):
        return (tag, ground_term(term[1], symbols),        # type: ignore[arg-type]
                term[2],
                ground_term(term[3], symbols),             # type: ignore[arg-type]
                ground_term(term[4], symbols))             # type: ignore[arg-type]
    if tag == "mcall":
        return ("mcall", ground_term(term[1], symbols),    # type: ignore[arg-type]
                term[2])
    if tag in ("fbin", "fcmp"):
        return (tag, term[1],
                ground_term(term[2], symbols),             # type: ignore[arg-type]
                ground_term(term[3], symbols))             # type: ignore[arg-type]
    if tag in ("fun", "cvt"):
        return (tag, term[1],
                ground_term(term[2], symbols))             # type: ignore[arg-type]
    raise Unknown(f"cannot ground term tag '{tag}'")


def _ground_effect(effect: Term, symbols: Mapping[str, int]) -> Term:
    tag = effect[0]
    if tag in ("store", "fstore"):
        return (tag, effect[1],
                ground_term(effect[2], symbols),           # type: ignore[arg-type]
                ground_term(effect[3], symbols))           # type: ignore[arg-type]
    if tag == "call":
        args = effect[2]
        assert isinstance(args, tuple)
        return ("call", effect[1],
                tuple(ground_term(arg, symbols) for arg in args))
    if tag == "trap":
        if len(effect) == 3:
            return ("trap", effect[1],
                    ground_term(effect[2], symbols))       # type: ignore[arg-type]
        return effect
    raise Unknown(f"cannot ground effect tag '{tag}'")


def ground_leaves(leaves: Iterable[Leaf],
                  symbols: Mapping[str, int]) -> list[Leaf]:
    """Ground an IR summary against one target's link-time layout.

    Guards that fold to a truth value after grounding are resolved:
    satisfied guards are dropped, contradicted guards make the whole
    path infeasible (its twin from the same fork survives).
    """
    grounded: list[Leaf] = []
    for leaf in leaves:
        guards: list[tuple[Term, bool]] = []
        feasible = True
        for term, want in leaf.guards:
            gterm = ground_term(term, symbols)
            if is_lit(gterm):
                if bool(lit_value(gterm)) != want:
                    feasible = False
                    break
                continue
            guards.append(guard(gterm, want))
        if not feasible:
            continue
        grounded.append(Leaf(
            kind=leaf.kind, target=leaf.target, guards=tuple(guards),
            effects=tuple(_ground_effect(effect, symbols)
                          for effect in leaf.effects),
            ret=(ground_term(leaf.ret, symbols)
                 if leaf.ret is not None else None)))
    return grounded
