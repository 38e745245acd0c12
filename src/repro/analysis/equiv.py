"""Translation validation for the optimizer and the compiled binaries.

Two checkers built on the symbolic evaluator (:mod:`repro.analysis.symex`):

* **Per-pass validation** (:func:`check_pass`, :func:`validate_passes`) —
  after every optimizer pass application a block-level simulation
  relation is checked between the function before and after the pass.
  Cut points are the basic-block labels common to both versions; every
  region between cut points is explored symbolically on both sides and
  the resulting path leaves must agree on branch guards, the ordered
  observable-effect sequence, the return value, and the registers live
  at the target cut.  The checker *refuses* rather than guesses: any
  construct the evaluator cannot canonicalize yields an explicit
  ``unknown`` verdict (EQ001), and ``divergent`` (EQ002) is reported
  only for unconditional paths whose mismatching observables are fully
  ground — a proven miscompile, never a modelling artifact.

* **Binary validation** (:func:`check_binary_program`) — each D16/DLXe
  function body is symbolically executed over the shared
  :class:`~repro.analysis.cfg.BinaryCFG` and its observable-effect
  summary is matched against the (link-time grounded) IR summary of the
  same function, upgrading the cross-ISA layer from count consistency
  to semantic consistency (EQ003/EQ004).

:func:`mutation_campaign` is the checker's own soundness harness: it
plants seeded miscompile mutations into pass outputs and records
whether the checker catches each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ..asm import Assembler, link
from ..cc import TargetSpec, get_target
from ..cc.target import MAIN_TARGETS
from ..cc.codegen import generate_assembly
from ..cc.ir import (CallInst, CJump, Const, Function, Inst, Jump, Module,
                     Ret, Store, VReg, liveness)
from ..cc.irgen import lower_program
from ..cc.opt import optimize_module
from ..cc.parser import parse
from ..cc.runtime import with_runtime
from .cfg import build_cfg
from .findings import Finding, finding
from .symex import (Leaf, Term, Unknown, explore_region, ground_leaves,
                    is_ground, single_def_terms, sym,
                    summarize_binary_function, summarize_ir_function)

#: Verdicts (ordered by badness).
PROVEN = "proven"
UNKNOWN = "unknown"
DIVERGENT = "divergent"

#: The entry region's name (cut regions are named after their label).
ENTRY_REGION = "<entry>"


# ------------------------------------------------------ cut-point choice


def _jump_only(block_instrs: Sequence[Inst]) -> bool:
    return len(block_instrs) == 1 and isinstance(block_instrs[0], Jump)


def cut_points(before: Function, after: Function) -> frozenset[str]:
    """Labels usable as simulation-relation cut points.

    A label qualifies when it names a block in *both* versions, the
    block is not a bare ``jump`` in either — jump threading retargets
    edges around such blocks, so stopping at them would make the two
    sides' leaves point at different (but equivalent) cuts — and it is
    graph-reachable from the entry in both.  Unreachable code has no
    observable behavior, so exploring a region rooted in it could only
    manufacture vacuous verdicts (including false divergences when a
    pass legitimately rewrites dead blocks).
    """
    bmap = before.block_map()
    amap = after.block_map()
    reachable = {b.label for b in before.reachable_blocks()} \
        & {b.label for b in after.reachable_blocks()}
    return frozenset(
        label for label in set(bmap) & set(amap)
        if label in reachable
        and not _jump_only(bmap[label].instrs)
        and not _jump_only(amap[label].instrs))


def _reg_init(closed: Mapping[VReg, Term]) -> Callable[[VReg], Term]:
    """Region-entry values: closed form if provably single-def, else a
    shared per-register symbol (the induction hypothesis that both
    versions agree on the register at the cut)."""
    def init(reg: VReg) -> Term:
        term = closed.get(reg)
        if term is not None:
            return term
        return sym(("reg", reg.id, reg.cls))
    return init


# --------------------------------------------------------- leaf matching


def _relevant_writes(leaf: Leaf,
                     live_of: Callable[[str], frozenset[VReg]],
                     ) -> dict[VReg, Term]:
    if leaf.kind != "cut" or leaf.target is None:
        return {}
    live = live_of(leaf.target)
    return {reg: term for reg, term in leaf.writes if reg in live}


def _try_merge(first: Leaf, second: Leaf,
               live_of: Callable[[str], frozenset[VReg]]) -> Leaf | None:
    """Merge two leaves differing only in one complementary guard.

    ``simplify_cfg`` collapses ``if c goto L else L`` into ``jump L``;
    the unsimplified side then has two path leaves whose union is the
    simplified side's single leaf.  Only observably identical siblings
    merge, so the merge never hides a difference.
    """
    if (first.kind, first.target, first.effects, first.ret) \
            != (second.kind, second.target, second.effects, second.ret):
        return None
    if _relevant_writes(first, live_of) != _relevant_writes(second, live_of):
        return None
    one = set(first.guards)
    two = set(second.guards)
    diff = one ^ two
    if len(diff) != 2:
        return None
    (term_a, want_a), (term_b, want_b) = sorted(diff, key=repr)
    if term_a != term_b or want_a == want_b:
        return None
    common = tuple(entry for entry in first.guards if entry in two)
    return Leaf(kind=first.kind, target=first.target, guards=common,
                effects=first.effects, ret=first.ret,
                writes=first.writes, mem=first.mem)


def merge_complementary(leaves: Iterable[Leaf],
                        live_of: Callable[[str], frozenset[VReg]],
                        ) -> list[Leaf]:
    """Fixpoint of complementary-guard merging over a leaf set."""
    out = list(leaves)
    merged = True
    while merged:
        merged = False
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                joined = _try_merge(out[i], out[j], live_of)
                if joined is not None:
                    out[i] = joined
                    del out[j]
                    merged = True
                    break
            if merged:
                break
    return out


def _keyed(leaves: Iterable[Leaf]) -> dict[frozenset, Leaf] | None:
    """Leaves keyed by guard set; ``None`` when two paths share one."""
    by_guards: dict[frozenset, Leaf] = {}
    for leaf in leaves:
        key = frozenset(leaf.guards)
        if key in by_guards:
            return None
        by_guards[key] = leaf
    return by_guards


def _all_ground(terms: Iterable[object]) -> bool:
    return all(is_ground(term) for term in terms)  # type: ignore[arg-type]


def _first_mismatch(before: Leaf, after: Leaf,
                    live_of: Callable[[str], frozenset[VReg]],
                    return_cls: str | None,
                    init_b: Callable[[VReg], Term],
                    init_a: Callable[[VReg], Term],
                    ) -> tuple[str, bool] | None:
    """First observable difference between two guard-matched leaves.

    Returns ``(description, ground)`` where ``ground`` is True when the
    mismatching observables contain no free symbols on either side —
    the precondition for a *proven* divergence.
    """
    if before.effects != after.effects:
        if len(before.effects) != len(after.effects):
            desc = (f"effect count {len(before.effects)} != "
                    f"{len(after.effects)}")
            ground = _all_ground(before.effects) \
                and _all_ground(after.effects)
            return desc, ground
        for index, (eff_b, eff_a) in enumerate(
                zip(before.effects, after.effects)):
            if eff_b != eff_a:
                return (f"effect #{index} differs: {eff_b!r} vs {eff_a!r}",
                        is_ground(eff_b) and is_ground(eff_a))
    if before.kind == "ret" and return_cls is not None:
        if before.ret != after.ret:
            if before.ret is None or after.ret is None:
                return "return value present on one side only", False
            return (f"return value differs: {before.ret!r} vs "
                    f"{after.ret!r}",
                    is_ground(before.ret) and is_ground(after.ret))
    if before.kind == "cut" and before.target is not None:
        writes_b = before.writes_map()
        writes_a = after.writes_map()
        for reg in sorted(live_of(before.target),
                          key=lambda r: (r.cls, r.id)):
            value_b = writes_b.get(reg)
            value_a = writes_a.get(reg)
            if value_b is None and value_a is None:
                continue        # both keep the region-entry value
            if value_b is None:
                value_b = init_b(reg)
            if value_a is None:
                value_a = init_a(reg)
            if value_b != value_a:
                return (f"live register {reg} differs at '{before.target}':"
                        f" {value_b!r} vs {value_a!r}",
                        is_ground(value_b) and is_ground(value_a))
    return None


def _compare_leaves(leaves_before: list[Leaf], leaves_after: list[Leaf],
                    live_of: Callable[[str], frozenset[VReg]],
                    return_cls: str | None,
                    init_b: Callable[[VReg], Term],
                    init_a: Callable[[VReg], Term],
                    ) -> tuple[str, str] | None:
    """Match two leaf sets; ``None`` on success, else (verdict, reason).

    Divergence requires an *unconditional* path (empty guard set) with a
    fully ground mismatch; everything else is an unknown — a symbolic
    mismatch could still be equal under every concrete valuation, and a
    guarded path could be infeasible.
    """
    merged_before = merge_complementary(leaves_before, live_of)
    merged_after = merge_complementary(leaves_after, live_of)
    by_before = _keyed(merged_before)
    by_after = _keyed(merged_after)
    if by_before is None or by_after is None:
        return UNKNOWN, "two paths share one guard set"
    if set(by_before) != set(by_after):
        only_b = [g for g in by_before if g not in by_after]
        only_a = [g for g in by_after if g not in by_before]
        sample = (sorted(map(repr, only_b)) + sorted(map(repr, only_a)))[0]
        return UNKNOWN, f"path guard structure differs (e.g. {sample})"
    for key in by_before:
        leaf_b = by_before[key]
        leaf_a = by_after[key]
        if leaf_b.kind != leaf_a.kind or leaf_b.target != leaf_a.target:
            desc = (f"path shape differs: {leaf_b.kind}->{leaf_b.target} "
                    f"vs {leaf_a.kind}->{leaf_a.target}")
            return (DIVERGENT if not key else UNKNOWN), desc
        mismatch = _first_mismatch(leaf_b, leaf_a, live_of, return_cls,
                                   init_b, init_a)
        if mismatch is not None:
            desc, ground = mismatch
            if ground and not key:
                return DIVERGENT, desc
            return UNKNOWN, desc
    return None


# --------------------------------------------------- per-pass validation


def check_pass(before: Function,
               after: Function) -> tuple[str, str | None, int]:
    """Check the simulation relation between two versions of a function.

    Returns ``(verdict, reason, regions_checked)`` where the verdict is
    :data:`PROVEN`, :data:`UNKNOWN`, or :data:`DIVERGENT`.
    """
    if not before.blocks or not after.blocks:
        if not before.blocks and not after.blocks:
            return PROVEN, "both versions empty", 0
        return UNKNOWN, "one version has no blocks", 0
    cuts = cut_points(before, after)
    closed_before = single_def_terms(before)
    closed_after = single_def_terms(after)
    live_before = liveness(before)[0]
    live_after = liveness(after)[0]

    def live_of(label: str) -> frozenset[VReg]:
        # A register live in only one version cannot influence the other
        # version's behaviour, and the leaf comparison stays conservative
        # for it: a proven match is syntactic, so every region-entry
        # symbol it contains was read by BOTH versions and is therefore
        # in the intersection at the region entry (where its cross-version
        # equality was established by the predecessor check).
        return live_before.get(label, frozenset()) \
            & live_after.get(label, frozenset())

    entry_b = before.blocks[0].label
    entry_a = after.blocks[0].label
    regions: list[tuple[str, str, str]] = [(ENTRY_REGION, entry_b, entry_a)]
    for label in sorted(cuts):
        if label == entry_b and label == entry_a:
            continue            # identical to the entry region
        regions.append((label, label, label))

    init_b = _reg_init(closed_before)
    init_a = _reg_init(closed_after)
    checked = 0
    for region, start_b, start_a in regions:
        try:
            leaves_b = explore_region(before, start_b, cuts=cuts,
                                      region=region, init=init_b)
            leaves_a = explore_region(after, start_a, cuts=cuts,
                                      region=region, init=init_a)
        except Unknown as exc:
            return UNKNOWN, f"region '{region}': {exc.reason}", checked
        problem = _compare_leaves(leaves_b, leaves_a, live_of,
                                  before.return_cls, init_b, init_a)
        if problem is not None:
            verdict, reason = problem
            return verdict, f"region '{region}': {reason}", checked
        checked += 1
    return PROVEN, None, checked


@dataclass(frozen=True)
class PassCheck:
    """The verdict for one optimizer pass application."""

    function: str
    pass_name: str
    round: int
    changed: bool
    verdict: str
    reason: str | None
    regions: int

    @property
    def location(self) -> str:
        return f"{self.function}:{self.pass_name}#{self.round}"


def validate_passes(module: Module, *,
                    opt_level: int = 2) -> list[PassCheck]:
    """Optimize ``module`` with per-pass translation validation.

    The module is optimized in place (exactly as ``optimize_module``
    would); every pass application is checked and its verdict recorded.
    Structurally unchanged applications are proven trivially.
    """
    checks: list[PassCheck] = []

    def observer(func_name: str, pass_name: str, round_index: int,
                 before: Function, after: Function,
                 changed: bool) -> None:
        if str(before) == str(after):
            checks.append(PassCheck(func_name, pass_name, round_index,
                                    changed, PROVEN,
                                    "structurally unchanged", 0))
            return
        verdict, reason, regions = check_pass(before, after)
        checks.append(PassCheck(func_name, pass_name, round_index,
                                changed, verdict, reason, regions))

    optimize_module(module, level=opt_level, observer=observer)
    return checks


# ---------------------------------------------------- binary validation


@dataclass(frozen=True)
class BinaryCheck:
    """IR-vs-binary summary verdict for one function on one target."""

    function: str
    target: str
    verdict: str
    reason: str | None
    paths: int

    @property
    def location(self) -> str:
        return f"{self.target}:{self.function}"


def comparable_signatures(module: Module) -> dict[str, int]:
    """Integer-argument counts for machine-comparable functions."""
    return {func.name: len(func.params) for func in module.functions
            if len(func.params) <= 4
            and all(param.cls == "i" for param in func.params)}


def _compare_summaries(ir_leaves: list[Leaf], mc_leaves: list[Leaf],
                       return_cls: str | None,
                       ) -> tuple[str, str] | None:
    """Match grounded IR leaves against machine leaves by guard set."""
    by_ir = _keyed(ir_leaves)
    by_mc = _keyed(mc_leaves)
    if by_ir is None or by_mc is None:
        return UNKNOWN, "two paths share one guard set"
    if set(by_ir) != set(by_mc):
        return UNKNOWN, (f"path guard structure differs "
                         f"({len(by_ir)} IR vs {len(by_mc)} machine "
                         f"paths)")
    for key in by_ir:
        leaf_ir = by_ir[key]
        leaf_mc = by_mc[key]
        if leaf_ir.kind != leaf_mc.kind:
            desc = f"path kind {leaf_ir.kind} vs {leaf_mc.kind}"
            return (DIVERGENT if not key else UNKNOWN), desc
        if leaf_ir.effects != leaf_mc.effects:
            if len(leaf_ir.effects) != len(leaf_mc.effects):
                desc = (f"effect count {len(leaf_ir.effects)} != "
                        f"{len(leaf_mc.effects)}")
                ground = _all_ground(leaf_ir.effects) \
                    and _all_ground(leaf_mc.effects)
            else:
                desc, ground = "", False
                for index, (eff_ir, eff_mc) in enumerate(
                        zip(leaf_ir.effects, leaf_mc.effects)):
                    if eff_ir != eff_mc:
                        desc = (f"effect #{index} differs: {eff_ir!r} "
                                f"vs {eff_mc!r}")
                        ground = is_ground(eff_ir) and is_ground(eff_mc)
                        break
            if ground and not key:
                return DIVERGENT, desc
            return UNKNOWN, desc
        if leaf_ir.kind == "ret" and return_cls == "i" \
                and leaf_ir.ret != leaf_mc.ret:
            desc = (f"return value differs: {leaf_ir.ret!r} vs "
                    f"{leaf_mc.ret!r}")
            if not key and leaf_ir.ret is not None \
                    and leaf_mc.ret is not None \
                    and is_ground(leaf_ir.ret) \
                    and is_ground(leaf_mc.ret):
                return DIVERGENT, desc
            return UNKNOWN, desc
    return None


def check_binary_program(source: str,
                         targets: Sequence[str] = MAIN_TARGETS, *,
                         opt_level: int = 2,
                         include_runtime: bool = True,
                         ) -> list[BinaryCheck]:
    """Semantic IR-vs-binary validation of every comparable function.

    Optimizes the program once, compiles a clone of the module for each
    target, and compares grounded IR summaries with symbolic machine
    summaries over the disassembled CFG.
    """
    module = lower_program(parse(with_runtime(source, include_runtime)))
    optimize_module(module, level=opt_level)
    return _check_binary_module(module, targets, opt_level=opt_level)


def _check_binary_module(module: Module, targets: Sequence[str], *,
                         opt_level: int) -> list[BinaryCheck]:
    """:func:`check_binary_program` on an optimized ``module``.

    Code generation legalizes the IR in place, so each target compiles
    its own clone and each binary is matched against the exact clone
    that produced it; ``module`` itself is left unchanged.
    """
    checks: list[BinaryCheck] = []
    signatures = comparable_signatures(module)
    for target_name in targets:
        target: TargetSpec = get_target(target_name)
        compiled = module.clone()
        assembly = generate_assembly(compiled, target, opt_level=opt_level)
        obj = Assembler(target.isa).assemble(assembly)
        exe = link([obj])
        bases = {"text": exe.text_base, "data": exe.data_base, "abs": 0}
        labels = {symbol.name: bases[symbol.section] + symbol.value
                  for symbol in obj.symbols.values()}
        ground_symbols = dict(exe.symbols)
        ground_symbols.update(labels)
        text_symbols = {
            name: addr for name, addr in labels.items()
            if exe.text_base <= addr < exe.text_base + len(exe.text)}
        cfg = build_cfg(exe, target.isa, symbols=text_symbols)
        for func in compiled.functions:
            if func.name not in signatures:
                checks.append(BinaryCheck(
                    func.name, target_name, UNKNOWN,
                    "signature not machine-comparable", 0))
                continue
            try:
                ir_leaves = ground_leaves(
                    summarize_ir_function(func, signatures),
                    ground_symbols)
            except Unknown as exc:
                checks.append(BinaryCheck(func.name, target_name,
                                          UNKNOWN, f"IR: {exc.reason}", 0))
                continue
            fstart = labels.get(func.name)
            if fstart is None:
                checks.append(BinaryCheck(func.name, target_name, UNKNOWN,
                                          "no text symbol", 0))
                continue
            try:
                mc_leaves = summarize_binary_function(
                    cfg, fstart, func.name, signatures)
            except Unknown as exc:
                checks.append(BinaryCheck(
                    func.name, target_name, UNKNOWN,
                    f"machine: {exc.reason}", 0))
                continue
            problem = _compare_summaries(ir_leaves, mc_leaves,
                                         func.return_cls)
            if problem is None:
                checks.append(BinaryCheck(func.name, target_name, PROVEN,
                                          None, len(ir_leaves)))
            else:
                verdict, reason = problem
                checks.append(BinaryCheck(func.name, target_name, verdict,
                                          reason, len(ir_leaves)))
    return checks


# ------------------------------------------------------- report assembly


@dataclass
class TvReport:
    """Translation-validation results for one program."""

    program: str
    passes: list[PassCheck]
    binary: list[BinaryCheck]
    findings: list[Finding]

    def pass_counts(self) -> dict[str, int]:
        counts = {PROVEN: 0, UNKNOWN: 0, DIVERGENT: 0}
        for check in self.passes:
            counts[check.verdict] += 1
        return counts

    def binary_counts(self) -> dict[str, int]:
        counts = {PROVEN: 0, UNKNOWN: 0, DIVERGENT: 0}
        for check in self.binary:
            counts[check.verdict] += 1
        return counts


def tv_program(source: str, program: str = "<source>", *,
               targets: Sequence[str] = MAIN_TARGETS,
               opt_level: int = 2,
               include_runtime: bool = True) -> TvReport:
    """Run both translation-validation layers over one program."""
    module = lower_program(parse(with_runtime(source, include_runtime)))
    passes = validate_passes(module, opt_level=opt_level)
    binary = _check_binary_module(module, targets, opt_level=opt_level)
    findings: list[Finding] = []
    for check in passes:
        if check.verdict == DIVERGENT:
            findings.append(finding("EQ002", check.location,
                                    check.reason or "proven divergence"))
        elif check.verdict == UNKNOWN:
            findings.append(finding("EQ001", check.location,
                                    check.reason or "not provable"))
    for bincheck in binary:
        if bincheck.verdict == DIVERGENT:
            findings.append(finding(
                "EQ004", bincheck.location,
                bincheck.reason or "proven divergence"))
        elif bincheck.verdict == UNKNOWN:
            findings.append(finding("EQ003", bincheck.location,
                                    bincheck.reason or "not provable"))
    report = TvReport(program=program, passes=passes, binary=binary,
                      findings=findings)
    pass_counts = report.pass_counts()
    bin_counts = report.binary_counts()
    findings.append(finding(
        "EQ005", program,
        f"pass applications: {len(passes)} "
        f"({pass_counts[PROVEN]} proven, "
        f"{pass_counts[UNKNOWN]} unknown, "
        f"{pass_counts[DIVERGENT]} divergent); "
        f"binary summaries: {len(binary)} "
        f"({bin_counts[PROVEN]} proven, "
        f"{bin_counts[UNKNOWN]} unknown, "
        f"{bin_counts[DIVERGENT]} divergent)"))
    return report


# ------------------------------------------------------ mutation harness


@dataclass(frozen=True)
class MutantResult:
    """One planted miscompile and whether the checker caught it."""

    function: str
    pass_name: str
    round: int
    mutation: str
    verdict: str
    reason: str | None

    @property
    def caught(self) -> bool:
        return self.verdict != PROVEN


# Mutators plant only in blocks reachable from the entry: a mutation in
# a dead block would be (correctly) proven unobservable.


def _mutate_store_offset(func: Function, rng: random.Random) -> bool:
    """Shift one store's displacement — a classic fold_offsets bug."""
    stores = [inst for block in func.reachable_blocks()
              for inst in block.instrs if isinstance(inst, Store)]
    if not stores:
        return False
    rng.choice(stores).offset += 1
    return True


def _mutate_store_drop(func: Function, rng: random.Random) -> bool:
    """Delete one store — over-eager dead-code elimination."""
    sites = [(block, index) for block in func.reachable_blocks()
             for index, inst in enumerate(block.instrs)
             if isinstance(inst, Store)]
    if not sites:
        return False
    block, index = rng.choice(sites)
    del block.instrs[index]
    return True


def _mutate_undef_use(func: Function, rng: random.Random) -> bool:
    """Delete a definition whose value feeds an observable.

    Models dead-code elimination removing a live computation; the
    surviving consumer reads a never-written register.
    """
    consumed: set[VReg] = set()
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, (Store, Ret, CJump, CallInst)):
                consumed.update(inst.uses())
    sites = [(block, index) for block in func.reachable_blocks()
             for index, inst in enumerate(block.instrs)
             if not isinstance(inst, (Store, Ret, CJump, CallInst, Jump))
             and inst.defs()
             and any(reg in consumed for reg in inst.defs())]
    if not sites:
        return False
    block, index = rng.choice(sites)
    del block.instrs[index]
    return True


def _resolve_jumps(func: Function, label: str) -> str:
    seen: set[str] = set()
    blocks = func.block_map()
    while label not in seen:
        seen.add(label)
        block = blocks.get(label)
        if block is None or not _jump_only(block.instrs):
            return label
        jump = block.instrs[0]
        assert isinstance(jump, Jump)
        label = jump.target
    return label


def _mutate_cjump_swap(func: Function, rng: random.Random) -> bool:
    """Swap a conditional branch's targets without negating the
    condition — an inverted-branch miscompile."""
    sites = [inst for block in func.reachable_blocks()
             for inst in block.instrs
             if isinstance(inst, CJump)
             and _resolve_jumps(func, inst.if_true)
             != _resolve_jumps(func, inst.if_false)]
    if not sites:
        return False
    cjump = rng.choice(sites)
    cjump.if_true, cjump.if_false = cjump.if_false, cjump.if_true
    return True


def _mutate_jump_retarget(func: Function, rng: random.Random) -> bool:
    """Redirect one unconditional jump to a different block — a broken
    CFG rewrite (bad jump threading / preheader insertion)."""
    labels = [block.label for block in func.blocks]
    sites = []
    for block in func.reachable_blocks():
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        resolved = _resolve_jumps(func, term.target)
        options = [label for label in labels
                   if label != block.label
                   and _resolve_jumps(func, label) != resolved
                   and not _jump_only(func.block_map()[label].instrs)]
        if options:
            sites.append((term, options))
    if not sites:
        return False
    term, options = rng.choice(sites)
    term.target = rng.choice(options)
    return True


def _mutate_const_value(func: Function, rng: random.Random) -> bool:
    """Flip the low bit of a constant that feeds an observable."""
    consumed: set[VReg] = set()
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, (Store, Ret, CJump, CallInst)):
                consumed.update(inst.uses())
    sites = [inst for block in func.reachable_blocks()
             for inst in block.instrs
             if isinstance(inst, Const) and inst.dst in consumed]
    if not sites:
        return False
    rng.choice(sites).value ^= 1
    return True


#: The seeded miscompile catalog: name -> mutator.  Every mutator
#: either plants an observable bug (and returns True) or reports the
#: function has no applicable site (False).
MUTATIONS: dict[str, Callable[[Function, random.Random], bool]] = {
    "store-offset": _mutate_store_offset,
    "store-drop": _mutate_store_drop,
    "undef-use": _mutate_undef_use,
    "cjump-swap": _mutate_cjump_swap,
    "jump-retarget": _mutate_jump_retarget,
    "const-value": _mutate_const_value,
}


#: Exercises every pass in the pipeline: loops over global arrays for
#: licm/fold_offsets/dedupe, repeated subexpressions for CSE, constant
#: branches for fold_constants/simplify_cfg, copies and dead values.
MUTATION_SOURCE = """
int data[16];
int total;

int fill(int n) {
    int i;
    int x;
    for (i = 0; i < n; i = i + 1) {
        x = i * 4;
        data[i] = x + i * 4 + total;
        total = total + data[i];
    }
    return total;
}

int classify(int x) {
    int zero;
    zero = 0;
    if (x < zero) { total = zero - x; return 0 - 1; }
    if (x == 0) return 0;
    return 1;
}

int main() {
    int t;
    if (2 * 3 == 6) { total = 1; } else { total = 2; }
    t = fill(16);
    putchar(48 + classify(t - total));
    return classify(t);
}
"""


def mutation_campaign(*, seed: int = 42) -> list[MutantResult]:
    """Plant seeded miscompiles into pass outputs; record detection.

    :data:`MUTATION_SOURCE` (no runtime library) is optimized at ``-O2``.
    For every distinct pass in the pipeline the campaign takes that
    pass's applications (in order), perturbs a clone of each
    *output* with every applicable mutation from :data:`MUTATIONS`, and
    re-runs :func:`check_pass` between the unmodified input and the
    mutated output.  A sound checker reports every mutant as
    non-proven (``caught``).
    """
    module = lower_program(parse(MUTATION_SOURCE))
    snapshots: list[tuple[str, str, int, Function, Function]] = []

    def observer(func_name: str, pass_name: str, round_index: int,
                 before: Function, after: Function,
                 changed: bool) -> None:
        if round_index == 0:
            snapshots.append((func_name, pass_name, round_index,
                              before, after.clone()))

    optimize_module(module, level=2, observer=observer)

    rng = random.Random(seed)
    results: list[MutantResult] = []
    by_pass: dict[str, list[tuple[str, str, int, Function, Function]]] = {}
    for snapshot in snapshots:
        by_pass.setdefault(snapshot[1], []).append(snapshot)
    for pass_name in sorted(by_pass):
        for mutation_name in sorted(MUTATIONS):
            mutate = MUTATIONS[mutation_name]
            for func_name, _pass, round_index, before, after \
                    in by_pass[pass_name]:
                mutant = after.clone()
                if not mutate(mutant, rng):
                    continue
                verdict, reason, _regions = check_pass(before, mutant)
                results.append(MutantResult(
                    func_name, pass_name, round_index, mutation_name,
                    verdict, reason))
                break           # one mutant per (pass, mutation)
    return results
