"""Static I-cache must/may/persistence analysis with cache-aware WCET.

Classifies every reachable instruction fetch of a linked image --
per :class:`~repro.cache.cache.CacheConfig` -- as **always-hit**,
**always-miss**, **persistent** (at most one miss per loop entry), or
**not-classified**, by abstract interpretation over the shared
:class:`~repro.analysis.cfg.BinaryCFG` in the style of
Ferdinand-Wilhelm cache analysis.  Because the modeled cache is
direct-mapped, the abstract domains are exact per line (no LRU ages):

* **must** maps a cache line to ``(tag, submask)``: the tag the line
  *certainly* holds and a lower bound on its valid sub-block bits.
  An access whose (tag, sub) is covered is an always-hit; a must entry
  with a *different* tag proves a conflict miss.
* **may** maps a cache line to ``{tag: submask}``: an upper bound on
  what the line can hold.  An access whose bit is provably absent is
  an always-miss (this is what makes cold-start and post-replacement
  misses provable).

Fetch *sites* are per-block word runs: consecutive instructions in one
basic block sharing a word address form one site, which is exactly the
consecutive-word deduplication the simulator applies to the fetch
stream (two 16-bit D16 instructions in one word cost one fetch).
Literal-pool words never appear in blocks, so the existing code/data
classification excludes them by construction.

The miss *upper bound* composes like the WCET: per-block miss costs
(always-miss + not-classified sites), callee bounds folded into call
blocks, proven loops collapsed to ``bound x longest-iteration`` --
with persistent sites charged once per entry of their loop via the
``loop_extra`` hook of :func:`~repro.analysis.wcet._collapse`.  Any
structural obstruction (unresolved call, recursion, unbounded loop,
unknown indirect jump) makes the bound refuse (``None``) exactly like
TIM004/LOOP001 do for cycles -- never silently unsound.

:func:`validate_icache` replays a recorded instruction trace through
the real :class:`~repro.cache.cache.Cache` (via the vectorized
first-demand compression of :mod:`repro.cache.vector`) and checks the
three soundness obligations: no always-hit fetch ever misses
(CACHE001), simulated misses never exceed a finite
static bound and observed cycles stay inside the cache-aware interval
(CACHE002), and the analysis's assumed prefetch semantics agree with
the simulated cache access by access (CACHE005).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..cache import vector
from ..cache.cache import Cache, CacheConfig
from ..machine.perf import cycles_with_cache
from ..machine.stats import RunStats
from .absint import solve
from .cfg import BasicBlock
from .findings import Finding, finding
from .wcet import ProgramWcet, _call_sccs, _collapse, _FuncInfo

#: ``Cache`` initializes tags to -1: a cold line provably holds no
#: real (non-negative) tag, which is what makes cold misses provable.
_EMPTY_TAG = -1

#: How many example findings one validation emits per rule before
#: summarizing (a broken analysis would otherwise flood the report).
_MAX_EXAMPLES = 5


class SiteClass(enum.Enum):
    """Classification of one static fetch site under one config."""

    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    PERSISTENT = "persistent"
    NOT_CLASSIFIED = "not-classified"


class FetchSite(NamedTuple):
    """One static instruction-fetch site (a per-block word run)."""

    pc: int           # first instruction address of the run
    word: int         # word-aligned fetch address
    func: int         # owning function start
    block: int        # owning basic-block start
    line: int         # cache line (under the analyzed config)
    tag: int
    sub: int


class _Geometry(NamedTuple):
    block_shift: int
    line_mask: int
    line_shift: int
    sub_shift: int
    sub_mask: int
    nsubs: int


def _geometry(config: CacheConfig) -> _Geometry:
    num_lines = config.num_lines
    return _Geometry(
        block_shift=config.block.bit_length() - 1,
        line_mask=num_lines - 1,
        line_shift=num_lines.bit_length() - 1,
        sub_shift=config.sub_block.bit_length() - 1,
        sub_mask=config.subs_per_block - 1,
        nsubs=config.subs_per_block)


def _decompose(word: int, g: _Geometry) -> tuple[int, int, int]:
    """(line, tag, sub) of a word address -- mirrors ``Cache.access``."""
    bi = word >> g.block_shift
    return (bi & g.line_mask, bi >> g.line_shift,
            (word >> g.sub_shift) & g.sub_mask)


# ---------------------------------------------------------------------------
# Abstract cache states.
# ---------------------------------------------------------------------------


class _State:
    """One abstract cache state: must + may, with a cold-start mode.

    ``cold`` flips the meaning of *missing* lines: in a cold state a
    missing line is known empty (tag -1, nothing valid / nothing
    possibly cached); otherwise it is unknown (no must guarantee, any
    content possible).  The program entry starts cold -- every other
    function entry starts fully unknown.
    """

    __slots__ = ("must", "may", "cold")

    def __init__(self,
                 must: dict[int, tuple[int, int] | None] | None = None,
                 may: dict[int, dict[int, int] | None] | None = None,
                 cold: bool = False):
        # must: line -> (tag, submask) | None (no guarantee)
        # may:  line -> {tag: submask} | None (anything possible)
        self.must: dict[int, tuple[int, int] | None] = \
            must if must is not None else {}
        self.may: dict[int, dict[int, int] | None] = \
            may if may is not None else {}
        self.cold = cold

    def copy(self) -> _State:
        return _State(dict(self.must),
                      {ln: (None if v is None else dict(v))
                       for ln, v in self.may.items()},
                      self.cold)

    def must_at(self, line: int) -> tuple[int, int] | None:
        if line in self.must:
            return self.must[line]
        return (_EMPTY_TAG, 0) if self.cold else None

    def may_at(self, line: int) -> dict[int, int] | None:
        if line in self.may:
            return self.may[line]
        return {} if self.cold else None

    def clear(self) -> None:
        """Forget everything (unresolvable callee)."""
        self.must.clear()
        self.may.clear()
        self.cold = False

    def damage(self, lines: Iterable[int]) -> None:
        """Forget the given lines (resolved callee's footprint)."""
        for line in lines:
            self.must[line] = None
            self.may[line] = None
        self.normalize()

    def normalize(self) -> None:
        """Drop entries equal to the missing-line default."""
        must_default = (_EMPTY_TAG, 0) if self.cold else None
        for line in [ln for ln, v in self.must.items()
                     if v == must_default]:
            del self.must[line]
        may_default: dict[int, int] | None = \
            {} if self.cold else None
        for line in [ln for ln, v in self.may.items()
                     if v == may_default]:
            del self.may[line]

    def key(self) -> tuple[object, ...]:
        """Hashable snapshot for fixpoint convergence checks."""
        return (self.cold, tuple(sorted(self.must.items())),
                tuple(sorted(
                    (ln, None if v is None
                     else tuple(sorted(v.items())))
                    for ln, v in self.may.items())))

    def __eq__(self, other: object) -> bool:
        """Equal by value (:meth:`key`), as the solver compares states."""
        return isinstance(other, _State) and self.key() == other.key()


def _join(a: _State, b: _State) -> _State:
    """Control-flow join: intersect must, union may.

    Missing lines need no enumeration: the join of the two defaults is
    always the default of the joined state (cold iff both are cold).
    """
    out = _State(cold=a.cold and b.cold)
    for line in set(a.must) | set(b.must) | set(a.may) | set(b.may):
        ma, mb = a.must_at(line), b.must_at(line)
        if ma is not None and mb is not None and ma[0] == mb[0]:
            out.must[line] = (ma[0], ma[1] & mb[1])
        else:
            out.must[line] = None
        pa, pb = a.may_at(line), b.may_at(line)
        if pa is None or pb is None:
            out.may[line] = None
        else:
            merged = dict(pa)
            for tag, mask in pb.items():
                merged[tag] = merged.get(tag, 0) | mask
            out.may[line] = merged
    out.normalize()
    return out


def _access(state: _State, site: FetchSite,
            g: _Geometry) -> tuple[bool, bool]:
    """Abstract transfer of one fetch; returns (hit proof, miss proof).

    Mirrors ``Cache.access`` for reads: a tag mismatch installs the new
    tag with all valid bits cleared; a miss validates the demanded
    sub-block *and* its wrap-around successor (prefetch).  After any
    access the line's tag is certainly the site's tag, so the may
    component always collapses to a single-tag entry.
    """
    line, tag, sub = site.line, site.tag, site.sub
    bit = 1 << sub
    nbit = 1 << ((sub + 1) % g.nsubs)
    m = state.must_at(line)
    p = state.may_at(line)
    hit = m is not None and m[0] == tag and bool(m[1] & bit)
    conflict = m is not None and m[0] != tag
    may_miss = p is not None and not (p.get(tag, 0) & bit)
    miss = conflict or may_miss
    base = m[1] if (m is not None and m[0] == tag) else 0
    state.must[line] = (tag, base | bit | (nbit if miss else 0))
    if conflict:
        upper = bit | nbit            # replacement: exactly these bits
    elif p is not None:
        upper = p.get(tag, 0) | bit | (0 if hit else nbit)
    else:
        upper = (1 << g.nsubs) - 1
    state.may[line] = {tag: upper}
    return hit, miss


# ---------------------------------------------------------------------------
# Sites, damage sets, per-function fixpoints.
# ---------------------------------------------------------------------------


def _block_word_runs(block: BasicBlock) -> list[tuple[int, int]]:
    """(first pc, word) of each consecutive-word run of a block.

    This is the static image of the simulator's fetch-stream word
    deduplication: a D16 word holding two instructions is one site.
    """
    runs: list[tuple[int, int]] = []
    prev = None
    for addr, _instr in block.instrs:
        word = addr & ~3
        if word != prev:
            runs.append((addr, word))
            prev = word
    return runs


def _taint_reasons(info: _FuncInfo) -> list[str]:
    """Why this function's intra-procedural flow is not fully known.

    An indirect non-call, non-return jump (or an edge leaving the
    function span) can re-enter anywhere, so no per-block abstract
    state inside the function is trustworthy: every site degrades to
    not-classified and the function's misses are unboundable.
    """
    reasons = []
    for blk in info.blocks.values():
        if blk.indirect and not blk.is_return and not blk.is_call:
            reasons.append(
                f"indirect jump at {blk.terminator[0]:#x}")
        if any(s not in info.blocks for s in blk.succs):
            reasons.append(
                f"control flow leaves the function at "
                f"{blk.terminator[0]:#x}")
    return reasons


def _damage_sets(infos: dict[int, _FuncInfo],
                 sites: dict[int, dict[int, list[FetchSite]]],
                 tainted: dict[int, list[str]],
                 ) -> dict[int, dict[int, set[int]] | None]:
    """Transitive cache footprint of each function.

    Maps function start to ``{line: {tags}}`` -- every (line, tag) any
    fetch in the function or its transitive callees can touch -- or
    ``None`` when the footprint is unknowable (taint, unresolved
    call).  Computed callees-first over call-graph SCCs; a recursive
    SCC shares the union of its members.
    """
    edges = {f: {c for c in info.timing.callees if c in infos}
             for f, info in infos.items()}
    damage: dict[int, dict[int, set[int]] | None] = {}
    for scc in _call_sccs(set(infos), edges):
        total: dict[int, set[int]] | None = {}
        for f in scc:
            info = infos[f]
            if tainted[f] or any(c is None
                                 for c in info.call_of.values()):
                total = None
                break
            for run_sites in sites[f].values():
                for site in run_sites:
                    total.setdefault(site.line, set()).add(site.tag)
            for c in info.timing.callees:
                if c in scc or c not in infos:
                    continue
                d = damage.get(c)
                if d is None:
                    total = None
                    break
                for line, tags in d.items():
                    total.setdefault(line, set()).update(tags)
            if total is None:
                break
        for f in scc:
            damage[f] = total
    return damage


class _CacheDomain:
    """The I-cache fixpoint of one function, run by
    :func:`~repro.analysis.absint.solve`: a block's fetch sites in
    order, then its callee's footprint (``damage``; unknown clears the
    state).  The lattice is finite, so ``widen`` is the identity."""

    def __init__(self, info: _FuncInfo, g: _Geometry,
                 sites: dict[int, list[FetchSite]],
                 damage: dict[int, dict[int, set[int]] | None],
                 cold: bool):
        self.info = info
        self.g = g
        self.sites = sites
        self.damage = damage
        self.cold = cold

    def entry_state(self) -> _State:
        return _State(cold=self.cold)

    def transfer(self, block: BasicBlock, state: _State) -> _State:
        out = state.copy()
        for site in self.sites.get(block.start, ()):
            _access(out, site, self.g)
        if block.is_call:
            callee = self.info.call_of.get(block.start)
            d = self.damage.get(callee) if callee is not None else None
            if d is None:
                out.clear()
            else:
                out.damage(d)
        return out

    def edge_state(self, block: BasicBlock, succ: int,
                   out: _State) -> _State:
        return out

    def join(self, old: _State, new: _State, at: int) -> _State:
        return _join(old, new)

    def widen(self, old: _State, joined: _State, at: int) -> _State:
        return joined


# ---------------------------------------------------------------------------
# Whole-program analysis.
# ---------------------------------------------------------------------------


@dataclass
class ICacheAnalysis:
    """Per-config fetch classification plus the composed miss bound."""

    program: ProgramWcet
    config: CacheConfig
    #: (block start, word) -> site / class; the key is unique because
    #: a block visits each word in one consecutive run.
    sites: dict[tuple[int, int], FetchSite]
    classes: dict[tuple[int, int], SiteClass]
    #: Persistent sites' chosen loop header (outermost qualifying).
    ps_loop: dict[tuple[int, int], int]
    #: Every instruction address -> its site key (for trace attribution).
    site_of_pc: dict[int, tuple[int, int]]
    #: Per-function fetch-miss upper bound (None: not boundable).
    miss_ub_of: dict[int, int | None]
    #: Loop-bound-free whole-text bound: when no two text words
    #: conflict under this config, every sub-block misses at most
    #: once, so the distinct-sub-block count of the text range bounds
    #: total misses for *any* execution (None: text conflicts).
    geometric_ub: int | None
    #: Whole-program fetch-miss upper bound: the tightest sound bound
    #: available (entry-function composition and/or geometric).
    miss_ub: int | None
    #: Functions without a finite miss bound, with the reason.
    unbounded: dict[int, str]
    #: Did the entry function get the cold-cache entry state?
    cold_entry: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out = {cls.value: 0 for cls in SiteClass}
        for cls in self.classes.values():
            out[cls.value] += 1
        return out

    def cycle_bounds(self, penalty: int) -> tuple[int, int | None]:
        """Cache-aware [BCET, WCET] under the given miss penalty.

        The BCET stays cache-blind (every fetch may hit: sound and
        exactly the seed's lower bound); the WCET charges ``penalty``
        per statically possible miss.  Summing the two path maxima is
        sound -- max(cycles) + penalty * max(misses) dominates the
        maximum of their sum -- at the cost of some looseness.
        """
        wcet = self.program.wcet
        if wcet is None or self.miss_ub is None:
            return self.program.bcet, None
        return self.program.bcet, wcet + penalty * self.miss_ub

    def to_record(self) -> dict:
        cfg = self.config
        return {"size": cfg.size, "block": cfg.block,
                "sub_block": cfg.sub_block, "sites": len(self.sites),
                "classes": self.counts, "miss_ub": self.miss_ub,
                "geometric_ub": self.geometric_ub,
                "cold_entry": self.cold_entry,
                "unbounded_functions": len(self.unbounded)}


def analyze_icache(program: ProgramWcet,
                   config: CacheConfig) -> ICacheAnalysis:
    """Classify every fetch site of ``program`` under ``config``."""
    infos: dict[int, _FuncInfo] = program.infos
    cfg = program.cfg
    g = _geometry(config)

    # ---- static fetch sites, one per per-block word run.
    func_sites: dict[int, dict[int, list[FetchSite]]] = {}
    sites: dict[tuple[int, int], FetchSite] = {}
    site_of_pc: dict[int, tuple[int, int]] = {}
    for fstart, info in infos.items():
        by_block: dict[int, list[FetchSite]] = {}
        for b, blk in info.blocks.items():
            runs = []
            for pc, word in _block_word_runs(blk):
                line, tag, sub = _decompose(word, g)
                runs.append(FetchSite(pc=pc, word=word, func=fstart,
                                      block=b, line=line, tag=tag,
                                      sub=sub))
            by_block[b] = runs
            for site in runs:
                sites[(b, site.word)] = site
            current = None
            for pc, _instr in blk.instrs:
                word = pc & ~3
                if current is None or current[1] != word:
                    current = (b, word)
                site_of_pc[pc] = current
        func_sites[fstart] = by_block

    tainted = {f: _taint_reasons(info) for f, info in infos.items()}
    damage = _damage_sets(infos, func_sites, tainted)

    # ---- the entry function alone may assume a cold cache, and only
    # when nothing can call back into it.
    entry_func = program.entry_func
    called = {c for info in infos.values() for c in info.timing.callees}
    any_unresolved = any(c is None for info in infos.values()
                         for c in info.call_of.values())
    cold_entry = (entry_func is not None and entry_func not in called
                  and not any_unresolved)

    findings: list[Finding] = []
    classes: dict[tuple[int, int], SiteClass] = {}
    ps_loop: dict[tuple[int, int], int] = {}
    for fstart, info in infos.items():
        by_block = func_sites[fstart]
        if tainted[fstart]:
            for runs in by_block.values():
                for site in runs:
                    classes[(site.block, site.word)] = \
                        SiteClass.NOT_CLASSIFIED
            continue
        states = solve(info.blocks, fstart, _CacheDomain(
            info, g, by_block, damage,
            cold=cold_entry and fstart == entry_func))
        for b, runs in by_block.items():
            entry_state = states.get(b)
            st = entry_state.copy() if entry_state is not None \
                else _State()
            for site in runs:
                hit, miss = _access(st, site, g)
                key = (site.block, site.word)
                if hit and miss:
                    findings.append(finding(
                        "CACHE001", cfg.describe(site.pc),
                        f"internal contradiction: fetch at "
                        f"{site.pc:#x} proved both always-hit and "
                        f"always-miss"))
                    classes[key] = SiteClass.NOT_CLASSIFIED
                elif hit:
                    classes[key] = SiteClass.ALWAYS_HIT
                elif miss:
                    classes[key] = SiteClass.ALWAYS_MISS
                else:
                    classes[key] = SiteClass.NOT_CLASSIFIED

        # ---- persistence: a not-classified site is first-miss-only
        # within a loop in which no other tag touches its line (and no
        # call can).  Outermost qualifying loop wins: one miss per
        # entry of the biggest region is the strongest claim.
        loops = sorted(info.forest.loops.values(),
                       key=lambda lp: lp.depth)
        for loop in loops:
            touch: dict[int, set[int]] | None = {}
            for b in loop.body:
                if b not in info.blocks:
                    continue
                for site in by_block.get(b, ()):
                    touch.setdefault(site.line, set()).add(site.tag)
                blk = info.blocks[b]
                if blk.is_call:
                    callee = info.call_of.get(b)
                    d = damage.get(callee) if callee is not None \
                        else None
                    if d is None:
                        touch = None
                        break
                    for line, tags in d.items():
                        touch.setdefault(line, set()).update(tags)
            if touch is None:
                continue
            for b in loop.body:
                for site in by_block.get(b, ()):
                    key = (site.block, site.word)
                    if classes[key] is not SiteClass.NOT_CLASSIFIED \
                            or key in ps_loop:
                        continue
                    if touch.get(site.line) == {site.tag}:
                        classes[key] = SiteClass.PERSISTENT
                        ps_loop[key] = loop.header

    # ---- miss upper bounds, composed bottom-up like the WCET.
    miss_ub_of: dict[int, int | None] = {}
    unbounded: dict[int, str] = {}
    edges = {f: {c for c in info.timing.callees if c in infos}
             for f, info in infos.items()}
    sccs = _call_sccs(set(infos), edges)
    in_cycle = {f for scc in sccs for f in scc
                if len(scc) > 1 or scc[0] in edges[scc[0]]}
    for scc in sccs:
        for f in scc:
            info = infos[f]
            reason = None
            if tainted[f]:
                reason = tainted[f][0]
            elif f in in_cycle:
                reason = "recursive"
            elif any(c is None for c in info.call_of.values()):
                reason = "unresolved call"
            else:
                for c in info.timing.callees:
                    if miss_ub_of.get(c) is None:
                        reason = (f"callee "
                                  f"'{infos[c].timing.name}' has no "
                                  f"finite miss bound")
                        break
            ub = None
            if reason is None:
                costs = {}
                for b in info.blocks:
                    cost = sum(
                        1 for site in func_sites[f].get(b, ())
                        if classes[(site.block, site.word)] in
                        (SiteClass.ALWAYS_MISS,
                         SiteClass.NOT_CLASSIFIED))
                    callee = info.call_of.get(b)
                    if callee is not None:
                        cost += miss_ub_of[callee]
                    costs[b] = cost
                extra: dict[int, int] = {}
                for key, header in ps_loop.items():
                    if sites[key].func == f:
                        extra[header] = extra.get(header, 0) + 1
                ub = _collapse(info, costs, info.timing.proven_trips,
                               longest=True, loop_extra=extra)
                if ub is None:
                    reason = "loop bounds not provable"
            if reason is not None:
                unbounded[f] = reason
                findings.append(finding(
                    "CACHE003", cfg.describe(f),
                    f"fetch misses of '{info.timing.name}' not "
                    f"statically boundable: {reason}"))
            miss_ub_of[f] = ub

    # ---- the conflict-free whole-text bound needs no loop bounds:
    # when the text range maps to at most one tag per line, a line's
    # tag is never replaced, so each distinct sub-block of the range
    # misses at most once -- for any execution confined to the text
    # segment (which validation enforces as CACHE004).
    geometric_ub = None
    bi_lo, bi_hi = cfg.base >> g.block_shift, \
        (cfg.end - 1) >> g.block_shift
    if cfg.end > cfg.base and bi_hi - bi_lo < config.num_lines:
        geometric_ub = (((cfg.end - 1) >> g.sub_shift)
                        - (cfg.base >> g.sub_shift) + 1)

    composed = miss_ub_of.get(entry_func) if entry_func is not None \
        else None
    candidates = [ub for ub in (composed, geometric_ub)
                  if ub is not None]
    miss_ub = min(candidates) if candidates else None
    findings.sort(key=lambda f: (f.location, f.rule))
    return ICacheAnalysis(
        program=program, config=config, sites=sites, classes=classes,
        ps_loop=ps_loop, site_of_pc=site_of_pc,
        miss_ub_of=miss_ub_of, geometric_ub=geometric_ub,
        miss_ub=miss_ub, unbounded=unbounded,
        cold_entry=cold_entry, findings=findings)


# ---------------------------------------------------------------------------
# Validation against simulated replay.
# ---------------------------------------------------------------------------


class _ModelCache:
    """The analysis's assumed concrete semantics, for divergence
    checks against the real ``Cache`` (CACHE005)."""

    __slots__ = ("g", "tags", "valid")

    def __init__(self, config: CacheConfig):
        self.g = _geometry(config)
        self.tags = [_EMPTY_TAG] * config.num_lines
        self.valid = [0] * config.num_lines

    def access(self, word: int) -> bool:
        g = self.g
        line, tag, sub = _decompose(word, g)
        if self.tags[line] != tag:
            self.tags[line] = tag
            self.valid[line] = 0
        bit = 1 << sub
        if self.valid[line] & bit:
            return True
        self.valid[line] |= bit | (1 << ((sub + 1) % g.nsubs))
        return False


@dataclass
class ICacheValidation:
    """Soundness sweep of one analysis against one simulated trace."""

    analysis: ICacheAnalysis
    penalty: int
    fetches: int                  # word-deduped fetch count
    sim_misses: int
    miss_ub: int | None
    contradictions: int           # always-hit fetches that missed
    unattributed: int             # misses at pcs with no static site
    observed_cycles: int
    bcet: int
    wcet: int | None              # cache-aware upper bound
    findings: list[Finding] = field(default_factory=list)

    def to_record(self) -> dict:
        record = self.analysis.to_record()
        record.update({
            "penalty": self.penalty, "fetches": self.fetches,
            "sim_misses": self.sim_misses,
            "contradictions": self.contradictions,
            "unattributed": self.unattributed,
            "observed_cycles": self.observed_cycles,
            "bcet": self.bcet, "wcet": self.wcet})
        return record


def _replay(analysis: ICacheAnalysis, addrs: np.ndarray,
            config: CacheConfig, findings: list[Finding],
            ) -> tuple[int, int, int, int]:
    """First-demand walk of a non-empty trace with pc attribution."""
    words = addrs & ~3
    keep_idx = np.flatnonzero(vector.changes(words))
    deduped = words[keep_idx]

    model = _ModelCache(config)
    real = Cache(config)
    misses = contradictions = unattributed = diverged = 0
    for pos in vector._first_demands(config, deduped).tolist():
        word = int(deduped[pos])
        model_hit = model.access(word)
        real_hit = real.access(word)
        if model_hit != real_hit:
            diverged += 1
            if diverged <= _MAX_EXAMPLES:
                findings.append(finding(
                    "CACHE005", f"addr {word:#x}",
                    f"analysis model predicts "
                    f"{'hit' if model_hit else 'miss'} but the "
                    f"simulated cache "
                    f"{'hit' if real_hit else 'missed'}"))
        if real_hit:
            continue
        misses += 1
        pc = int(addrs[int(keep_idx[pos])])
        key = analysis.site_of_pc.get(pc)
        if key is None:
            unattributed += 1
        elif analysis.classes[key] is SiteClass.ALWAYS_HIT:
            contradictions += 1
            if contradictions <= _MAX_EXAMPLES:
                findings.append(finding(
                    "CACHE001", analysis.program.cfg.describe(pc),
                    f"always-hit fetch at {pc:#x} missed in "
                    f"simulation"))

    # Cross-check the totals against the vectorized replay oracle.
    oracle = Cache(config)
    vector.replay_reads(oracle, deduped)
    if oracle.read_misses != misses:
        findings.append(finding(
            "CACHE005", "replay",
            f"first-demand walk counted {misses} misses but the "
            f"replay oracle counted {oracle.read_misses}"))
    return oracle.read_accesses, misses, contradictions, unattributed


def validate_icache(analysis: ICacheAnalysis, itrace: Sequence[int],
                    stats: RunStats, *, penalty: int) -> ICacheValidation:
    """Replay ``itrace`` on the analyzed configuration and check every
    static claim against it.

    ``stats`` is the run's :class:`~repro.machine.stats.RunStats`;
    observed cycles are :func:`~repro.machine.perf.cycles_with_cache`
    charged with the I-cache misses alone, the formula the cacheperf
    experiments use.  A trace that leaves the analyzed text segment is
    a CACHE004 error.
    """
    findings: list[Finding] = []
    config = analysis.config
    cfg = analysis.program.cfg
    addrs = vector.as_addresses(itrace)
    replay = (0, 0, 0, 0)
    if addrs.size and not (cfg.base <= int(addrs.min())
                           and int(addrs.max()) < cfg.end):
        findings.append(finding(
            "CACHE004", "trace",
            f"instruction trace leaves the analyzed text segment "
            f"[{cfg.base:#x}, {cfg.end:#x})"))
    elif addrs.size:
        replay = _replay(analysis, addrs, config, findings)
    fetches, misses, contradictions, unattributed = replay

    miss_ub = analysis.miss_ub
    if miss_ub is not None and misses > miss_ub:
        findings.append(finding(
            "CACHE002", cfg.describe(cfg.exe.entry),
            f"simulated fetch misses {misses} exceed the static "
            f"upper bound {miss_ub}"))
    bcet, wcet = analysis.cycle_bounds(penalty)
    observed = cycles_with_cache(stats, miss_penalty=penalty,
                                 imisses=misses, rmisses=0, wmisses=0)
    if observed < bcet or (wcet is not None and observed > wcet):
        upper = "unbounded" if wcet is None else str(wcet)
        findings.append(finding(
            "CACHE002", cfg.describe(cfg.exe.entry),
            f"observed {observed} cycles escape the cache-aware "
            f"interval [{bcet}, {upper}] at penalty {penalty}"))
    findings.sort(key=lambda f: (f.location, f.rule))
    return ICacheValidation(
        analysis=analysis, penalty=penalty, fetches=fetches,
        sim_misses=misses, miss_ub=miss_ub,
        contradictions=contradictions, unattributed=unattributed,
        observed_cycles=observed, bcet=bcet, wcet=wcet,
        findings=findings)
