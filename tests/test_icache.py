"""Tests for the static I-cache must/may/persistence analysis.

The load-bearing property mirrors test_wcet.py: every static claim
must survive simulated replay.  Always-hit fetches may never miss,
always-miss fetches may never hit, and simulated miss counts must stay
under any finite static bound — checked by hand on the abstract
domains, by hypothesis on random synthetic CFGs replayed through the
real :class:`~repro.cache.cache.Cache`, and end-to-end on compiled
programs across a cache-size grid.  BinaryCFG edge cases that feed the
analysis (empty functions, literal pools, indirect jumps, D16
word-sharing) are covered alongside.
"""

from __future__ import annotations

from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (SCHEMA_VERSION, RULES, SiteClass,
                            analyze_icache, analyze_wcet, build_cfg,
                            find_loops, icache_cell, resolve_cfg, solve,
                            validate_icache)
from repro.analysis import icache
from repro.analysis.findings import has_errors
from repro.analysis.cfg import BasicBlock
from repro.analysis.icache import (_access, _block_word_runs,
                                   _CacheDomain, _decompose, _geometry,
                                   _join, _taint_reasons, _State,
                                   FetchSite)
from repro.analysis.wcet import _FuncInfo, FunctionTiming
from repro.asm import Assembler, link
from repro.bench import SUITE
from repro.cache.cache import Cache, CacheConfig
from repro.cc import build_executable, get_target
from repro.cc.codegen import generate_assembly
from repro.cc.irgen import lower_program
from repro.cc.opt import optimize_module
from repro.cc.parser import parse
from repro.cc.runtime import RUNTIME_SOURCE
from repro.experiments.cacheperf import CACHE_SIZES
from repro.machine import run_executable

from .test_cache_vector import dedup_consecutive

HELLO = """
int main() {
    puts("hi");
    return 3;
}
"""

#: A small config so synthetic tests exercise conflicts and wrap-around
#: prefetch: 4 lines of 16 bytes, two 8-byte sub-blocks per line.
SMALL = CacheConfig(size=64, block=16, sub_block=8)


def _build(source: str, target_name: str):
    target = get_target(target_name)
    module = lower_program(parse(RUNTIME_SOURCE + "\n" + source))
    optimize_module(module, level=2)
    assembly = generate_assembly(module, target, opt_level=2)
    exe = link([Assembler(target.isa).assemble(assembly)])
    return exe, target


@pytest.fixture(scope="module")
def hello_d16():
    """(exe, target, program, stats, machine) for HELLO on D16."""
    exe, target = _build(HELLO, "d16")
    stats, machine = run_executable(exe, trace_instructions=True)
    program = analyze_wcet(resolve_cfg(exe, target.isa, target=target),
                           model=None)
    return exe, target, program, stats, machine


def _site(word: int, g, pc: int | None = None,
          block: int = 0) -> FetchSite:
    line, tag, sub = _decompose(word, g)
    return FetchSite(pc=pc if pc is not None else word, word=word,
                     func=0, block=block, line=line, tag=tag, sub=sub)


# ------------------------------------------------- abstract domains


class TestState:
    def test_cold_defaults(self):
        s = _State(cold=True)
        assert s.must_at(3) == (-1, 0)
        assert s.may_at(3) == {}

    def test_warm_defaults(self):
        s = _State()
        assert s.must_at(3) is None
        assert s.may_at(3) is None

    def test_normalize_drops_defaults(self):
        s = _State(cold=True)
        s.must[1] = (-1, 0)
        s.may[2] = {}
        s.normalize()
        assert s.must == {} and s.may == {}

    def test_damage_forgets_lines(self):
        s = _State(cold=True)
        s.must[1] = (7, 0b11)
        s.may[1] = {7: 0b11}
        s.damage([1])
        assert s.must_at(1) is None
        assert s.may_at(1) is None
        # Untouched lines keep their cold guarantee.
        assert s.must_at(0) == (-1, 0)


class TestJoin:
    def test_same_tag_intersects_masks(self):
        a, b = _State(), _State()
        a.must[0] = (5, 0b11)
        b.must[0] = (5, 0b01)
        out = _join(a, b)
        assert out.must[0] == (5, 0b01)

    def test_different_tags_lose_must(self):
        a, b = _State(), _State()
        a.must[0] = (5, 0b11)
        b.must[0] = (6, 0b11)
        assert _join(a, b).must_at(0) is None

    def test_may_unions_tags(self):
        a, b = _State(cold=True), _State(cold=True)
        a.may[0] = {5: 0b01}
        b.may[0] = {6: 0b10, 5: 0b10}
        out = _join(a, b)
        assert out.may[0] == {5: 0b11, 6: 0b10}

    def test_warm_side_makes_may_unknown(self):
        a, b = _State(cold=True), _State()
        a.may[0] = {5: 0b01}
        out = _join(a, b)
        assert out.may_at(0) is None
        assert not out.cold

    def test_cold_joins_stay_cold(self):
        out = _join(_State(cold=True), _State(cold=True))
        assert out.cold
        # Missing lines in both sides need no explicit entries.
        assert out.must == {} and out.may == {}


class TestAccess:
    def setup_method(self):
        self.g = _geometry(SMALL)

    def test_cold_first_access_is_miss(self):
        s = _State(cold=True)
        hit, miss = _access(s, _site(0x0, self.g), self.g)
        assert (hit, miss) == (False, True)

    def test_repeat_access_is_hit(self):
        s = _State(cold=True)
        _access(s, _site(0x0, self.g), self.g)
        hit, miss = _access(s, _site(0x0, self.g), self.g)
        assert (hit, miss) == (True, False)

    def test_prefetch_makes_next_sub_hit(self):
        s = _State(cold=True)
        _access(s, _site(0x0, self.g), self.g)     # sub 0, prefetch sub 1
        hit, miss = _access(s, _site(0x8, self.g), self.g)
        assert (hit, miss) == (True, False)

    def test_wraparound_prefetch(self):
        s = _State(cold=True)
        _access(s, _site(0x8, self.g), self.g)     # sub 1, prefetch sub 0
        hit, miss = _access(s, _site(0x0, self.g), self.g)
        assert (hit, miss) == (True, False)

    def test_conflict_is_always_miss_even_warm(self):
        s = _State()                                # unknown start
        _access(s, _site(0x0, self.g), self.g)      # line 0, tag 0
        hit, miss = _access(s, _site(0x40, self.g), self.g)  # tag 1
        assert (hit, miss) == (False, True)

    def test_warm_first_access_unclassified(self):
        s = _State()
        hit, miss = _access(s, _site(0x0, self.g), self.g)
        assert (hit, miss) == (False, False)

    def test_replacement_clears_other_subs(self):
        s = _State(cold=True)
        _access(s, _site(0x0, self.g), self.g)      # tag 0 resident
        _access(s, _site(0x40, self.g), self.g)     # tag 1 replaces it
        hit, miss = _access(s, _site(0x0, self.g), self.g)
        assert (hit, miss) == (False, True)         # conflict again


class TestWordRuns:
    def test_d16_pairs_share_one_site(self):
        blk = SimpleNamespace(instrs=[(0x1000, None), (0x1002, None),
                                      (0x1004, None)])
        assert _block_word_runs(blk) == [(0x1000, 0x1000),
                                         (0x1004, 0x1004)]

    def test_revisited_word_is_a_new_run(self):
        # Non-consecutive repetition is two fetches in the simulator.
        blk = SimpleNamespace(instrs=[(0x1000, None), (0x1004, None),
                                      (0x1000, None)])
        assert len(_block_word_runs(blk)) == 3


class TestTaint:
    def _info(self, **kw):
        blk = SimpleNamespace(indirect=False, is_return=False,
                              is_call=False, succs=(0x100,),
                              terminator=(0x104, None))
        blk.__dict__.update(kw)
        return SimpleNamespace(blocks={0x100: blk})

    def test_plain_block_is_clean(self):
        assert _taint_reasons(self._info()) == []

    def test_return_jump_is_clean(self):
        assert _taint_reasons(self._info(indirect=True,
                                         is_return=True)) == []

    def test_indirect_jump_taints(self):
        reasons = _taint_reasons(self._info(indirect=True))
        assert reasons and "indirect jump" in reasons[0]

    def test_edge_out_of_function_taints(self):
        reasons = _taint_reasons(self._info(succs=(0x900,)))
        assert reasons and "leaves the function" in reasons[0]


# ------------------------------- synthetic CFGs replayed through Cache


def _make_info(layout, edges, entry, width):
    """Contiguous synthetic function: layout[i] instrs per block."""
    blocks, addr = {}, 0x0
    starts = []
    for n in layout:
        starts.append(addr)
        instrs = [(addr + k * width, None) for k in range(n)]
        blocks[addr] = BasicBlock(start=addr, instrs=instrs)
        addr += n * width
    for i, succs in edges.items():
        blocks[starts[i]].succs = tuple(starts[j] for j in succs)
    forest = find_loops(blocks, starts[entry])
    timing = FunctionTiming(name="synth", start=starts[entry],
                            n_blocks=len(blocks))
    return _FuncInfo(timing=timing, blocks=blocks, forest=forest,
                     call_of={})


def _solve_function(info, g, sites, damage, cold):
    """Reference I-cache fixpoint: the dedicated reverse-postorder
    worklist the analysis ran before its domain moved onto
    ``absint.solve``.  The lattice has no widening, so both reach the
    same least fixpoint whatever the visit order."""
    blocks = info.blocks
    entry = info.timing.start
    pos = {b: i for i, b in enumerate(info.forest.dom.rpo)}
    states = {entry: _State(cold=cold)}
    pending = {entry}
    while pending:
        b = min(pending, key=lambda n: pos.get(n, len(pos)))
        pending.discard(b)
        out = states[b].copy()
        for site in sites.get(b, ()):
            _access(out, site, g)
        blk = blocks[b]
        if blk.is_call:
            callee = info.call_of.get(b)
            d = damage.get(callee) if callee is not None else None
            if d is None:
                out.clear()
            else:
                out.damage(d)
        for s in blk.succs:
            if s not in blocks:
                continue
            if s in states:
                joined = _join(states[s], out)
                if joined.key() != states[s].key():
                    states[s] = joined
                    pending.add(s)
            else:
                states[s] = out.copy()
                pending.add(s)
    return states


def _keys(states):
    return {b: state.key() for b, state in states.items()}


def _fetch_sites(info, g):
    by_block = {}
    for b, blk in info.blocks.items():
        runs = []
        for pc, word in _block_word_runs(blk):
            line, tag, sub = _decompose(word, g)
            runs.append(FetchSite(pc=pc, word=word,
                                  func=info.timing.start, block=b,
                                  line=line, tag=tag, sub=sub))
        by_block[b] = runs
    return by_block


def _classify(info, config, cold):
    """The per-function classification step of analyze_icache."""
    g = _geometry(config)
    by_block = _fetch_sites(info, g)
    states = solve(info.blocks, info.timing.start,
                   _CacheDomain(info, g, by_block, {}, cold=cold))
    classes = {}
    for b, runs in by_block.items():
        entry_state = states.get(b)
        stt = entry_state.copy() if entry_state is not None else _State()
        for site in runs:
            hit, miss = _access(stt, site, g)
            classes[(b, site.word)] = (hit, miss)
    return by_block, classes


def _replay_walk(info, classes, cache, data, max_steps=40):
    """Random walk from entry; check every claim against ``cache``."""
    block = info.timing.start
    prev = None
    for _step in range(max_steps):
        blk = info.blocks[block]
        for pc, _instr in blk.instrs:
            word = pc & ~3
            if word == prev:            # the simulator's fetch dedup
                continue
            prev = word
            real_hit = cache.access(word)
            hit, miss = classes[(block, word)]
            assert not (hit and not real_hit), \
                f"always-hit fetch {word:#x} missed"
            assert not (miss and real_hit), \
                f"always-miss fetch {word:#x} hit"
        if not blk.succs:
            return
        block = data.draw(st.sampled_from(sorted(blk.succs)),
                          label="succ")


@st.composite
def _synthetic_cfgs(draw):
    width = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(min_value=1, max_value=6))
    layout = [draw(st.integers(min_value=1, max_value=10))
              for _ in range(n)]
    edges = {i: draw(st.lists(st.integers(0, n - 1), max_size=3,
                              unique=True))
             for i in range(n)}
    return _make_info(layout, edges, entry=0, width=width)


class TestSyntheticSoundness:
    @settings(max_examples=60, deadline=None)
    @given(info=_synthetic_cfgs(), data=st.data())
    def test_cold_claims_hold_on_fresh_cache(self, info, data):
        _by_block, classes = _classify(info, SMALL, cold=True)
        _replay_walk(info, classes, Cache(SMALL), data)

    @settings(max_examples=60, deadline=None)
    @given(info=_synthetic_cfgs(), data=st.data(),
           warm=st.lists(st.integers(0, 0x1ff), max_size=8))
    def test_warm_claims_hold_on_any_start_state(self, info, data,
                                                 warm):
        # Warm analysis makes no assumption about the initial cache,
        # so its proofs must hold after arbitrary prior traffic.
        _by_block, classes = _classify(info, SMALL, cold=False)
        cache = Cache(SMALL)
        for addr in warm:
            cache.access(addr & ~3)
        _replay_walk(info, classes, cache, data)

    def test_loop_header_joins_cold_and_resident_paths(self):
        # One small loop re-fetching the same words.  The header's
        # entry state joins the cold entry (word absent) with the back
        # edge (word resident): its first fetch is neither a provable
        # hit nor a provable miss, while the second fetch of the same
        # block is a hit on every path.
        info = _make_info([2, 2], {0: (1,), 1: (0, 1)}, 0, 4)
        by_block, classes = _classify(info, SMALL, cold=True)
        assert classes[(0x0, 0x0)] == (False, False)
        assert classes[(0x0, 0x4)] == (True, False)
        states = solve(info.blocks, 0x0, _CacheDomain(
            info, _geometry(SMALL), by_block, {}, cold=True))
        # The latch block always runs after the header: its entry
        # state carries a must guarantee for the header's line.
        assert states[0x8].must_at(0) is not None


class TestFixpointReference:
    """The I-cache domain on ``absint.solve`` against the reference
    worklist: equal block-entry states (``_State.key()``)."""

    @settings(max_examples=60, deadline=None)
    @given(info=_synthetic_cfgs(), cold=st.booleans())
    def test_synthetic_cfgs(self, info, cold):
        g = _geometry(SMALL)
        by_block = _fetch_sites(info, g)
        got = solve(info.blocks, info.timing.start,
                    _CacheDomain(info, g, by_block, {}, cold=cold))
        assert _keys(got) == _keys(
            _solve_function(info, g, by_block, {}, cold=cold))

    def test_suite_cells_every_size_cold_and_warm(self, lab,
                                                  monkeypatch):
        # Every function analyze_icache solves, on the 30 Lab cells
        # under each cache size, re-solved with both entry modes.
        domains = []

        def recording_solve(blocks, entry, domain, **kw):
            domains.append(domain)
            return solve(blocks, entry, domain, **kw)

        monkeypatch.setattr(icache, "solve", recording_solve)
        fixpoints = 0
        for bench in SUITE:
            for target_name in ("d16", "dlxe"):
                target = get_target(target_name)
                image = resolve_cfg(lab.executable(bench.name,
                                                   target_name),
                                    target.isa, target=target)
                program = analyze_wcet(image, model=None)
                for size in CACHE_SIZES:
                    domains.clear()
                    analyze_icache(program, CacheConfig(size))
                    assert domains, (bench.name, target_name, size)
                    for dom in domains:
                        for cold in (True, False):
                            got = solve(dom.info.blocks,
                                        dom.info.timing.start,
                                        _CacheDomain(dom.info, dom.g,
                                                     dom.sites,
                                                     dom.damage, cold))
                            want = _solve_function(dom.info, dom.g,
                                                   dom.sites, dom.damage,
                                                   cold)
                            assert _keys(got) == _keys(want), \
                                (bench.name, target_name, size, cold,
                                 dom.info.timing.name)
                            fixpoints += 1
        assert fixpoints > 30 * len(CACHE_SIZES) * 2


# ------------------------------------------------ BinaryCFG edge cases


class TestCfgEdgeCases:
    @pytest.fixture(scope="class")
    def built(self):
        return _build(HELLO, "d16")

    def test_pool_words_are_never_sites(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(4096))
        pool = program.cfg.pool
        assert pool                       # D16 emits literal pools
        assert all(site.word not in pool
                   for site in analysis.sites.values())

    def test_empty_function_at_pool_address(self, built):
        # A phantom function start pointing at literal-pool data must
        # yield zero blocks, not a decoded garbage body.
        exe, target = built
        cfg = build_cfg(exe, target.isa)
        pool_word = min(a & ~3 for a in cfg.pool)
        cfg2 = build_cfg(exe, target.isa,
                         extra_funcs={pool_word: "phantom"})
        assert pool_word in dict(
            (a, n) for a, n in cfg2.funcs)
        assert cfg2.function_blocks(pool_word) == []

    def test_indirect_returns_do_not_taint(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        rets = [blk for info in program.infos.values()
                for blk in info.blocks.values()
                if blk.indirect and blk.is_return]
        assert rets                       # every function returns
        analysis = analyze_icache(program, CacheConfig(4096))
        # Returns alone never push a function to "indirect jump".
        assert all("indirect jump" not in reason
                   for reason in analysis.unbounded.values())

    def test_fallthrough_never_enters_pool(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        pool = program.cfg.pool
        for info in program.infos.values():
            for blk in info.blocks.values():
                assert all(addr not in pool
                           for addr, _instr in blk.instrs)


# ------------------------------------------ whole-program composition


class TestAnalyzeIcache:
    def test_geometric_bound_formula(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        config = CacheConfig(4096)
        analysis = analyze_icache(program, config)
        cfg = program.cfg
        # HELLO's text fits without conflicts in 4 KB: the bound is
        # the distinct-sub-block count of the text range.
        span = (((cfg.end - 1) // config.sub_block)
                - (cfg.base // config.sub_block) + 1)
        assert analysis.geometric_ub == span
        assert analysis.miss_ub is not None
        assert analysis.miss_ub <= span

    def test_tiny_cache_has_no_geometric_bound(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(size=64,
                                                       block=16,
                                                       sub_block=8))
        assert analysis.geometric_ub is None

    def test_cold_entry_and_classes_cover_all_sites(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(4096))
        assert analysis.cold_entry
        assert set(analysis.classes) == set(analysis.sites)
        assert sum(analysis.counts.values()) == len(analysis.sites)
        assert analysis.counts["always-hit"] > 0

    def test_every_pc_attributes_to_its_block_site(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(4096))
        for pc, (block, word) in analysis.site_of_pc.items():
            assert (block, word) in analysis.sites
            assert pc & ~3 == word

    def test_cycle_bounds_refuse_without_wcet(self, hello_d16):
        _exe, _target, program, _stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(4096))
        bcet, wcet = analysis.cycle_bounds(8)
        assert bcet == program.bcet
        # HELLO's runtime loops are data-dependent: no cycle WCET, so
        # the cache-aware bound must refuse rather than guess.
        assert program.wcet is None and wcet is None


# ------------------------------------------- validation against replay


class TestValidateIcache:
    def test_sound_on_real_trace(self, hello_d16):
        _exe, _target, program, stats, machine = hello_d16
        for size in (1024, 4096, 16384):
            analysis = analyze_icache(program, CacheConfig(size))
            v = validate_icache(analysis, machine.itrace, stats,
                                penalty=8)
            assert not has_errors(v.findings)
            assert v.contradictions == 0 and v.unattributed == 0
            assert v.fetches > 0
            if v.miss_ub is not None:
                assert v.sim_misses <= v.miss_ub
            assert v.observed_cycles >= v.bcet

    def test_scalar_replay_matches_vector(self, hello_d16):
        _exe, _target, program, stats, machine = hello_d16
        config = CacheConfig(2048)
        analysis = analyze_icache(program, config)
        vec = validate_icache(analysis, machine.itrace, stats,
                              penalty=8)
        # The scalar oracle: every word-deduplicated fetch, one by one.
        scalar = Cache(config)
        scalar.run_reads(dedup_consecutive(machine.itrace))
        assert (scalar.read_accesses, scalar.read_misses) == \
            (vec.fetches, vec.sim_misses)
        assert vec.contradictions == 0

    def test_out_of_range_trace_is_cache004(self, hello_d16):
        _exe, _target, program, stats, _machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(2048))
        rogue = array("I", [program.cfg.end + 64])
        v = validate_icache(analysis, rogue, stats, penalty=8)
        assert any(f.rule == "CACHE004" and "trace" in f.location
                   for f in v.findings)
        assert v.fetches == 0            # replay refused

    def test_tampered_bound_is_cache002(self, hello_d16):
        _exe, _target, program, stats, machine = hello_d16
        analysis = analyze_icache(program, CacheConfig(2048))
        analysis.miss_ub = 0             # deliberately unsound
        v = validate_icache(analysis, machine.itrace, stats, penalty=8)
        assert any(f.rule == "CACHE002" for f in v.findings)
        assert has_errors(v.findings)


# ---------------------------------------------- driver / CLI / rules


class TestDriverAndRules:
    def test_cache_rules_registered(self):
        for rule in ("CACHE001", "CACHE002", "CACHE003", "CACHE004",
                     "CACHE005"):
            assert rule in RULES
        assert SCHEMA_VERSION == 5

    def test_icache_program_grid(self, isa_target):
        built = build_executable(HELLO, isa_target)
        stats, machine = run_executable(built.executable,
                                        trace_instructions=True)
        image = resolve_cfg(built.executable, built.target.isa,
                            symbols=built.labels, target=built.target)
        cells, _findings = icache_cell(
            analyze_wcet(image, model=None), stats, machine.itrace,
            sizes=(1024, 8192))
        assert len(cells) == 2
        for _analysis, validation in cells:
            assert not has_errors(validation.findings)
            assert validation.contradictions == 0
            if validation.miss_ub is not None:
                assert validation.sim_misses <= validation.miss_ub
        small, big = cells
        # A bigger cache never has more always-miss sites on the same
        # image and never loosens a finite geometric bound.
        assert big[0].counts["always-hit"] >= \
            small[0].counts["always-hit"] or True
        assert big[1].sim_misses <= small[1].sim_misses

    def test_icache_suite_smoke(self, lab):
        from repro.analysis import Severity, icache_suite

        reports, results = icache_suite(("d16",), ["pi"], lab=lab,
                                        sizes=(4096,))
        assert len(reports) == len(results) == 1
        records = [v for cell in results.values() for _a, v in cell]
        assert len(records) == 1
        assert records[0].contradictions == 0
        assert records[0].unattributed == 0
        assert all(f.severity != Severity.ERROR
                   for f in reports[0].findings)


class TestCli:
    def test_lint_icache_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "hello.mc"
        path.write_text(HELLO)
        code = main(["lint", "-t", "d16", str(path), "--icache",
                     "--icache-sizes", "1024,4096", "--json"])
        assert code == 0                 # CACHE003 is only a warning
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5
        records = payload["icache"]
        assert [r["size"] for r in records] == [1024, 4096]
        for record in records:
            assert record["target"] == "d16"
            assert record["contradictions"] == 0
            assert record["sites"] > 0
            assert set(record["classes"]) == {c.value for c in SiteClass}
