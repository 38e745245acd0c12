"""Multi-configuration cache simulation equals per-config simulation.

:func:`repro.cache.simulate_caches_grid` replays one pair of traces
through a whole grid of geometries; every configuration's counters must
equal the scalar :class:`~repro.cache.cache.Cache` oracle run on its
own.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (Cache, CacheConfig, simulate_caches,
                         simulate_caches_grid)
from repro.cache.vector import replay_reads
from repro.machine import RunStats

from .test_cache_vector import dedup_consecutive

#: A deliberately heterogeneous grid: several sizes, block sizes and
#: *two* sub-block sizes.
GRID = [CacheConfig(size=size, block=block, sub_block=sub)
        for size in (256, 512, 1024, 4096)
        for block in (8, 16, 32)
        for sub in (4, 8)
        if block >= sub]


#: More than 65,536 lines: the replay sorts on its wide line key.
WIDE = CacheConfig(size=1 << 20, block=8, sub_block=8)


@st.composite
def geometries(draw):
    """One valid geometry: sub-block <= block <= size, powers of two."""
    sub = draw(st.integers(2, 5))
    block = draw(st.integers(sub, 6))
    size = draw(st.integers(block, 13))
    return CacheConfig(size=1 << size, block=1 << block, sub_block=1 << sub)


#: Addresses in a few far-apart regions, so small caches alias and the
#: wide geometry's lines above 65,535 are used.
spread_addresses = st.tuples(
    st.sampled_from([0, 0x8_0000, 0x10_0000, 0x48_0000]),
    st.integers(0, 0x3FFF)).map(sum)


def counters(cache: Cache):
    return (cache.read_accesses, cache.read_misses, cache.write_accesses,
            cache.write_misses, cache.traffic_words)


def random_trace(n, seed, *, tagged=False, span=0x8000):
    rng = random.Random(seed)
    out = []
    addr = 0
    for _ in range(n):
        if rng.random() < 0.7:          # mostly sequential, some jumps
            addr = (addr + 4) % span
        else:
            addr = rng.randrange(0, span, 4)
        entry = addr
        if tagged and rng.random() < 0.3:
            entry |= 1
        out.append(entry)
    return out


def scalar_rates(itrace, dtrace, config):
    """The oracle: one scalar cache per stream, walked access by access."""
    icache, dcache = Cache(config), Cache(config)
    icache.run_reads(dedup_consecutive(itrace))
    dcache.run_tagged(dtrace)
    return (icache.read_misses, icache.traffic_words,
            dcache.read_accesses, dcache.read_misses,
            dcache.write_accesses, dcache.write_misses,
            dcache.traffic_words)


def grid_rates(itrace, dtrace, configs=GRID):
    grid = simulate_caches_grid(itrace, dtrace, RunStats(), configs)
    return {config: (r.imisses, r.itraffic_words, r.reads, r.rmisses,
                     r.writes, r.wmisses, r.dtraffic_words)
            for config, r in grid.items()}


def assert_grid_matches_oracle(itrace, dtrace):
    grid = grid_rates(itrace, dtrace)
    for config in GRID:
        assert grid[config] == scalar_rates(itrace, dtrace, config), config


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_reads_equals_single_cache(self, seed):
        assert_grid_matches_oracle(random_trace(3000, seed), [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_tagged_equals_single_cache(self, seed):
        assert_grid_matches_oracle(
            [], random_trace(3000, seed, tagged=True))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 0x3FFF).map(lambda a: a & ~3),
                    max_size=300))
    def test_property_reads(self, addrs):
        assert_grid_matches_oracle(addrs, [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 0x3FFF).map(lambda a: a & ~2),
                    max_size=300))
    def test_property_tagged(self, stream):
        assert_grid_matches_oracle([], stream)

    @settings(max_examples=40, deadline=None)
    @given(configs=st.lists(geometries(), min_size=1, max_size=8).map(
               lambda configs: configs + [configs[0], WIDE]),
           itrace=st.lists(spread_addresses, max_size=300),
           stream=st.lists(st.tuples(spread_addresses, st.booleans()),
                           max_size=300))
    def test_property_random_grid(self, configs, itrace, stream):
        """Mixed blocks and sub-blocks, sizes out of order, duplicates:
        every geometry equals its own oracle, keyed in first-occurrence
        order."""
        dtrace = [(addr & ~3) | write for addr, write in stream]
        grid = grid_rates(itrace, dtrace, configs)
        assert list(grid) == list(dict.fromkeys(configs))
        for config in configs:
            assert grid[config] == scalar_rates(itrace, dtrace, config), \
                config

    def test_consecutive_same_subblock_fast_path(self):
        """Accesses compressed away as guaranteed hits still count."""
        addrs = [0x100, 0x104, 0x100, 0x104, 0x108]     # one 8B sub-block x2
        for config in GRID:
            vec, single = Cache(config), Cache(config)
            replay_reads(vec, addrs)
            single.run_reads(addrs)
            assert counters(vec) == counters(single)

    def test_duplicate_configs_collapse(self):
        config = CacheConfig(size=512, block=32, sub_block=8)
        grid = simulate_caches_grid([0x100], [0x200], RunStats(),
                                    [config, config])
        assert list(grid) == [config]


class TestGridSimulation:
    def test_simulate_caches_grid_equals_simulate_caches(self):
        itrace = random_trace(4000, 7)
        dtrace = random_trace(1500, 8, tagged=True)
        stats = RunStats(instructions=4000, loads=1000, stores=500)
        grid = simulate_caches_grid(itrace, dtrace, stats, GRID)
        for config in GRID:
            expected = simulate_caches(itrace, dtrace, stats,
                                       icache=config, dcache=config)
            assert grid[config] == expected, config

    def test_grid_walks_trace_once(self):
        """The trace iterables are consumed exactly once (generators)."""
        itrace = iter(random_trace(500, 3))
        dtrace = iter(random_trace(200, 4, tagged=True))
        stats = RunStats(instructions=500, loads=100, stores=50)
        grid = simulate_caches_grid(itrace, dtrace, stats, GRID)
        assert len(grid) == len(set(GRID))

    def test_dedup_interaction(self):
        """Grid I-stream path dedups like the scalar fetch stream."""
        addrs = [0x100, 0x102, 0x104, 0x104, 0x100]
        config = CacheConfig(size=256, block=32, sub_block=8)
        assert grid_rates(addrs, [], [config])[config] == \
            scalar_rates(addrs, [], config)
