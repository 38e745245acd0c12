"""Split instruction/data cache hierarchy driven by execution traces.

The paper's cache experiments (Section 4.1, Appendix A.3) use separate
on-chip direct-mapped instruction and data caches.  Miss rates are
reported *per instruction* for the I-cache and per read/write
instruction for the D-cache ("miss rates are reported per instruction,
not per fetch request").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.stats import RunStats
from .cache import Cache, CacheConfig


@dataclass(frozen=True)
class CacheRates:
    """Per-instruction miss rates and traffic of one simulation."""

    instructions: int
    imisses: int
    rmisses: int
    wmisses: int
    reads: int
    writes: int
    itraffic_words: int
    dtraffic_words: int

    @property
    def imiss_rate(self) -> float:
        """I-cache misses per executed instruction (paper's convention)."""
        return self.imisses / self.instructions if self.instructions else 0.0

    @property
    def rmiss_rate(self) -> float:
        """D-cache read misses per data-read instruction."""
        return self.rmisses / self.reads if self.reads else 0.0

    @property
    def wmiss_rate(self) -> float:
        """D-cache write misses per data-write instruction."""
        return self.wmisses / self.writes if self.writes else 0.0


def simulate_caches(itrace, dtrace, stats: RunStats, *,
                    icache: CacheConfig, dcache: CacheConfig) -> CacheRates:
    """Run recorded traces through split I/D caches.

    The I-stream is word-deduplicated first (see
    :func:`~repro.cache.vector.dedup_words`).
    """
    from . import vector

    icache_sim = Cache(icache)
    dcache_sim = Cache(dcache)
    vector.replay_reads(icache_sim, itrace, dedup=True)
    vector.replay_tagged(dcache_sim, dtrace)
    return _rates(stats, icache_sim, dcache_sim,
                  reads=dcache_sim.read_accesses,
                  writes=dcache_sim.write_accesses)


def _rates(stats: RunStats, icache_sim: Cache, dcache_sim: Cache, *,
           reads: int, writes: int) -> CacheRates:
    return CacheRates(
        instructions=stats.instructions,
        imisses=icache_sim.read_misses,
        rmisses=dcache_sim.read_misses,
        wmisses=dcache_sim.write_misses,
        reads=reads,
        writes=writes,
        itraffic_words=icache_sim.traffic_words,
        dtraffic_words=dcache_sim.traffic_words,
    )


def simulate_caches_grid(itrace, dtrace, stats: RunStats,
                         configs) -> dict[CacheConfig, CacheRates]:
    """Run traces through a whole grid of geometries.

    Equivalent to calling :func:`simulate_caches` once per config (same
    geometry for the I- and D-cache, the paper's setup), keyed in the
    order configs first occur.  Each trace is converted, deduplicated
    and collapsed (:func:`~repro.cache.vector.collapse`, at the
    smallest sub-block of the grid) once.  Configs sharing a block and
    sub-block form a chain walked in ascending size: every size
    replays only the previous size's first demands.  That is exact
    because doubling a direct-mapped cache's lines at a fixed block
    size splits each line's references in two, so every tag epoch of
    the smaller cache lies inside one epoch of the larger and every
    repeat hit it dropped is a repeat hit there too.  Access counts
    come from the full streams.
    """
    from . import vector

    configs = list(dict.fromkeys(configs))
    if not configs:
        return {}
    iaddrs = vector.dedup_words(vector.as_addresses(itrace))
    daddrs = vector.as_addresses(dtrace)
    writes = int((daddrs & 1).sum())
    reads = daddrs.size - writes
    smallest = min(config.sub_block for config in configs)
    icollapsed = vector.collapse(iaddrs, smallest)
    dcollapsed = vector.collapse(daddrs, smallest)
    chains: dict[tuple[int, int], list[CacheConfig]] = {}
    for config in sorted(configs, key=lambda c: c.size):
        chains.setdefault((config.block, config.sub_block),
                          []).append(config)
    rates = {}
    for chain in chains.values():
        istream, dstream = icollapsed, dcollapsed
        for config in chain:
            icache_sim = Cache(config)
            dcache_sim = Cache(config)
            istream = istream[vector.replay_reads(icache_sim, istream)]
            dstream = dstream[vector.replay_tagged(dcache_sim, dstream)]
            rates[config] = _rates(stats, icache_sim, dcache_sim,
                                   reads=reads, writes=writes)
    return {config: rates[config] for config in configs}
