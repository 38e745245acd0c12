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
from . import vector
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

    @property
    def total_misses(self) -> int:
        return self.imisses + self.rmisses + self.wmisses


def simulate_caches(itrace, dtrace, stats: RunStats, *,
                    icache: CacheConfig, dcache: CacheConfig) -> CacheRates:
    """Run recorded traces through split I/D caches.

    The I-stream is word-deduplicated first (see
    :func:`~repro.cache.vector.dedup_words`).
    """
    icache_sim = Cache(icache)
    dcache_sim = Cache(dcache)
    vector.replay_reads(icache_sim, itrace, dedup=True)
    vector.replay_tagged(dcache_sim, dtrace)
    return _rates(stats, icache_sim, dcache_sim)


def _rates(stats: RunStats, icache_sim: Cache,
           dcache_sim: Cache) -> CacheRates:
    return CacheRates(
        instructions=stats.instructions,
        imisses=icache_sim.read_misses,
        rmisses=dcache_sim.read_misses,
        wmisses=dcache_sim.write_misses,
        reads=dcache_sim.read_accesses,
        writes=dcache_sim.write_accesses,
        itraffic_words=icache_sim.traffic_words,
        dtraffic_words=dcache_sim.traffic_words,
    )


def simulate_caches_grid(itrace, dtrace, stats: RunStats,
                         configs) -> dict[CacheConfig, CacheRates]:
    """Run traces through a whole grid of geometries.

    Equivalent to calling :func:`simulate_caches` once per config (same
    geometry for the I- and D-cache, the paper's setup), but the traces
    are converted and the I-stream deduplicated once for the whole grid.
    """
    iaddrs = vector.dedup_words(vector.as_addresses(itrace))
    daddrs = vector.as_addresses(dtrace)
    result = {}
    for config in configs:
        icache_sim = Cache(config)
        dcache_sim = Cache(config)
        vector.replay_reads(icache_sim, iaddrs)
        vector.replay_tagged(dcache_sim, daddrs)
        result[config] = _rates(stats, icache_sim, dcache_sim)
    return result
