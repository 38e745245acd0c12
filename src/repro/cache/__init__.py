"""Trace-driven cache simulation (dinero-equivalent substrate)."""

from .cache import Cache, CacheConfig
from .hierarchy import CacheRates, simulate_caches, simulate_caches_grid
from .vector import replay_reads, replay_tagged

__all__ = ["Cache", "CacheConfig", "CacheRates", "replay_reads",
           "replay_tagged", "simulate_caches", "simulate_caches_grid"]
