"""Trace-driven cache simulation (dinero-equivalent substrate).

The numpy replay (:mod:`repro.cache.vector`) is imported where a trace
is replayed, so reading cached results loads no numpy.
"""

from .cache import Cache, CacheConfig
from .hierarchy import CacheRates, simulate_caches, simulate_caches_grid

__all__ = ["Cache", "CacheConfig", "CacheRates", "simulate_caches",
           "simulate_caches_grid"]
