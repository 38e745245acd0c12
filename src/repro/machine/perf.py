"""The paper's performance formulas (Section 4 and Appendix A.2/A.3).

Cacheless machine with ``latency`` wait states per memory transaction::

    Cycles = IC + Interlocks + latency * (IRequests + DRequests)

where IRequests counts word (32-bit bus) or doubleword (64-bit bus)
instruction-fetch transactions and DRequests counts loads+stores.

Machine with split I/D caches and a miss penalty::

    Cycles = IC + Interlocks + MissPenalty * (IMiss + RMiss + WMiss)

``normalized_cpi`` divides cycles by a *reference* instruction count so
machines with different path lengths can be compared directly — the
paper normalizes D16 cycle counts by the DLXe path length in Figures 14,
17 and 18.  Every CPI the program reports goes through it, a machine's
own path length as the reference included (``repro run --stats``, the
DLXe and D16 series of Figures 14, 17 and 18).

These are the only cycle formulas: the experiments, ``repro run`` and
the static I-cache validation (:mod:`repro.analysis.icache`, with
:data:`DEFAULT_MISS_PENALTY` unless told otherwise) all call them.
"""

from __future__ import annotations

from .stats import RunStats

#: The miss penalty (cycles) of cache-aware cycle counts when none is
#: given: the middle of the cache experiments' penalty grid.
DEFAULT_MISS_PENALTY = 8


def cycles_no_cache(stats: RunStats, *, latency: int,
                    bus_bits: int = 32) -> int:
    """Total cycles for a cacheless machine (paper Appendix A.2)."""
    if bus_bits == 32:
        ifetches = stats.ifetch_words
    elif bus_bits == 64:
        ifetches = stats.ifetch_dwords
    else:
        raise ValueError(f"unsupported bus width {bus_bits}")
    return (stats.instructions + stats.interlocks
            + latency * (ifetches + stats.mem_ops))


def cycles_with_cache(stats: RunStats, *, miss_penalty: int,
                      imisses: int, rmisses: int, wmisses: int) -> int:
    """Total cycles for a machine with split I/D caches (Appendix A.3)."""
    return (stats.instructions + stats.interlocks
            + miss_penalty * (imisses + rmisses + wmisses))


def normalized_cpi(cycles: int, reference_instructions: int) -> float:
    """Cycles divided by a reference path length (factor out IC)."""
    return cycles / reference_instructions if reference_instructions else 0.0


def fetches_per_cycle(stats: RunStats, *, latency: int,
                      bus_bits: int = 32) -> float:
    """Instruction-fetch bus transactions per cycle (paper Figure 15)."""
    total = cycles_no_cache(stats, latency=latency, bus_bits=bus_bits)
    requests = (stats.ifetch_words if bus_bits == 32
                else stats.ifetch_dwords)
    return requests / total if total else 0.0
