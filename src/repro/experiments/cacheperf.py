"""Cache experiments (paper Section 4.1 and Appendix A.3: Figures 16-19,
Tables 13-16).

The three cache programs (assem, latex, ipl) run once per ISA with full
address tracing; the traces then drive direct-mapped, sub-blocked split
I/D caches across the paper's parameter grid (sizes 1K-16K, block sizes
8-64, 8-byte sub-blocks, wrap-around read prefetch).

Cycle model with caches (Appendix A.3)::

    Cycles = IC + Interlocks + MissPenalty * (IMiss + RMiss + WMiss)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache import CacheConfig, CacheRates, simulate_caches_grid
from ..cc.target import MAIN_TARGETS
from ..machine.perf import cycles_with_cache, normalized_cpi
from .report import format_series, format_table
from .runner import Lab, TraceRun

CACHE_PROGRAMS = ("assem", "latex", "ipl")
CACHE_SIZES = (1024, 2048, 4096, 8192, 16384)
BLOCK_SIZES = (8, 16, 32, 64)
SUB_BLOCK = 8
MISS_PENALTIES = (4, 8, 12, 16)
#: The block size Figures 16-19 plot, and Figure 19's miss penalty.
FIGURE_BLOCK = 32
FIGURE19_PENALTY = 4


@dataclass
class CachePoint:
    """Miss rates for one (program, ISA, size, block) cell."""

    program: str
    target: str
    size: int
    block: int
    rates: CacheRates

    @property
    def key(self):
        return (self.program, self.target, self.size, self.block)


@dataclass
class CacheStudy:
    """All measurements for a grid of cache configurations."""

    points: dict[tuple, CachePoint]
    traces: dict[tuple[str, str], TraceRun]

    def point(self, program: str, target: str, size: int,
              block: int) -> CachePoint:
        return self.points[(program, target, size, block)]

    def cycles(self, program: str, target: str, size: int, block: int,
               penalty: int) -> int:
        rates = self.point(program, target, size, block).rates
        return cycles_with_cache(
            self.traces[(program, target)].run.stats, miss_penalty=penalty,
            imisses=rates.imisses, rmisses=rates.rmisses,
            wmisses=rates.wmisses)


def grid_configs(sizes=CACHE_SIZES, blocks=BLOCK_SIZES) -> list[CacheConfig]:
    """The paper's size x block parameter grid as CacheConfig objects."""
    return [CacheConfig(size=size, block=block, sub_block=SUB_BLOCK)
            for size in sizes for block in blocks if block >= SUB_BLOCK]


def run_cache_study(lab: Lab, programs=CACHE_PROGRAMS, *,
                    sizes=CACHE_SIZES, blocks=BLOCK_SIZES) -> CacheStudy:
    """Simulate the cache grid over D16 and DLXe traced runs.

    Each trace is converted once for the whole size x block grid and
    replayed per geometry by :func:`repro.cache.simulate_caches_grid`.
    """
    configs = grid_configs(sizes, blocks)
    points: dict[tuple, CachePoint] = {}
    traces: dict[tuple[str, str], TraceRun] = {}
    for program in programs:
        for target in MAIN_TARGETS:
            trace = lab.trace(program, target)
            traces[(program, target)] = trace
            rates_by_config = simulate_caches_grid(
                trace.itrace, trace.dtrace, trace.run.stats, configs)
            for config, rates in rates_by_config.items():
                point = CachePoint(program=program, target=target,
                                   size=config.size, block=config.block,
                                   rates=rates)
                points[point.key] = point
    return CacheStudy(points=points, traces=traces)


# ------------------------------------------------------------- Table 13


def format_table13(study: CacheStudy) -> str:
    headers = ["Program", "ISA", "IC", "ilock rate", "I fetches",
               "D reads", "D writes"]
    rows = []
    for (program, target), trace in sorted(study.traces.items()):
        stats = trace.run.stats
        rows.append([program, target, stats.instructions,
                     f"{stats.interlock_rate:.3f}",
                     stats.ifetch_words, stats.loads, stats.stores])
    return format_table(headers, rows,
                        title="Table 13: traffic and interlocks for "
                              "cache benchmarks")


# --------------------------------------------------------- Tables 14-16


def format_miss_rate_table(study: CacheStudy, program: str) -> str:
    """Tables 14-16: miss rates across the size x block grid."""
    headers = ["Size", "Block", "I D16", "I DLXe", "R D16", "R DLXe",
               "W D16", "W DLXe"]
    rows = []
    sizes = sorted({key[2] for key in study.points
                    if key[0] == program})
    blocks = sorted({key[3] for key in study.points
                     if key[0] == program})
    for size in sizes:
        for block in blocks:
            d16 = study.point(program, "d16", size, block).rates
            dlxe = study.point(program, "dlxe", size, block).rates
            rows.append([f"{size // 1024}k", block,
                         d16.imiss_rate, dlxe.imiss_rate,
                         d16.rmiss_rate, dlxe.rmiss_rate,
                         d16.wmiss_rate, dlxe.wmiss_rate])
    return format_table(headers, rows, precision=3,
                        title=f"Tables 14-16: cache miss rates for "
                              f"{program}")


# ------------------------------------------------------------- Figure 16


def format_figure16(study: CacheStudy) -> str:
    """Figure 16: instruction-cache miss rates vs size."""
    block = FIGURE_BLOCK
    parts = []
    programs = sorted({key[0] for key in study.points})
    sizes = sorted({key[2] for key in study.points})
    for program in programs:
        series = {
            "D16": [study.point(program, "d16", s, block).rates.imiss_rate
                    for s in sizes],
            "DLXe": [study.point(program, "dlxe", s, block).rates.imiss_rate
                     for s in sizes],
        }
        parts.append(format_series(
            f"Figure 16 ({program}): I-cache miss rate per instruction",
            "size", [f"{s // 1024}K" for s in sizes], series))
    return "\n\n".join(parts)


# --------------------------------------------------------- Figures 17-18


def format_figures_17_18(study: CacheStudy, *, size: int) -> str:
    """Figures 17 (4K caches) and 18 (16K): CPI vs miss penalty."""
    figure = 17 if size == 4096 else 18
    block, penalties = FIGURE_BLOCK, MISS_PENALTIES
    parts = []
    programs = sorted({key[0] for key in study.points})
    for program in programs:
        dlxe_ic = study.traces[(program, "dlxe")].run.stats.instructions
        d16_ic = study.traces[(program, "d16")].run.stats.instructions

        def cpi(target: str, reference: int) -> list[float]:
            return [normalized_cpi(study.cycles(program, target, size,
                                                block, p), reference)
                    for p in penalties]

        series = {"DLXe": cpi("dlxe", dlxe_ic), "D16": cpi("d16", d16_ic),
                  "D16 normalized": cpi("d16", dlxe_ic)}
        parts.append(format_series(
            f"Figure {figure} ({program}, {size // 1024}K caches): CPI",
            "miss penalty", list(penalties), series))
    return "\n\n".join(parts)


# ------------------------------------------------------------- Figure 19


def format_figure19(study: CacheStudy) -> str:
    """Figure 19: instruction traffic in words/cycle vs cache size."""
    block, penalty = FIGURE_BLOCK, FIGURE19_PENALTY
    parts = []
    programs = sorted({key[0] for key in study.points})
    sizes = sorted({key[2] for key in study.points})
    for program in programs:
        series = {"D16": [], "DLXe": []}
        for target in MAIN_TARGETS:
            label = "D16" if target == "d16" else "DLXe"
            for size in sizes:
                point = study.point(program, target, size, block)
                cycles = study.cycles(program, target, size, block,
                                      penalty)
                series[label].append(
                    point.rates.itraffic_words / cycles)
        parts.append(format_series(
            f"Figure 19 ({program}): I-traffic words/cycle "
            f"(penalty {penalty})",
            "size", [f"{s // 1024}K" for s in sizes], series))
    return "\n\n".join(parts)
