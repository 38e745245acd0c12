"""Memory-latency performance, no cache (paper Section 4: Figures 14-15,
Tables 11-12).

Cycle model (Appendix A.2)::

    Cycles = IC + Interlocks + latency * (IRequests + DRequests)

With a 32-bit fetch bus a D16 fetch returns k=2 instructions and a DLXe
fetch k=1; a 64-bit bus doubles both.  Normalized CPI divides D16's
cycles by the *DLXe* instruction count so the path-length difference is
factored out (the paper's "D16 normalized" curves).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cc.target import MAIN_TARGETS
from ..machine.perf import (cycles_no_cache, fetches_per_cycle,
                             normalized_cpi)
from .report import format_series, format_table
from .runner import Lab, mean

WAIT_STATES = (0, 1, 2, 3)


@dataclass
class MemPerfRow:
    program: str
    bus_bits: int
    d16_cycles: dict[int, int]       # wait states -> cycles
    dlxe_cycles: dict[int, int]
    d16_instructions: int
    dlxe_instructions: int
    d16_fetch_rates: dict[int, float]    # wait states -> fetches/cycle
    dlxe_fetch_rates: dict[int, float]

    def ratio(self, latency: int) -> float:
        """DLXe/D16 cycle ratio (paper Tables 11-12)."""
        return self.dlxe_cycles[latency] / self.d16_cycles[latency]


@dataclass
class MemPerfResult:
    bus_bits: int
    rows: list[MemPerfRow]

    def mean_ratio(self, latency: int) -> float:
        return mean(row.ratio(latency) for row in self.rows)

    def mean_cpi(self, machine: str, latency: int,
                 normalized: bool = False) -> float:
        values = []
        for row in self.rows:
            if machine == "d16":
                cycles = row.d16_cycles[latency]
                denom = (row.dlxe_instructions if normalized
                         else row.d16_instructions)
            else:
                cycles = row.dlxe_cycles[latency]
                denom = row.dlxe_instructions
            values.append(normalized_cpi(cycles, denom))
        return mean(values)


def run_memperf(lab: Lab, programs=None, *,
                bus_bits: int = 32) -> MemPerfResult:
    """Sweep memory wait states for cacheless D16 and DLXe machines."""
    grid = lab.runs(programs, MAIN_TARGETS)
    rows = []
    for name, runs in grid.items():
        d16, dlxe = runs["d16"].stats, runs["dlxe"].stats
        rows.append(MemPerfRow(
            program=name, bus_bits=bus_bits,
            d16_cycles={ws: cycles_no_cache(d16, latency=ws,
                                            bus_bits=bus_bits)
                        for ws in WAIT_STATES},
            dlxe_cycles={ws: cycles_no_cache(dlxe, latency=ws,
                                             bus_bits=bus_bits)
                         for ws in WAIT_STATES},
            d16_instructions=d16.instructions,
            dlxe_instructions=dlxe.instructions,
            d16_fetch_rates={ws: fetches_per_cycle(d16, latency=ws,
                                                   bus_bits=bus_bits)
                             for ws in WAIT_STATES},
            dlxe_fetch_rates={ws: fetches_per_cycle(dlxe, latency=ws,
                                                    bus_bits=bus_bits)
                              for ws in WAIT_STATES}))
    return MemPerfResult(bus_bits=bus_bits, rows=rows)


def format_tables_11_12(result: MemPerfResult) -> str:
    """Tables 11/12: DLXe/D16 cycle ratios per wait state."""
    wait_states = sorted(result.rows[0].d16_cycles)
    headers = ["Program"] + [f"ws={ws}" for ws in wait_states]
    rows = [[row.program] + [row.ratio(ws) for ws in wait_states]
            for row in result.rows]
    rows.append(["mean"] + [result.mean_ratio(ws) for ws in wait_states])
    number = 11 if result.bus_bits == 32 else 12
    return format_table(
        headers, rows, precision=2,
        title=f"Table {number}: DLXe/D16 cycles, {result.bus_bits}-bit "
              "fetch bus, no cache")


def format_figure14(result32: MemPerfResult,
                    result64: MemPerfResult) -> str:
    """Figure 14: normalized CPI vs wait states, both bus widths."""
    wait_states = sorted(result32.rows[0].d16_cycles)
    parts = []
    for result in (result32, result64):
        k_dlxe = result.bus_bits // 32
        k_d16 = result.bus_bits // 16
        series = {
            f"DLXe k={k_dlxe}": [result.mean_cpi("dlxe", ws)
                                 for ws in wait_states],
            f"D16 k={k_d16}": [result.mean_cpi("d16", ws)
                               for ws in wait_states],
            "D16 normalized": [result.mean_cpi("d16", ws, normalized=True)
                               for ws in wait_states],
        }
        parts.append(format_series(
            f"Figure 14 ({result.bus_bits}-bit fetch, no cache): CPI",
            "wait states", list(wait_states), series))
    return "\n\n".join(parts)


def format_figure15(result32: MemPerfResult,
                    result64: MemPerfResult) -> str:
    """Figure 15: instruction-fetch bus saturation (fetches/cycle)."""
    wait_states = sorted(result32.rows[0].d16_cycles)
    parts = []
    for result in (result32, result64):
        series = {
            "DLXe": [mean(row.dlxe_fetch_rates[ws] for row in result.rows)
                     for ws in wait_states],
            "D16": [mean(row.d16_fetch_rates[ws] for row in result.rows)
                    for ws in wait_states],
        }
        parts.append(format_series(
            f"Figure 15 ({result.bus_bits}-bit fetch): fetches per cycle",
            "wait states", list(wait_states), series))
    return "\n\n".join(parts)
