"""Instruction traffic and interlocks (paper Figure 13, Tables 8-10).

Instruction traffic counts word-aligned 32-bit fetch transactions: one
per DLXe instruction, and one per *word* of D16 instructions actually
entered (branch alignment makes D16 traffic more than half its path
length, exactly as the paper notes under Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from ..cc.target import MAIN_TARGETS
from .runner import Lab, mean


@dataclass
class TrafficRow:
    program: str
    d16_path: int
    dlxe_path: int
    d16_traffic: int         # 32-bit-bus fetch transactions
    dlxe_traffic: int
    d16_size: int
    dlxe_size: int

    @property
    def traffic_saving(self) -> float:
        """% fewer fetch words for D16 (paper Table 8's % column)."""
        return (1.0 - self.d16_traffic / self.dlxe_traffic) * 100.0

    @property
    def traffic_ratio(self) -> float:
        """DLXe/D16 traffic (Figure 13, 'Instruction Traffic' bars)."""
        return self.dlxe_traffic / self.d16_traffic

    @property
    def size_ratio(self) -> float:
        """DLXe/D16 static size (Figure 13, 'Static Size' bars)."""
        return self.dlxe_size / self.d16_size


@dataclass
class TrafficResult:
    rows: list[TrafficRow]

    @property
    def average_saving(self) -> float:
        return mean(row.traffic_saving for row in self.rows)


def run_traffic(lab: Lab, programs=None) -> TrafficResult:
    grid = lab.runs(programs, MAIN_TARGETS)
    rows = []
    for name, runs in grid.items():
        d16, dlxe = runs["d16"], runs["dlxe"]
        rows.append(TrafficRow(
            program=name,
            d16_path=d16.path_length, dlxe_path=dlxe.path_length,
            d16_traffic=d16.stats.ifetch_words,
            dlxe_traffic=dlxe.stats.ifetch_words,
            d16_size=d16.binary_size, dlxe_size=dlxe.binary_size))
    return TrafficResult(rows=rows)


def format_table8(result: TrafficResult) -> str:
    headers = ["Program", "D16 path", "DLXe path",
               "D16 words", "DLXe words", "% saved"]
    rows = [[row.program, row.d16_path, row.dlxe_path,
             row.d16_traffic, row.dlxe_traffic,
             f"{row.traffic_saving:.1f}"] for row in result.rows]
    rows.append(["average", "", "", "", "",
                 f"{result.average_saving:.1f}"])
    return format_table(headers, rows,
                        title="Table 8: path length and instruction "
                              "traffic (32-bit words)")


def format_figure13(result: TrafficResult) -> str:
    """Figure 13: instruction traffic vs static size, DLXe/D16.

    Steenkiste's uniformity assumption holds when the two bars track."""
    headers = ["Program", "traffic DLXe/D16", "size DLXe/D16"]
    rows = [[row.program, row.traffic_ratio, row.size_ratio]
            for row in result.rows]
    rows.append(["average",
                 mean(r.traffic_ratio for r in result.rows),
                 mean(r.size_ratio for r in result.rows)])
    return format_table(headers, rows,
                        title="Figure 13: traffic vs density (DLXe/D16)",
                        precision=2)


# --------------------------------------------------------------- interlocks


@dataclass
class InterlockRow:
    program: str
    d16_instructions: int
    d16_interlocks: int
    dlxe_instructions: int
    dlxe_interlocks: int

    @property
    def d16_rate(self) -> float:
        return self.d16_interlocks / self.d16_instructions

    @property
    def dlxe_rate(self) -> float:
        return self.dlxe_interlocks / self.dlxe_instructions


def run_interlocks(lab: Lab, programs=None) -> list[InterlockRow]:
    """Table 10: delayed-load and math-unit interlocks."""
    grid = lab.runs(programs, MAIN_TARGETS)
    rows = []
    for name, runs in grid.items():
        rows.append(InterlockRow(
            program=name,
            d16_instructions=runs["d16"].path_length,
            d16_interlocks=runs["d16"].stats.interlocks,
            dlxe_instructions=runs["dlxe"].path_length,
            dlxe_interlocks=runs["dlxe"].stats.interlocks))
    return rows


def format_table10(rows: list[InterlockRow]) -> str:
    headers = ["Program", "D16 instrs", "D16 ilocks", "D16 rate",
               "DLXe instrs", "DLXe ilocks", "DLXe rate"]
    body = [[row.program, row.d16_instructions, row.d16_interlocks,
             f"{row.d16_rate:.3f}", row.dlxe_instructions,
             row.dlxe_interlocks, f"{row.dlxe_rate:.3f}"] for row in rows]
    body.append(["mean", "", "", f"{mean(r.d16_rate for r in rows):.3f}",
                 "", "", f"{mean(r.dlxe_rate for r in rows):.3f}"])
    return format_table(headers, body,
                        title="Table 10: delayed-load and math-unit "
                              "interlocks")
