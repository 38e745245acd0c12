"""Code density (paper Section 3.1: Figure 4, Figure 6, Figure 8,
Figure 11, Table 6).

The density metric is the stripped-binary size in bytes (text + data).
``relative density`` of D16 follows the paper: size(other) / size(D16),
so 1.5 means the DLXe binary is half again as large.

The per-program table type here also holds Table 7's path lengths
(:mod:`repro.experiments.pathlength`): both tables read one measure of
every grid cell and report it relative to D16.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from .runner import Lab, PAPER_TARGETS, mean


@dataclass
class MeasureRow:
    program: str
    values: dict[str, int]           # target -> bytes or instructions

    def ratio(self, target: str) -> float:
        """``target``'s measure relative to D16's."""
        return self.values[target] / self.values["d16"]


@dataclass
class MeasureResult:
    rows: list[MeasureRow]
    targets: tuple[str, ...]

    def average_ratio(self, target: str) -> float:
        return mean(row.ratio(target) for row in self.rows)


def measure_grid(lab: Lab, measure: str, programs,
                 targets) -> MeasureResult:
    """Read the ``measure`` attribute of every run in the grid."""
    grid = lab.runs(programs, targets)
    rows = [MeasureRow(program=name,
                       values={t: getattr(grid[name][t], measure)
                               for t in targets})
            for name in grid]
    return MeasureResult(rows=rows, targets=tuple(targets))


def format_measure_table(result: MeasureResult, *, title: str,
                         ratio_label: str, precision: int) -> str:
    """Per-program values, then the average ratio to D16 per target."""
    headers = ["Program"] + list(result.targets)
    rows = [[row.program] + [row.values[t] for t in result.targets]
            for row in result.rows]
    body = format_table(headers, rows, title=title)
    ratio_rows = [[ratio_label]
                  + [f"{result.average_ratio(t):.{precision}f}"
                     for t in result.targets]]
    return body + "\n" + format_table(headers, ratio_rows)


def format_measure_figure(result: MeasureResult, *, title: str,
                          label: str, precision: int) -> str:
    """Each program's DLXe/D16 ratio, then their average."""
    rows = [[row.program, row.ratio("dlxe")] for row in result.rows]
    rows.append(["average", result.average_ratio("dlxe")])
    return format_table(["Program", label], rows, title=title,
                        precision=precision)


def run_density(lab: Lab, programs=None,
                targets=PAPER_TARGETS) -> MeasureResult:
    """Measure static code size across compiler configurations."""
    return measure_grid(lab, "binary_size", programs, targets)


def format_table6(result: MeasureResult) -> str:
    """Paper Table 6: code size/density summary."""
    return format_measure_table(
        result, title="Table 6: code size (bytes, stripped binary)",
        ratio_label="relative density (avg)", precision=2)


def format_figure4(result: MeasureResult) -> str:
    """Paper Figure 4: D16 relative density per program (DLXe/D16)."""
    return format_measure_figure(
        result, title="Figure 4: D16 relative density",
        label="DLXe/D16 size ratio", precision=2)
