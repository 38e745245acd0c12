"""Code density (paper Section 3.1: Figure 4, Figure 6, Figure 8,
Figure 11, Table 6).

The density metric is the stripped-binary size in bytes (text + data).
``relative density`` of D16 follows the paper: size(other) / size(D16),
so 1.5 means the DLXe binary is half again as large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from .runner import Lab, PAPER_TARGETS, mean


@dataclass
class DensityRow:
    program: str
    sizes: dict[str, int]            # target -> bytes

    def ratio(self, target: str) -> float:
        """``target``'s measure relative to D16's."""
        return self.sizes[target] / self.sizes["d16"]


@dataclass
class DensityResult:
    rows: list[DensityRow]
    targets: tuple[str, ...]

    def average_ratio(self, target: str) -> float:
        return mean(row.ratio(target) for row in self.rows)


def run_density(lab: Lab, programs=None,
                targets=PAPER_TARGETS) -> DensityResult:
    """Measure static code size across compiler configurations."""
    grid = lab.runs(programs, targets)
    rows = [DensityRow(program=name,
                       sizes={t: grid[name][t].binary_size for t in targets})
            for name in grid]
    return DensityResult(rows=rows, targets=tuple(targets))


def format_table6(result: DensityResult) -> str:
    """Paper Table 6: code size/density summary."""
    headers = ["Program"] + list(result.targets)
    rows = [[row.program] + [row.sizes[t] for t in result.targets]
            for row in result.rows]
    body = format_table(headers, rows,
                        title="Table 6: code size (bytes, stripped binary)")
    ratio_rows = [["relative density (avg)"]
                  + [f"{result.average_ratio(t):.2f}"
                     for t in result.targets]]
    ratios = format_table(headers, ratio_rows)
    return body + "\n" + ratios


def format_figure4(result: DensityResult) -> str:
    """Paper Figure 4: D16 relative density per program (DLXe/D16)."""
    headers = ["Program", "DLXe/D16 size ratio"]
    rows = [[row.program, row.ratio("dlxe")] for row in result.rows]
    rows.append(["average", result.average_ratio("dlxe")])
    return format_table(headers, rows,
                        title="Figure 4: D16 relative density", precision=2)
