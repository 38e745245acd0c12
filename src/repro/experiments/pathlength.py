"""Path length (paper Section 3.2: Figure 5, Figure 7, Figure 9,
Figure 12, Table 7).

Path length is the total dynamic instruction count.  Ratios are
reported relative to D16 = 1.0, so a DLXe value below 1 means DLXe
executes fewer instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from .runner import Lab, PAPER_TARGETS, mean


@dataclass
class PathLengthRow:
    program: str
    counts: dict[str, int]           # target -> instructions

    def ratio(self, target: str) -> float:
        """``target``'s measure relative to D16's."""
        return self.counts[target] / self.counts["d16"]


@dataclass
class PathLengthResult:
    rows: list[PathLengthRow]
    targets: tuple[str, ...]

    def average_ratio(self, target: str) -> float:
        return mean(row.ratio(target) for row in self.rows)


def run_pathlength(lab: Lab, programs=None,
                   targets=PAPER_TARGETS) -> PathLengthResult:
    """Measure dynamic instruction counts across configurations."""
    grid = lab.runs(programs, targets)
    rows = [PathLengthRow(
        program=name,
        counts={t: grid[name][t].path_length for t in targets})
        for name in grid]
    return PathLengthResult(rows=rows, targets=tuple(targets))


def format_table7(result: PathLengthResult) -> str:
    """Paper Table 7: path length summary."""
    headers = ["Program"] + list(result.targets)
    rows = [[row.program] + [row.counts[t] for t in result.targets]
            for row in result.rows]
    body = format_table(headers, rows, title="Table 7: path length "
                                             "(dynamic instructions)")
    ratio_rows = [["path length ratio (avg)"]
                  + [f"{result.average_ratio(t):.3f}"
                     for t in result.targets]]
    ratios = format_table(headers, ratio_rows)
    return body + "\n" + ratios


def format_figure5(result: PathLengthResult) -> str:
    """Paper Figure 5: DLXe path length relative to D16."""
    headers = ["Program", "DLXe/D16 path ratio"]
    rows = [[row.program, row.ratio("dlxe")] for row in result.rows]
    rows.append(["average", result.average_ratio("dlxe")])
    return format_table(headers, rows,
                        title="Figure 5: DLXe path length reduction",
                        precision=3)
