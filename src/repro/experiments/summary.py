"""Combined feature effects (paper Section 3.4: Figures 11-12, Table 5).

Table 5 cross-tabulates average code-size and path-length ratios over
the four DLXe ablation corners: {16, 32} registers x {two, three}
addresses, all relative to D16 = 1.00.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density import MeasureResult, run_density
from .pathlength import run_pathlength
from .report import format_table
from .runner import Lab, PAPER_TARGETS

#: (registers, addresses) -> target name
CORNERS = {
    (16, 2): "dlxe/16/2",
    (16, 3): "dlxe/16/3",
    (32, 2): "dlxe/32/2",
    (32, 3): "dlxe",
}


@dataclass
class SummaryResult:
    density: MeasureResult
    pathlength: MeasureResult

    def code_size_ratio(self, regs: int, addrs: int) -> float:
        return self.density.average_ratio(CORNERS[(regs, addrs)])

    def path_ratio(self, regs: int, addrs: int) -> float:
        return self.pathlength.average_ratio(CORNERS[(regs, addrs)])


def run_summary(lab: Lab, programs=None) -> SummaryResult:
    density = run_density(lab, programs, PAPER_TARGETS)
    pathlength = run_pathlength(lab, programs, PAPER_TARGETS)
    return SummaryResult(density=density, pathlength=pathlength)


def format_table5(result: SummaryResult) -> str:
    """Paper Table 5: density and path-length effects (D16 = 1.00)."""
    headers = ["Registers", "Size 2-addr", "Size 3-addr",
               "Path 2-addr", "Path 3-addr"]
    rows = []
    for regs in (16, 32):
        rows.append([
            regs,
            result.code_size_ratio(regs, 2),
            result.code_size_ratio(regs, 3),
            result.path_ratio(regs, 2),
            result.path_ratio(regs, 3),
        ])
    return format_table(headers, rows,
                        title="Table 5: density and path length "
                              "(D16 = 1.00)", precision=2)


def format_figures_11_12(result: SummaryResult) -> str:
    """Figures 11/12: per-program ratios for each ablation corner."""
    targets = ["dlxe/16/2", "dlxe/16/3", "dlxe/32/2", "dlxe"]
    headers = ["Program"] + [f"size {t}" for t in targets] \
        + [f"path {t}" for t in targets]
    path_by_name = {row.program: row for row in result.pathlength.rows}
    rows = []
    for drow in result.density.rows:
        prow = path_by_name[drow.program]
        rows.append([drow.program]
                    + [drow.ratio(t) for t in targets]
                    + [prow.ratio(t) for t in targets])
    return format_table(headers, rows,
                        title="Figures 11-12: code density and path "
                              "length summary (ratios vs D16)",
                        precision=2)
