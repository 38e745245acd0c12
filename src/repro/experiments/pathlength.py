"""Path length (paper Section 3.2: Figure 5, Figure 7, Figure 9,
Figure 12, Table 7).

Path length is the total dynamic instruction count.  Ratios are
reported relative to D16 = 1.0, so a DLXe value below 1 means DLXe
executes fewer instructions.  The table type is Table 6's
(:mod:`repro.experiments.density`), read from ``path_length``.
"""

from __future__ import annotations

from .density import (MeasureResult, format_measure_figure,
                      format_measure_table, measure_grid)
from .runner import Lab, PAPER_TARGETS


def run_pathlength(lab: Lab, programs=None,
                   targets=PAPER_TARGETS) -> MeasureResult:
    """Measure dynamic instruction counts across configurations."""
    return measure_grid(lab, "path_length", programs, targets)


def format_table7(result: MeasureResult) -> str:
    """Paper Table 7: path length summary."""
    return format_measure_table(
        result, title="Table 7: path length (dynamic instructions)",
        ratio_label="path length ratio (avg)", precision=3)


def format_figure5(result: MeasureResult) -> str:
    """Paper Figure 5: DLXe path length relative to D16."""
    return format_measure_figure(
        result, title="Figure 5: DLXe path length reduction",
        label="DLXe/D16 path ratio", precision=3)
