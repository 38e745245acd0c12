"""Experiment harness: one module per paper section (see DESIGN.md)."""

from .runner import (ExperimentError, Lab, MAIN_TARGETS, PAPER_TARGETS,
                     ProgramRun, RunError, TraceRun, default_programs, mean)
from .density import MeasureResult, format_figure4, format_table6, run_density
from .pathlength import format_figure5, format_table7, run_pathlength
from .summary import (SummaryResult, format_figures_11_12, format_table5,
                      run_summary)
from .features import (DataTrafficResult, ImmediateBreakdown,
                       format_figures_6_7, format_table3, format_table4,
                       format_table9, run_data_traffic, run_immediates)
from .traffic import (InterlockRow, TrafficResult, format_figure13,
                      format_table8, format_table10, run_interlocks,
                      run_traffic)
from .memperf import (MemPerfResult, format_figure14, format_figure15,
                      format_tables_11_12, run_memperf)
from .cacheperf import (CACHE_PROGRAMS, CacheStudy, format_figure16,
                        format_figure19, format_figures_17_18,
                        format_miss_rate_table, format_table13,
                        grid_configs, run_cache_study)

__all__ = [
    "CACHE_PROGRAMS", "CacheStudy", "DataTrafficResult", "ExperimentError",
    "ImmediateBreakdown", "InterlockRow", "Lab", "MAIN_TARGETS",
    "MeasureResult", "MemPerfResult", "PAPER_TARGETS",
    "ProgramRun", "RunError",
    "SummaryResult", "TraceRun", "TrafficResult", "default_programs",
    "format_figure4", "format_figure5", "format_figure13",
    "format_figure14", "format_figure15", "format_figure16",
    "format_figure19", "format_figures_11_12", "format_figures_17_18",
    "format_figures_6_7", "format_miss_rate_table", "format_table3",
    "format_table4", "format_table5", "format_table6", "format_table7",
    "format_table8", "format_table9", "format_table10", "format_table13",
    "format_tables_11_12", "grid_configs", "mean",
    "run_cache_study",
    "run_data_traffic", "run_density", "run_immediates", "run_interlocks",
    "run_memperf", "run_pathlength", "run_summary", "run_traffic",
]
