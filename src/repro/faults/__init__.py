"""Seeded fault injection and campaign reporting (see docs/faults.md)."""

from .model import (CRASH, DETECTED, FAULT_KINDS, HANG, MASKED, OUTCOMES,
                    SCHEMA_VERSION, SDC, TRAP_MODES, FaultResult, FaultSpec,
                    GoldenRun)
from .inject import (FunctionMap, apply_fault, fuel_for, run_cache_fault,
                     run_fault)
from .campaign import (CellReport, FaultCampaign, plan_cell, render_report)

__all__ = [
    "CRASH", "CellReport", "DETECTED", "FAULT_KINDS",
    "FaultCampaign", "FaultResult", "FaultSpec", "FunctionMap",
    "GoldenRun", "HANG", "MASKED", "OUTCOMES", "SCHEMA_VERSION", "SDC",
    "TRAP_MODES", "apply_fault", "fuel_for", "plan_cell",
    "render_report", "run_cache_fault", "run_fault",
]
