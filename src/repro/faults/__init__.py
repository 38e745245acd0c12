"""Seeded fault injection and campaign reporting (see docs/faults.md).

The package exports the fault model: kinds, outcomes, specs and
results.  The injector (:mod:`repro.faults.inject`) and the campaign
(:mod:`repro.faults.campaign`) are imported from their modules, so
reading the model -- as the command line does to build its parser --
loads neither the cache models (numpy) nor the experiment lab.
"""

from .model import (CRASH, DETECTED, FAULT_KINDS, HANG, MASKED, OUTCOMES,
                    SCHEMA_VERSION, SDC, TRAP_MODES, FaultResult, FaultSpec,
                    GoldenRun)

__all__ = [
    "CRASH", "DETECTED", "FAULT_KINDS", "FaultResult", "FaultSpec",
    "GoldenRun", "HANG", "MASKED", "OUTCOMES", "SCHEMA_VERSION", "SDC",
    "TRAP_MODES",
]
