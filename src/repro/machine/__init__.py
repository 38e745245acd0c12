"""Machine simulation: memory, traps, pipeline timing, CPU, performance."""

from .cpu import (DEFAULT_FUEL, Machine, MachineError, MachineTimeout,
                  Snapshot, run_executable)
from .memory import Memory, MemoryError_
from .perf import (DEFAULT_MISS_PENALTY, cycles_no_cache, cycles_with_cache,
                   fetches_per_cycle, normalized_cpi)
from .pipeline import FP_STATUS_REG, HazardModel, PipelineParams
from .stats import RunStats
from .traps import (TRAP_EXIT, TRAP_GETC, TRAP_PUTC, TRAP_SBRK, TrapError,
                    TrapHandler)

__all__ = [
    "DEFAULT_FUEL", "DEFAULT_MISS_PENALTY", "FP_STATUS_REG", "HazardModel",
    "Machine", "MachineError", "MachineTimeout", "Memory",
    "MemoryError_", "PipelineParams", "RunStats", "Snapshot", "TRAP_EXIT",
    "TRAP_GETC", "TRAP_PUTC", "TRAP_SBRK", "TrapError", "TrapHandler",
    "cycles_no_cache", "cycles_with_cache", "fetches_per_cycle",
    "normalized_cpi", "run_executable",
]
