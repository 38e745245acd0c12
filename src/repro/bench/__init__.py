"""The paper's benchmark suite as minic sources plus a registry."""

from .suite import (BY_NAME, PROGRAM_DIR, SUITE, Benchmark, check_output,
                    get_benchmark, program_names, register_benchmark)

__all__ = ["BY_NAME", "PROGRAM_DIR", "SUITE", "Benchmark",
           "check_output", "get_benchmark", "program_names",
           "register_benchmark"]
