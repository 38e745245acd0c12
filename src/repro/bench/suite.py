"""The benchmark suite (paper Table 2), as minic programs.

Every program is self-checking: it prints a deterministic result line
whose exact text must match across all targets (``expected_markers``
are substrings the output must contain).  The cache experiments use
three of them (``repro.experiments.cacheperf.CACHE_PROGRAMS``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

PROGRAM_DIR = Path(__file__).parent / "programs"


@dataclass(frozen=True)
class Benchmark:
    name: str
    description: str
    expected_markers: tuple[str, ...]
    #: Source text for ad-hoc benchmarks (fault-injection and
    #: robustness tests) that have no file under ``programs/``.
    inline_source: str | None = None

    @property
    def path(self) -> Path:
        return PROGRAM_DIR / f"{self.name}.mc"

    @functools.cached_property
    def source(self) -> str:
        if self.inline_source is not None:
            return self.inline_source
        return self.path.read_text()


SUITE: tuple[Benchmark, ...] = (
    Benchmark("ackermann", "Computes the Ackermann function.",
              ("ack(2,6)=15", "ack(3,4)=125", "calls=10426")),
    Benchmark("assem", "A two-pass assembler (the paper's D16 assembler).",
              ("words=204", "errors=0", "checksum=")),
    Benchmark("bubblesort", "Sorting program from the Stanford suite.",
              ("sorted=1", "sum=")),
    Benchmark("queens", "The Stanford eight-queens program.",
              ("solutions=92",)),
    Benchmark("quicksort", "The Stanford quicksort program.",
              ("sorted=1", "sum=")),
    Benchmark("towers", "The Stanford towers of Hanoi program.",
              ("moves=16383", "top=1")),
    Benchmark("grep", "A text scanner in the spirit of BSD grep.",
              ("lines=208", "quick=", "q.ick=")),
    Benchmark("linpack", "LU factorization and solve (daxpy-based).",
              ("info=-1", "resid_ok=1")),
    Benchmark("matrix", "Gaussian elimination plus integer matrix product.",
              ("norm=", "trace=")),
    Benchmark("dhrystone", "The synthetic integer benchmark.",
              ("int_glob=5", "bool_glob=")),
    Benchmark("pi", "Computes digits of pi (integer spigot).",
              ("3.14159265358979",)),
    Benchmark("solver", "Newton-Raphson iterative solver.",
              ("dottie=0.739085", "root=")),
    Benchmark("latex", "A paragraph typesetter (the paper's 'latex').",
              ("words=", "lines=", "check=")),
    Benchmark("ipl", "A function plotter (the paper's 'ipl').",
              ("pixels=", "check=")),
    Benchmark("whetstone", "The synthetic floating-point benchmark.",
              ("x=", "e1[3]=", "j=")),
)

BY_NAME = {bench.name: bench for bench in SUITE}


def register_benchmark(bench: Benchmark) -> Benchmark:
    """Register an ad-hoc benchmark under its name (returns it).

    Used by fault-injection campaigns and robustness tests to run
    synthetic programs (e.g. a seeded infinite loop) through the same
    Lab machinery as the paper suite.  The registration is process-
    local; ``SUITE`` (the paper's table) is never altered.
    """
    BY_NAME[bench.name] = bench
    return bench


def program_names(programs: Iterable[str] | None) -> list[str]:
    """The programs named, or every suite program when none is."""
    return list(programs or ()) or [bench.name for bench in SUITE]


def get_benchmark(name: str) -> Benchmark:
    try:
        return BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"expected one of {sorted(BY_NAME)}") from None


def check_output(bench: Benchmark, output: str) -> bool:
    """True if the program output carries every expected marker."""
    return all(marker in output for marker in bench.expected_markers)
