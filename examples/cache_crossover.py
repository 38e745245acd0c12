#!/usr/bin/env python3
"""Cache experiment (paper Figures 16-19): miss rates and CPI curves.

Traces the `assem` application on both machines, drives the paper's
direct-mapped sub-blocked caches across sizes, and shows how D16's
doubled effective cache capacity offsets its longer path length.

Run:  python examples/cache_crossover.py
"""

from repro.experiments import Lab, run_cache_study
from repro.experiments.cacheperf import (format_figure16,
                                         format_figures_17_18,
                                         format_table13)


def main():
    lab = Lab()
    print("Tracing 'assem' on D16 and DLXe and sweeping caches "
          "(2-3 s on an empty artifact cache)...\n")
    study = run_cache_study(lab, programs=("assem",),
                            sizes=(1024, 2048, 4096, 8192, 16384),
                            blocks=(32,))

    print(format_table13(study))
    print()
    print(format_figure16(study))
    print()
    print(format_figures_17_18(study, size=4096))

    print()
    print("What to look for (paper Section 4.1): at every cache size the")
    print("D16 I-miss rate is lower — twice as many instructions fit.")
    print("In the 4K CPI curves, 'D16 normalized' (cycles divided by the")
    print("DLXe instruction count) stays at or below the DLXe curve as")
    print("the miss penalty grows: the fetch-efficiency win pays for the")
    print("extra instructions.")


if __name__ == "__main__":
    main()
