#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

This is the full reproduction driver: it compiles the 15-program suite
for all five compiler configurations, simulates everything, runs the
cache studies, and prints each table/figure in order.  On an empty
artifact cache it took 44-53 s with one job and 22 s with ``-j 2`` on
a 2-vCPU Intel Xeon container whose speed varies by up to 1.8x from
run to run; a second run took 0.24-0.28 s with one job or two, since
it reads every result from the cache.  ``--fast`` took 9-13 s, or 4-7 s
with ``-j 2``, and 0.22-0.27 s on a filled cache.

Run:  python examples/reproduce_paper.py [--fast] [--jobs N]

Artifacts (compiled executables, run statistics, address traces,
cache-study miss rates) are memoized in the persistent
``.repro-cache/`` store, so a second invocation skips every compile,
simulation and cache replay; ``--jobs N`` fans the compile/run grid
and the cache study out over N worker processes.
"""

import argparse
import time

from repro.experiments import (
    CACHE_PROGRAMS, Lab, default_programs, format_figure4, format_figure5,
    format_figure13, format_figure14, format_figure15, format_figure16,
    format_figure19, format_figures_6_7, format_figures_11_12,
    format_figures_17_18, format_miss_rate_table, format_table3,
    format_table4, format_table5, format_table6, format_table7,
    format_table8, format_table9, format_table10, format_table13,
    format_tables_11_12, run_cache_study, run_data_traffic, run_immediates,
    run_interlocks, run_memperf, run_summary, run_traffic)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--fast", action="store_true",
                        help="reduced benchmark subset")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="parallel compile/run worker processes")
    args = parser.parse_args()
    fast = args.fast
    programs = default_programs(fast=fast)
    lab = Lab(jobs=args.jobs)
    started = time.time()
    from repro.experiments import PAPER_TARGETS
    lab.runs(programs, PAPER_TARGETS)      # warm the full grid (parallel)

    banner("Section 3.1-3.4: density, path length, feature attribution")
    summary = run_summary(lab, programs)
    print(format_figure4(summary.density))
    print()
    print(format_figure5(summary.pathlength))
    print()
    print(format_table6(summary.density))
    print()
    print(format_table7(summary.pathlength))
    print()
    print(format_table5(summary))
    print()
    print(format_figures_11_12(summary))

    banner("Section 3.3.1: register file size (Figures 6-7, Tables 3/9)")
    data_traffic = run_data_traffic(lab, programs)
    print(format_figures_6_7(lab, programs))
    print()
    print(format_table3(data_traffic))
    print()
    print(format_table9(data_traffic))

    banner("Section 3.3.3: immediate fields (Figure 10, Table 4)")
    print(format_table4(run_immediates(lab, programs)))

    banner("Section 3.4: traffic vs density (Figure 13, Table 8)")
    traffic = run_traffic(lab, programs)
    print(format_table8(traffic))
    print()
    print(format_figure13(traffic))

    banner("Appendix A.1: interlocks (Table 10)")
    print(format_table10(run_interlocks(lab, programs)))

    banner("Section 4: memory latency, no cache "
           "(Figures 14-15, Tables 11-12)")
    result32 = run_memperf(lab, programs, bus_bits=32)
    result64 = run_memperf(lab, programs, bus_bits=64)
    print(format_tables_11_12(result32))
    print()
    print(format_tables_11_12(result64))
    print()
    print(format_figure14(result32, result64))
    print()
    print(format_figure15(result32, result64))

    banner("Section 4.1: caches (Figures 16-19, Tables 13-16)")
    cache_programs = CACHE_PROGRAMS if not fast else ("assem",)
    study = run_cache_study(lab, cache_programs)
    print(format_table13(study))
    for program in cache_programs:
        print()
        print(format_miss_rate_table(study, program))
    print()
    print(format_figure16(study))
    print()
    print(format_figures_17_18(study, size=4096))
    print()
    print(format_figures_17_18(study, size=16384))
    print()
    print(format_figure19(study))

    print()
    print(f"Total reproduction time: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
