#!/usr/bin/env python3
"""The paper's headline experiment: when does the 16-bit ISA win?

Sweeps memory wait states for cacheless D16 and DLXe machines (paper
Figure 14 / Tables 11-12) over a few benchmarks, and prints the
crossover point where D16's halved instruction traffic overtakes DLXe's
shorter path length.

Run:  python examples/memory_wall.py
"""

from repro.experiments import (Lab, format_figure14, format_tables_11_12,
                               run_memperf)

PROGRAMS = ["ackermann", "queens", "towers", "dhrystone", "pi"]


def main():
    lab = Lab()
    print(f"Running {len(PROGRAMS)} benchmarks on both machines "
          "(compiling + simulating, 4-6 s on an empty artifact "
          "cache)...\n")
    result32 = run_memperf(lab, PROGRAMS, bus_bits=32)
    result64 = run_memperf(lab, PROGRAMS, bus_bits=64)

    print(format_tables_11_12(result32))
    print()
    print(format_tables_11_12(result64))
    print()
    print(format_figure14(result32, result64))

    print()
    print("Reading the table: DLXe/D16 > 1.0 means the 16-bit machine")
    print("finishes first.  With a 32-bit bus the crossover arrives at")
    crossover = next((ws for ws in (0, 1, 2, 3)
                      if result32.mean_ratio(ws) > 1.0), None)
    if crossover is None:
        print("no crossover in 0-3 wait states for this subset.")
    else:
        print(f"{crossover} wait state(s) — the paper found the same "
              "with 1992 DRAM.")


if __name__ == "__main__":
    main()
