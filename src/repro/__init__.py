"""repro: a reproduction of "16-Bit vs. 32-Bit Instructions for
Pipelined Microprocessors" (Bunda, Fussell, Jenevein, Athas; ISCA 1993).

Subpackages:

* :mod:`repro.isa` -- the D16 (16-bit) and DLXe (32-bit) instruction sets
* :mod:`repro.asm` -- assembler, linker, object files
* :mod:`repro.machine` -- architecture simulator + pipeline timing model
* :mod:`repro.cache` -- trace-driven cache simulation
* :mod:`repro.cc` -- minic, the optimizing C-subset compiler
* :mod:`repro.bench` -- the 15-program benchmark suite
* :mod:`repro.experiments` -- the paper's tables and figures
"""

__version__ = "1.2.3"
