"""Execution statistics gathered by the simulator.

These are exactly the quantities the paper's appendix tabulates: path
length (IC), loads and stores (Table 9), delayed-load and math-unit
interlocks (Table 10), and word/doubleword instruction-fetch transactions
(Table 8 and the wait-state models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..isa import Instr


@dataclass
class RunStats:
    """Result of one simulated program run."""

    instructions: int = 0          # IC: total path length
    loads: int = 0                 # data reads (incl. D16 ldc pool loads)
    stores: int = 0
    interlocks: int = 0            # total stall cycles
    load_interlocks: int = 0
    math_interlocks: int = 0
    ifetch_words: int = 0          # 32-bit-bus fetch transactions
    ifetch_dwords: int = 0         # 64-bit-bus fetch transactions
    exit_code: int = 0
    output: str = ""
    exec_counts: list[int] = field(default_factory=list, repr=False)

    @property
    def mem_ops(self) -> int:
        """Total loads + stores (the paper's MemOps)."""
        return self.loads + self.stores

    @property
    def interlock_rate(self) -> float:
        """Interlocks per instruction (paper Table 10's Rate column)."""
        return self.interlocks / self.instructions if self.instructions else 0.0

    def executed_instructions(self, program: Sequence[Instr | None],
                              ) -> Iterator[tuple[Instr, int]]:
        """Yield ``(instr, dynamic_count)`` for every executed static site.

        ``program`` is the run's executable decoded
        (:func:`~repro.machine.cpu.decoded_text`): ``exec_counts`` holds
        one count per text slot, in the same order.
        """
        for instr, count in zip(program, self.exec_counts):
            if instr is not None and count:
                yield instr, count
