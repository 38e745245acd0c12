"""Instruction-set feature attribution (paper Section 3.3).

* Register file size (Figures 6-7) and data traffic (Tables 3 and 9):
  restricting DLXe to sixteen registers raises spill traffic; the paper
  reports the loads+stores increase relative to 32-register DLXe.
* Immediate fields (Figure 10, Table 4): how often do immediates in the
  restricted-DLXe trace exceed what D16 can encode?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cc.target import D16_TARGET
from ..isa import Op
from ..isa.operations import DATA_ACCESS
from ..machine.cpu import decoded_text
from .report import format_table
from .runner import ExperimentError, Lab, mean

_ALU_IMM_OPS = {Op.ADDI, Op.SUBI, Op.ANDI, Op.ORI, Op.XORI}

#: Table 4's trace: DLXe restricted to 16 registers and two-address code.
RESTRICTED_DLXE = "dlxe/16/2"


# ----------------------------------------------------------- data traffic


@dataclass
class TrafficRow:
    program: str
    d16: int
    dlxe16: int
    dlxe32: int

    @property
    def d16_increase(self) -> float:
        """% more loads+stores than 32-register DLXe (paper Table 3)."""
        return (self.d16 - self.dlxe32) / self.dlxe32 * 100.0

    @property
    def dlxe16_increase(self) -> float:
        return (self.dlxe16 - self.dlxe32) / self.dlxe32 * 100.0


@dataclass
class DataTrafficResult:
    rows: list[TrafficRow]

    @property
    def average_d16(self) -> float:
        return mean(row.d16_increase for row in self.rows)

    @property
    def average_dlxe16(self) -> float:
        return mean(row.dlxe16_increase for row in self.rows)


def run_data_traffic(lab: Lab, programs=None) -> DataTrafficResult:
    """Tables 3 and 9: loads+stores under a smaller register file."""
    grid = lab.runs(programs, ("d16", "dlxe/16/3", "dlxe"))
    rows = []
    for name, runs in grid.items():
        rows.append(TrafficRow(
            program=name,
            d16=runs["d16"].stats.mem_ops,
            dlxe16=runs["dlxe/16/3"].stats.mem_ops,
            dlxe32=runs["dlxe"].stats.mem_ops))
    return DataTrafficResult(rows=rows)


def format_table3(result: DataTrafficResult) -> str:
    headers = ["Program", "D16 %", "DLXe-16 %"]
    rows = [[row.program, row.d16_increase, row.dlxe16_increase]
            for row in result.rows]
    rows.append(["average", result.average_d16, result.average_dlxe16])
    return format_table(
        headers, rows, precision=1,
        title="Table 3: data traffic increase vs 32-register DLXe")


def format_table9(result: DataTrafficResult) -> str:
    headers = ["Program", "D16", "DLXe", "%"]
    rows = []
    for row in result.rows:
        pct = (row.dlxe32 - row.d16) / row.d16 * 100.0
        rows.append([row.program, row.d16, row.dlxe32, f"{pct:.1f}"])
    return format_table(headers, rows,
                        title="Table 9: total loads and stores")


# ------------------------------------------------------------- immediates


@dataclass
class ImmediateBreakdown:
    """Fractions of the dynamic instruction stream whose immediate
    operands exceed D16's encodable limits (paper Table 4)."""

    program: str
    instructions: int
    compare_imm: int          # immediate compares (D16 has none)
    alu_imm_over: int         # ALU immediates beyond unsigned 5 bits
    mem_disp_over: int        # displacements beyond D16's addressing
    move_imm_over: int        # constants beyond mvi's signed 9 bits

    @property
    def compare_rate(self) -> float:
        return self.compare_imm / self.instructions

    @property
    def alu_rate(self) -> float:
        return self.alu_imm_over / self.instructions

    @property
    def mem_rate(self) -> float:
        return self.mem_disp_over / self.instructions

    @property
    def total_rate(self) -> float:
        return (self.compare_imm + self.alu_imm_over + self.mem_disp_over
                + self.move_imm_over) / self.instructions


def run_immediates(lab: Lab, programs=None) -> list[ImmediateBreakdown]:
    """Table 4: classify restricted-DLXe dynamic immediates.

    The paper measures DLXe restricted to 16 registers and two-address
    code (:data:`RESTRICTED_DLXE`), then asks which remaining
    (immediate-field) advantages the trace actually exploits beyond D16
    limits.  Each run's per-slot counts are paired with its executable's
    decoded text; a pair that disagrees on the number of text slots
    raises :class:`ExperimentError`.
    """
    grid = lab.runs(programs, (RESTRICTED_DLXE,))
    out = []
    for name, runs in grid.items():
        stats = runs[RESTRICTED_DLXE].stats
        program = decoded_text(lab.executable(name, RESTRICTED_DLXE))
        if len(program) != len(stats.exec_counts):
            raise ExperimentError(
                f"{name}/{RESTRICTED_DLXE}: the run counts "
                f"{len(stats.exec_counts)} text slots but its executable "
                f"has {len(program)}")
        compare_imm = alu_over = mem_over = move_over = 0
        for instr, count in stats.executed_instructions(program):
            op = instr.op
            if op == Op.CMPI:
                compare_imm += count
            elif op in _ALU_IMM_OPS:
                imm = instr.imm
                if instr.rs1 == 0 and op == Op.ADDI:
                    # mvi rd, imm (addi rd, r0, imm)
                    if not D16_TARGET.mvi_ok(imm):
                        move_over += count
                elif op in (Op.ADDI, Op.SUBI):
                    # D16's fields are unsigned: a negative immediate
                    # counts, as the opcode's own field cannot carry it.
                    if imm < 0 or not D16_TARGET.alu_imm_ok("add", imm):
                        alu_over += count
                else:
                    alu_over += count   # D16 has no logical immediates
            elif op == Op.MVHI:
                move_over += count
            elif op in DATA_ACCESS:
                if not D16_TARGET.mem_offset_ok(DATA_ACCESS[op][0],
                                                instr.imm):
                    mem_over += count
        out.append(ImmediateBreakdown(
            program=name, instructions=stats.instructions,
            compare_imm=compare_imm, alu_imm_over=alu_over,
            mem_disp_over=mem_over, move_imm_over=move_over))
    return out


def format_table4(rows: list[ImmediateBreakdown]) -> str:
    avg_cmp = mean(row.compare_rate for row in rows) * 100
    avg_alu = mean(row.alu_rate for row in rows) * 100
    avg_mem = mean(row.mem_rate for row in rows) * 100
    avg_total = mean(row.total_rate for row in rows) * 100
    table = format_table(
        ["Program", "cmp-imm %", "ALU-imm>5b %", "mem-disp %", "total %"],
        [[row.program, row.compare_rate * 100, row.alu_rate * 100,
          row.mem_rate * 100, row.total_rate * 100] for row in rows],
        title="Table 4: immediate-field instruction frequencies "
              "(restricted DLXe trace)",
        precision=1)
    summary = (f"\nAverages: compare {avg_cmp:.1f}%  ALU {avg_alu:.1f}%  "
               f"memory {avg_mem:.1f}%  total {avg_total:.1f}%")
    return table + summary


# -------------------------------------------------- register-file figures


def format_figures_6_7(lab: Lab, programs=None) -> str:
    """Figures 6-7: density and path-length effect of 16 vs 32 regs."""
    grid = lab.runs(programs, ("d16", "dlxe/16/3", "dlxe"))
    headers = ["Program", "size 16r", "size 32r", "path 16r", "path 32r"]
    rows = []
    for name, runs in grid.items():
        base_size = runs["d16"].binary_size
        base_path = runs["d16"].path_length
        rows.append([
            name,
            runs["dlxe/16/3"].binary_size / base_size,
            runs["dlxe"].binary_size / base_size,
            runs["dlxe/16/3"].path_length / base_path,
            runs["dlxe"].path_length / base_path,
        ])
    return format_table(headers, rows,
                        title="Figures 6-7: 16 vs 32 registers "
                              "(ratios vs D16)", precision=2)
