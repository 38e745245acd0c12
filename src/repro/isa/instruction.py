"""The unified, encoding-independent instruction representation.

An :class:`Instr` is what the assembler produces, the encoders consume, and
the CPU executes.  Register fields are small integers indexing either the
general or the floating-point register file, as determined by the op's
metadata in :mod:`repro.isa.operations`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import IsaError
from .operations import OP_INFO, Cond, Op, OpInfo


@dataclass(frozen=True)
class Instr:
    """One machine instruction, independent of its binary encoding."""

    op: Op
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None
    cond: Cond | None = None

    @property
    def info(self) -> OpInfo:
        return OP_INFO[self.op]

    def validate(self) -> None:
        """Check that exactly the fields demanded by the signature are set."""
        info = self.info
        wanted = set(info.signature)
        if "imm" in wanted or "mem" in wanted:
            wanted.add("imm")
        for field in ("rd", "rs1", "rs2", "imm", "cond"):
            have = getattr(self, field) is not None
            need = field in wanted
            if have != need:
                state = "missing" if need else "unexpected"
                raise IsaError(f"{self.op.value}: {state} field {field!r}")

    def reg_operands(self) -> list[tuple[str, str, int]]:
        """Yield ``(field, reg_class, index)`` for each register operand."""
        out = []
        for field, cls in self.info.reg_class.items():
            value = getattr(self, field)
            if value is not None:
                out.append((field, cls, value))
        return out

    def reads(self) -> list[tuple[str, int]]:
        """Registers read by this instruction as ``(reg_class, index)``."""
        info = self.info
        return [(info.reg_class[f], getattr(self, f))
                for f in info.reads if getattr(self, f) is not None]

    def writes(self) -> list[tuple[str, int]]:
        """Registers written by this instruction as ``(reg_class, index)``."""
        info = self.info
        return [(info.reg_class[f], getattr(self, f))
                for f in info.writes if getattr(self, f) is not None]

    def __str__(self) -> str:  # assembly-like rendering
        info = self.info
        parts: list[str] = []
        sig = info.signature
        i = 0
        while i < len(sig):
            field = sig[i]
            if field == "cond":
                i += 1
                continue  # folded into the mnemonic below
            if (field in ("rs2", "rd") and i + 2 < len(sig)
                    and sig[i + 1] == "imm" and sig[i + 2] == "rs1"
                    and info.kind.value in ("load", "store")):
                # memory operand: data, offset(base)
                reg = getattr(self, field)
                parts.append(self._reg_name(field, reg))
                parts.append(f"{self.imm}({self._reg_name('rs1', self.rs1)})")
                i += 3
                continue
            value = getattr(self, field)
            if field == "imm":
                parts.append(str(value))
            else:
                parts.append(self._reg_name(field, value))
            i += 1
        mnemonic = self.op.value
        if self.cond is not None:
            if self.op in (Op.CMP_SF, Op.CMP_DF):
                base, suffix = mnemonic.split(".")
                mnemonic = f"{base}{self.cond.value}.{suffix}"
            else:
                mnemonic = f"{mnemonic}{self.cond.value}"
        return f"{mnemonic} {', '.join(parts)}".strip()

    def _reg_name(self, field: str, index: int) -> str:
        prefix = "f" if self.info.reg_class.get(field) == "f" else "r"
        return f"{prefix}{index}"
