"""Instruction-set definitions for the D16 and DLXe encodings.

The public surface of this package:

* :class:`~repro.isa.instruction.Instr` — encoding-independent instruction
* :class:`~repro.isa.operations.Op`, :class:`~repro.isa.operations.Cond`
* :data:`~repro.isa.spec.D16`, :data:`~repro.isa.spec.DLXE` — ISA descriptors
"""

from .common import (DecodingError, EncodingError, IsaError, sign_extend,
                     to_s32)
from .instruction import Instr
from .operations import (CONTROL_OPS, COND_NEGATE, COND_SWAP, D16_CONDS,
                         MNEMONIC_TO_OP, OP_INFO, Cond, Op, OpInfo, OpKind)
from .refs import ldc_pool_addr, transfer_target
from .spec import D16, DLXE, ISAS, IsaSpec, get_isa

__all__ = [
    "CONTROL_OPS", "COND_NEGATE", "COND_SWAP", "D16", "D16_CONDS",
    "DLXE", "DecodingError", "EncodingError", "ISAS", "Instr", "IsaError",
    "IsaSpec", "MNEMONIC_TO_OP", "OP_INFO", "Cond", "Op", "OpInfo",
    "OpKind", "get_isa", "ldc_pool_addr", "sign_extend", "to_s32",
    "transfer_target",
]
