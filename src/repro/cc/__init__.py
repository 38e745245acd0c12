"""minic: the optimizing C-subset compiler targeting D16 and DLXe.

The target descriptions load with the package; the driver and the
front end load on first access to one of their names, so code that
only reads cached artifacts never imports the compiler.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from .target import (D16_TARGET, DLXE_16_2, DLXE_16_3, DLXE_32_2,
                     DLXE_NARROW, DLXE_TARGET, TARGETS, TargetSpec,
                     get_target)

if TYPE_CHECKING:
    from .driver import (CompileResult, build_executable, compile_and_run,
                         compile_to_assembly)
    from .irgen import CompileError, lower_program
    from .lexer import LexError
    from .parser import ParseError, parse

#: Each lazily loaded name and the submodule that defines it.
_LAZY = {
    "CompileResult": "driver", "build_executable": "driver",
    "compile_and_run": "driver", "compile_to_assembly": "driver",
    "CompileError": "irgen", "lower_program": "irgen",
    "LexError": "lexer", "ParseError": "parser", "parse": "parser",
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "CompileError", "CompileResult", "D16_TARGET", "DLXE_16_2", "DLXE_16_3",
    "DLXE_32_2", "DLXE_NARROW", "DLXE_TARGET", "LexError", "ParseError",
    "TARGETS", "TargetSpec", "build_executable", "compile_and_run",
    "compile_to_assembly", "get_target", "lower_program", "parse",
]
