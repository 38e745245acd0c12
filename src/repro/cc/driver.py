"""Compiler driver: minic source -> assembly -> linked executable.

The driver performs whole-program compilation, concatenating the runtime
library with the user program so that one compiler invocation (and one
set of target restrictions) covers every instruction the benchmark will
execute — the paper's "library source is identical" footnote.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm import assemble, link
from ..asm.objfile import Executable, text_labels
from .codegen import generate_assembly
from .irgen import lower_program
from .opt import optimize_module
from .parser import parse
from .runtime import with_runtime
from .target import TargetSpec, get_target


@dataclass
class CompileResult:
    """Everything produced by one compilation."""

    target: TargetSpec
    assembly: str
    executable: Executable
    #: Every text label of the object file, locals included, at its
    #: absolute address.  The executable's own table keeps only globals.
    labels: dict[str, int]

    @property
    def binary_size(self) -> int:
        return self.executable.binary_size


def compile_to_assembly(source: str, target: TargetSpec | str, *,
                        opt_level: int = 2,
                        include_runtime: bool = True,
                        verify_ir: bool = False) -> str:
    """Compile minic source to an assembly listing.

    ``verify_ir`` runs the IR verifier between every optimizer pass; a
    broken invariant raises
    :class:`~repro.cc.opt.PassVerificationError` naming the pass.
    """
    if isinstance(target, str):
        target = get_target(target)
    module = lower_program(parse(with_runtime(source, include_runtime)))
    optimize_module(module, level=opt_level, verify=verify_ir)
    return generate_assembly(module, target, opt_level=opt_level)


def build_executable(source: str, target: TargetSpec | str, *,
                     opt_level: int = 2,
                     include_runtime: bool = True,
                     verify_ir: bool = False) -> CompileResult:
    """Compile, assemble and link a minic program."""
    if isinstance(target, str):
        target = get_target(target)
    assembly = compile_to_assembly(source, target, opt_level=opt_level,
                                   include_runtime=include_runtime,
                                   verify_ir=verify_ir)
    obj = assemble(assembly, target.isa)
    executable = link([obj])
    return CompileResult(target=target, assembly=assembly,
                         executable=executable,
                         labels=text_labels(obj, executable))


def compile_and_run(source: str, target: TargetSpec | str):
    """Compile at ``-O2`` and execute; returns (stats, machine, result)."""
    from ..machine import run_executable

    result = build_executable(source, target)
    stats, machine = run_executable(result.executable)
    return stats, machine, result
