"""``Function.clone``: an independent copy of a function's IR.

The optimizer snapshots every function before each pass, and the lint
and translation-validation drivers give each target its own copy of
one optimized module, so a clone must equal ``copy.deepcopy`` while
sharing nothing a pass or code generation mutates.
"""

import copy

import pytest

from repro.bench import SUITE
from repro.cc.ir import CallInst, Store, VReg
from repro.cc.irgen import lower_program
from repro.cc.opt import optimize_module
from repro.cc.parser import parse
from repro.cc.runtime import RUNTIME_SOURCE

PROGRAMS = [bench.name for bench in SUITE]


@pytest.fixture(scope="module")
def stages():
    """Every suite program's module as lowered and as optimized."""
    modules = {}
    for bench in SUITE:
        lowered = lower_program(parse(RUNTIME_SOURCE + "\n" + bench.source))
        optimized = copy.deepcopy(lowered)
        optimize_module(optimized)
        modules[bench.name] = {"lowered": lowered, "optimized": optimized}
    return modules


@pytest.mark.parametrize("stage", ["lowered", "optimized"])
@pytest.mark.parametrize("program", PROGRAMS)
class TestClone:
    def test_equals_deepcopy(self, stages, program, stage):
        for func in stages[program][stage].functions:
            twin = func.clone()
            deep = copy.deepcopy(func)
            assert twin == deep
            assert str(twin) == str(deep) == str(func)

    def test_shares_no_block_instruction_or_list(self, stages, program,
                                                 stage):
        for func in stages[program][stage].functions:
            twin = func.clone()
            assert twin.params is not func.params
            assert twin.slots is not func.slots
            assert twin.blocks is not func.blocks
            for block, twin_block in zip(func.blocks, twin.blocks):
                assert twin_block is not block
                assert twin_block.instrs is not block.instrs
                for inst, twin_inst in zip(block.instrs, twin_block.instrs):
                    assert twin_inst is not inst
                    if isinstance(inst, CallInst):
                        assert twin_inst.args is not inst.args

    def test_mutating_the_clone_leaves_the_original(self, stages, program,
                                                    stage):
        mutated = set()
        for func in stages[program][stage].functions:
            text = str(func)
            twin = func.clone()
            for block in twin.blocks:
                for inst in block.instrs:
                    if isinstance(inst, Store):
                        inst.offset += 4
                        mutated.add("store-offset")
                    elif isinstance(inst, CallInst):
                        inst.args.append(VReg(twin.next_vreg, "i"))
                        mutated.add("call-args")
                if block.instrs:
                    del block.instrs[0]
                    mutated.add("delete")
            assert str(twin) != text
            assert str(func) == text
        assert mutated == {"store-offset", "call-args", "delete"}
