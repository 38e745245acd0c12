"""Instruction scheduler: dependence preservation and stall reduction."""

from repro.cc.ir import (Bin, Block, CallInst, Const, Jump, Load, Move,
                         Store, VReg)
from repro.cc.schedule import _sequence_cost, schedule_block
from repro.machine.pipeline import PipelineParams


def v(i, cls="i"):
    return VReg(i, cls)


def make_block(instrs):
    return Block(label="b", instrs=instrs)


def build_o2(source, target, schedule):
    """Link ``source`` optimized at ``-O2``, with code generated as at
    ``-O2`` (scheduled) or as at ``-O0`` (not scheduled)."""
    from repro.asm import assemble, link
    from repro.cc import get_target
    from repro.cc.codegen import generate_assembly
    from repro.cc.irgen import lower_program
    from repro.cc.opt import optimize_module
    from repro.cc.parser import parse
    from repro.cc.runtime import RUNTIME_SOURCE

    spec = get_target(target)
    module = lower_program(parse(RUNTIME_SOURCE + "\n" + source))
    optimize_module(module, level=2)
    assembly = generate_assembly(module, spec,
                                 opt_level=2 if schedule else 0)
    return link([assemble(assembly, spec.isa)])


class TestDependencePreservation:
    def test_raw_preserved(self):
        block = make_block([
            Const(v(1), 5),
            Bin("add", v(2), v(1), v(1)),
            Jump("next"),
        ])
        schedule_block(block)
        order = [type(i).__name__ for i in block.instrs]
        assert order.index("Const") < order.index("Bin")

    def test_store_load_order(self):
        addr = v(1)
        datum = v(2)
        out = v(3)
        block = make_block([
            Const(addr, 0x100),
            Const(datum, 7),
            Store(addr, datum, 4),
            Load(out, addr, 4),
            Jump("next"),
        ])
        schedule_block(block)
        kinds = [type(i).__name__ for i in block.instrs]
        assert kinds.index("Store") < kinds.index("Load")

    def test_calls_stay_ordered(self):
        block = make_block([
            Const(v(1), 65),
            CallInst(None, "putchar", [v(1)]),
            Const(v(2), 66),
            CallInst(None, "putchar", [v(2)]),
            Jump("next"),
        ])
        schedule_block(block)
        calls = [i for i in block.instrs if isinstance(i, CallInst)]
        assert calls[0].args == [v(1)]
        assert calls[1].args == [v(2)]

    def test_terminator_stays_last(self):
        block = make_block([
            Const(v(1), 1),
            Const(v(2), 2),
            Bin("add", v(3), v(1), v(2)),
            Jump("next"),
        ])
        schedule_block(block)
        assert isinstance(block.instrs[-1], Jump)

    def test_war_preserved(self):
        # read of v1 must stay before its redefinition
        block = make_block([
            Const(v(1), 5),
            Move(v(2), v(1)),
            Const(v(1), 9),
            Move(v(3), v(1)),
            Jump("next"),
        ])
        schedule_block(block)
        reads = [i for i in block.instrs if isinstance(i, Move)]
        defs1 = [i for i, inst in enumerate(block.instrs)
                 if isinstance(inst, Const) and inst.dst == v(1)]
        move2_at = block.instrs.index(reads[0])
        assert defs1[0] < move2_at < defs1[1]


class TestStallReduction:
    def test_load_use_separated(self):
        """A filler instruction should slide into the load delay slot."""
        load = Load(v(2), v(1), 4)
        use = Bin("add", v(3), v(2), v(2))
        filler = Const(v(4), 1)
        naive = [load, use, filler]
        assert _sequence_cost(naive) > _sequence_cost([load, filler, use])
        block = make_block(naive + [Jump("n")])
        schedule_block(block)
        order = block.instrs
        assert order.index(filler) < order.index(use)

    def test_cost_model_math_unit_serializes(self):
        m1 = Bin("mul", v(3), v(1), v(2))
        m2 = Bin("mul", v(6), v(4), v(5))
        cost = _sequence_cost([m1, m2])
        assert cost >= PipelineParams().latency_of("imul")

    def test_scheduler_never_locally_worse(self):
        # The accept-guard: scheduled cost (2x unrolled) <= original.
        instrs = [
            Load(v(2), v(1), 4),
            Bin("add", v(3), v(2), v(2)),
            Bin("mul", v(4), v(3), v(3)),
            Bin("add", v(5), v(4), v(4)),
            Const(v(6), 1),
            Const(v(7), 2),
            Jump("n"),
        ]
        block = make_block(list(instrs))
        before = _sequence_cost(instrs[:-1] * 2)
        schedule_block(block)
        after = _sequence_cost(block.instrs[:-1] * 2)
        assert after <= before


class TestEndToEnd:
    def test_semantics_preserved_whole_suite_sample(self, isa_target):
        src = r"""
        int data[40];
        int main() {
            int i, sum = 0;
            double x = 1.0;
            for (i = 0; i < 40; i++) data[i] = i * 3 % 7;
            for (i = 0; i < 40; i++) {
                sum = sum + data[i] * data[(i + 1) % 40];
                x = x * 1.01;
            }
            puti(sum); putchar(',');
            putd(x, 3);
            return 0;
        }
        """
        from repro.machine import run_executable

        outs = {}
        for sched in (False, True):
            stats, _m = run_executable(build_o2(src, isa_target, sched))
            outs[sched] = stats.output
        assert outs[False] == outs[True]

    def test_scheduling_reduces_interlocks_on_fp_kernel(self):
        src = r"""
        double a[50];
        double b[50];
        int main() {
            int i;
            double sum = 0.0;
            for (i = 0; i < 50; i++) { a[i] = i * 0.5; b[i] = i * 0.25; }
            for (i = 0; i < 50; i++) sum = sum + a[i] * b[i];
            putd(sum, 2);
            return 0;
        }
        """
        from repro.machine import run_executable

        cycles = {}
        for sched in (False, True):
            stats, _m = run_executable(build_o2(src, "dlxe", sched))
            cycles[sched] = stats.instructions + stats.interlocks
        assert cycles[True] <= cycles[False]
