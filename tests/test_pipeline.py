"""Pipeline timing: interlock rules and cross-checking against the CPU."""

import pytest

from repro.asm import assemble, link
from repro.isa import D16, DLXE, Instr, Op
from repro.isa.operations import Cond
from repro.machine import HazardModel, Machine, PipelineParams
from repro.machine.pipeline import FP_STATUS_REG, hazard_indices


def I(op, **kw):
    return Instr(op, **kw)


class TestHazardIndices:
    def test_gpr_and_fpr_distinct(self):
        reads, writes = hazard_indices(I(Op.MVIF, rd=3, rs1=3))
        assert reads == (3,)
        assert writes == (32 + 3,)

    def test_fp_status(self):
        _reads, writes = hazard_indices(
            I(Op.CMP_SF, cond=Cond.LT, rs1=2, rs2=4))
        assert FP_STATUS_REG in writes
        reads, _writes = hazard_indices(I(Op.RDSR, rd=2))
        assert FP_STATUS_REG in reads


class TestLoadDelay:
    def test_load_use_stalls_one(self):
        model = HazardModel()
        model.issue(I(Op.LD, rd=2, rs1=15, imm=0))
        stall = model.issue(I(Op.ADD, rd=3, rs1=3, rs2=2))
        assert stall == 1
        assert model.load_interlocks == 1

    def test_gap_absorbs_delay(self):
        model = HazardModel()
        model.issue(I(Op.LD, rd=2, rs1=15, imm=0))
        model.issue(I(Op.NOP))
        stall = model.issue(I(Op.ADD, rd=3, rs1=3, rs2=2))
        assert stall == 0

    def test_unrelated_consumer_no_stall(self):
        model = HazardModel()
        model.issue(I(Op.LD, rd=2, rs1=15, imm=0))
        stall = model.issue(I(Op.ADD, rd=3, rs1=3, rs2=4))
        assert stall == 0


class TestMathUnit:
    def test_consumer_waits_full_latency(self):
        params = PipelineParams()
        model = HazardModel(params)
        model.issue(I(Op.MUL, rd=2, rs1=2, rs2=3))
        stall = model.issue(I(Op.ADD, rd=4, rs1=4, rs2=2))
        assert stall == params.latency_of("imul") - 1
        assert model.math_interlocks == stall

    def test_structural_hazard_back_to_back(self):
        params = PipelineParams()
        model = HazardModel(params)
        model.issue(I(Op.MUL, rd=2, rs1=2, rs2=3))
        stall = model.issue(I(Op.MUL, rd=4, rs1=4, rs2=5))
        assert stall == params.latency_of("imul") - 1

    def test_independent_alu_flows_past(self):
        model = HazardModel()
        model.issue(I(Op.MUL, rd=2, rs1=2, rs2=3))
        assert model.issue(I(Op.ADD, rd=4, rs1=4, rs2=5)) == 0

    def test_fp_compare_to_rdsr(self):
        params = PipelineParams()
        model = HazardModel(params)
        model.issue(I(Op.CMP_SF, cond=Cond.LT, rs1=2, rs2=4))
        stall = model.issue(I(Op.RDSR, rd=2))
        assert stall == params.latency_of("fcmp") - 1


class TestCrossCheck:
    """The CPU's inline interlock accounting must equal HazardModel."""

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_program_interlocks_match(self, isa):
        src = """
        .text
        .global _start
        _start:
            mvi r2, 0
            mvi r3, 20
            mvi r5, 0x40
            shli r5, r5, 8
        loop:
            st r3, 0(r5)
            ld r4, 0(r5)
            add r2, r2, r4
            mvi r6, 3
            mul r6, r6, r4
            add r2, r2, r6
            subi r3, r3, 1
            mv r0, r3
            bnz r0, loop
            trap 0
        """
        if isa is DLXE:
            src = src.replace("mv r0, r3\n            bnz r0, loop",
                              "bnz r3, loop")
        exe = link([assemble(src, isa)])
        machine = Machine(exe)
        # Reference: replay the retired instruction stream.
        reference = HazardModel(machine.params)
        stats = machine.run()
        replay_total = 0
        # Re-execute to collect the retired order.
        machine2 = Machine(exe, trace_instructions=True)
        stats2 = machine2.run()
        base = exe.text_base
        shift = 1 if isa.width_bytes == 2 else 2
        for pc in machine2.itrace:
            instr = machine2.program[(pc - base) >> shift]
            replay_total += reference.issue(instr)
        assert stats.interlocks == replay_total
        assert stats2.interlocks == stats.interlocks
        assert (reference.load_interlocks + reference.math_interlocks
                == reference.interlocks)
        assert stats.load_interlocks == reference.load_interlocks
        assert stats.math_interlocks == reference.math_interlocks


class TestFpPairHazards:
    """A double-precision operand names the first register of a pair
    and uses both: a reader of the odd half waits for the pair's
    producer, and a pair reader waits for a producer of its odd half,
    on both engines and in the reference model."""

    #: producer per ISA (D16 writes three-operand FP ops in two-address
    #: form), consumer, and the consumer's stall per pass.
    PROBES = {
        "odd-half-read": ({DLXE: "mul.df f2, f4, f6",
                           D16: "mul.df f2, f2, f6"}, "mvfi r3, f3", 3),
        "pair-read": ({DLXE: "div.sf f3, f7, f7",
                       D16: "div.sf f3, f3, f7"}, "mv.df f8, f2", 11),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_second_register_is_scoreboarded(self, monkeypatch, isa,
                                             probe):
        from repro.machine import cpu, run_executable
        from repro.machine.blocks import CompiledBlock

        # Compile the loop on its second pass, so each engine runs it.
        monkeypatch.setattr(cpu, "HOT_THRESHOLD", 1)
        producers, consumer, stall = self.PROBES[probe]
        cnt = "r0" if isa is D16 else "r1"
        exe = link([assemble(f"""
        .text
        .global _start
        _start:
            mvi {cnt}, 3
        loop:
            {producers[isa]}
            {consumer}
            subi {cnt}, {cnt}, 1
            bnz {cnt}, loop
            trap 0
        """, isa)])
        step, traced = run_executable(exe, engine="step",
                                      trace_instructions=True)
        blocks, machine = run_executable(exe, engine="blocks")
        assert any(isinstance(blk, CompiledBlock)
                   for blk in machine._blocks)
        reference = HazardModel(traced.params)
        shift = 1 if isa.width_bytes == 2 else 2
        for pc in traced.itrace:
            reference.issue(
                traced.program[(pc - exe.text_base) >> shift])
        assert (step.interlocks == blocks.interlocks
                == reference.interlocks == 3 * stall)


class TestFetchCounting:
    def test_d16_two_per_word(self):
        src = """
        .text
        .global _start
        _start:
            nop
            nop
            nop
            nop
            trap 0
        """
        exe = link([assemble(src, D16)])
        machine = Machine(exe)
        stats = machine.run()
        # 5 instructions = 2.5 words -> 3 word fetches.
        assert stats.instructions == 5
        assert stats.ifetch_words == 3
        assert stats.ifetch_dwords == 2

    def test_dlxe_one_per_word(self):
        src = ".text\n.global _start\n_start:\nnop\nnop\nnop\ntrap 0\n"
        exe = link([assemble(src, DLXE)])
        stats = Machine(exe).run()
        assert stats.ifetch_words == stats.instructions == 4
        assert stats.ifetch_dwords == 2   # 4 aligned words = 2 dwords

    def test_branch_refetch(self):
        # A taken backward branch to the same word should not refetch;
        # to a different word it must.
        src = """
        .text
        .global _start
        _start:
            mvi r2, 3
        loop:
            subi r2, r2, 1
            mv r0, r2
            bnz r0, loop
            trap 0
        """
        exe = link([assemble(src, D16)])
        stats = Machine(exe).run()
        # loop body spans words; each iteration refetches them.
        assert stats.ifetch_words > stats.instructions / 2 - 1
