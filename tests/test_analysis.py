"""Tests for the static-analysis suite behind ``repro lint``.

Each layer is exercised with a seeded defect (the rule must fire) and a
clean input (the rule must stay silent): the IR verifier on hand-built
functions, pass-level localization through a deliberately broken
optimizer pass, the assembly linter on out-of-range operands, and the
binary linter on hand-crafted images with calling-convention and
control-flow violations.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (LintReport, Severity, build_cfg, has_errors,
                            lint_assembly, lint_executable, lint_program,
                            lint_suite, verify_function, verify_module)
from repro.asm import assemble, link
from repro.asm.objfile import Executable, text_labels
from repro.cc import get_target
from repro.cc.ir import (Bin, Block, CJump, Const, FStore, Function,
                         Jump, Ret, StackSlot, Store, VReg)
from repro.cc.irgen import lower_program
from repro.cc.opt import PassVerificationError, optimize_module
from repro.cc.parser import parse
from repro.isa import D16, DLXE, Cond, DecodingError, Instr, Op

# ------------------------------------------------------------ helpers


def _vi(n: int) -> VReg:
    return VReg(n, "i")


def _clean_function() -> Function:
    """count-down loop: entry -> loop -> exit, all defs before uses."""
    v0, v1, v2 = _vi(0), _vi(1), _vi(2)
    func = Function(name="f", params=[], return_cls="i", next_vreg=3)
    func.blocks = [
        Block("entry", [Const(v0, 10), Const(v1, 1), Jump("loop")]),
        Block("loop", [Bin("sub", v0, v0, v1),
                       CJump(Cond.NE, v0, None, "loop", "exit")]),
        Block("exit", [Const(v2, 0), Ret(v2)]),
    ]
    return func


def _rules(findings) -> set[str]:
    return {f.rule for f in findings}


def _errors(findings):
    return [f for f in findings if f.severity == Severity.ERROR]


# ----------------------------------------------------- IR verifier rules


class TestIrVerifier:
    def test_clean_function_verifies(self):
        assert verify_function(_clean_function()) == []

    def test_missing_terminator_ir001(self):
        func = _clean_function()
        func.blocks[2].instrs.pop()          # drop the ret
        assert "IR001" in _rules(verify_function(func))

    def test_mid_block_terminator_ir002(self):
        func = _clean_function()
        func.blocks[0].instrs.insert(1, Jump("exit"))
        assert "IR002" in _rules(verify_function(func))

    def test_missing_branch_target_ir003(self):
        func = _clean_function()
        func.blocks[0].instrs[-1] = Jump("nowhere")
        assert "IR003" in _rules(verify_function(func))

    def test_duplicate_label_ir004(self):
        func = _clean_function()
        func.blocks.append(Block("loop", [Ret(None)]))
        assert "IR004" in _rules(verify_function(func))

    def test_unreachable_block_is_warning_ir005(self):
        func = _clean_function()
        func.blocks.append(Block("orphan", [Ret(None)]))
        findings = verify_function(func)
        assert "IR005" in _rules(findings)
        assert not _errors(findings)         # warning only

    def test_use_before_def_ir006(self):
        func = _clean_function()
        ghost = _vi(7)
        func.blocks[2].instrs[0] = Bin("add", _vi(2), ghost, _vi(1))
        findings = verify_function(func)
        assert "IR006" in _rules(findings)
        assert any("v7" in f.message for f in findings)

    def test_conditional_def_is_use_before_def_ir006(self):
        # v3 defined only on the loop path must not satisfy exit's use.
        func = _clean_function()
        v3 = _vi(3)
        func.blocks[0].instrs[-1] = CJump(Cond.EQ, _vi(0), None,
                                          "loop", "exit")
        func.blocks[1].instrs.insert(0, Const(v3, 5))
        func.blocks[2].instrs[0] = Bin("add", _vi(2), v3, _vi(1))
        assert "IR006" in _rules(verify_function(func))

    def test_vreg_class_conflict_ir007(self):
        func = _clean_function()
        func.blocks[0].instrs.insert(0, Const(VReg(1, "i"), 2))
        func.blocks[1].instrs[0] = Bin("fadd", VReg(0, "f"), VReg(0, "f"),
                                       VReg(1, "f"))
        assert "IR007" in _rules(verify_function(func))

    def test_operand_class_mismatch_ir008(self):
        func = _clean_function()
        func.blocks[1].instrs[0] = Bin("fadd", _vi(0), _vi(0), _vi(1))
        assert "IR008" in _rules(verify_function(func))

    def test_unregistered_slot_ir009(self):
        func = _clean_function()
        rogue = StackSlot(id=9, size=4, align=4)
        func.blocks[0].instrs = [Const(_vi(0), 10), Const(_vi(1), 1),
                                 Store(rogue, _vi(0), 4), Jump("loop")]
        assert "IR009" in _rules(verify_function(func))

    def test_out_of_bounds_slot_access_ir010(self):
        func = _clean_function()
        slot = func.new_slot(4, 4, "x")
        func.blocks[0].instrs = [Const(_vi(0), 10), Const(_vi(1), 1),
                                 Store(slot, _vi(0), 4, offset=4),
                                 Jump("loop")]
        findings = verify_function(func)
        assert "IR010" in _rules(findings)
        assert not _errors(findings)         # warning only

    def test_fstore_double_overflows_word_slot_ir010(self):
        func = _clean_function()
        slot = func.new_slot(4, 4, "x")
        vd = VReg(8, "d")
        func.blocks[0].instrs = [Const(_vi(0), 10), Const(_vi(1), 1),
                                 FStore(slot, vd), Jump("loop")]
        # the 8-byte double does not fit the 4-byte slot
        assert "IR010" in _rules(verify_function(func))

    def test_compiled_module_verifies_clean(self):
        module = lower_program(parse(
            "int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i = i + 1) s = s + i; return s; }"))
        optimize_module(module)
        assert verify_module(module) == []


# ------------------------------------------- pass-level localization


def _evil_pass(func: Function) -> bool:
    for block in func.blocks:
        if block.instrs:
            block.instrs = block.instrs[:-1]     # drop the terminators
    return True


class TestPassLocalization:
    SOURCE = ("int main() { int i; int s; s = 0;"
              " for (i = 0; i < 4; i = i + 1) s = s + i; return s; }")

    def test_broken_pass_is_named(self, monkeypatch):
        import repro.cc.opt as opt

        monkeypatch.setattr(
            opt, "_PIPELINE_O1",
            (("evil-pass", _evil_pass),) + opt._PIPELINE_O1)
        module = lower_program(parse(self.SOURCE))
        with pytest.raises(PassVerificationError) as exc_info:
            optimize_module(module, verify=True)
        exc = exc_info.value
        assert exc.pass_name == "evil-pass"
        assert exc.func_name == "main"
        assert "IR001" in {f.rule for f in exc.findings}
        assert "evil-pass" in str(exc)

    def test_lint_program_reports_failing_pass(self, monkeypatch):
        import repro.cc.opt as opt

        monkeypatch.setattr(
            opt, "_PIPELINE_O1",
            (("evil-pass", _evil_pass),) + opt._PIPELINE_O1)
        findings = lint_program(self.SOURCE, "d16",
                                include_runtime=False)
        assert has_errors(findings)
        assert any("after pass 'evil-pass'" in f.message
                   for f in findings)

    def test_clean_pipeline_verifies(self):
        module = lower_program(parse(self.SOURCE))
        optimize_module(module, verify=True)     # must not raise


# -------------------------------------------------- assembly linter


class TestAssemblyLint:
    def test_out_of_range_immediate_enc001(self):
        source = """
            .text
            .global _start
        _start:
            mvi r3, 5
            addi r3, r3, 999
            trap 0
        """
        findings = lint_assembly(source, D16)
        assert _rules(findings) == {"ENC001"}
        assert any("999" in f.message for f in findings)
        # same instruction is fine on DLXe's 16-bit immediates
        assert lint_assembly(source.replace("mvi r3, 5",
                                            "addi r3, r0, 5"),
                             DLXE) == []

    def test_reports_every_violation_not_just_first(self):
        source = """
            .text
        _start:
            addi r3, r3, 999
            subi r4, r4, 777
            trap 0
        """
        findings = lint_assembly(source, D16)
        assert len([f for f in findings if f.rule == "ENC001"]) == 2

    def test_clean_listing_has_no_findings(self):
        source = """
            .text
            .global _start
        _start:
            mvi r3, 5
            addi r3, r3, 2
            trap 0
        """
        assert lint_assembly(source, D16) == []


# ---------------------------------------------------- binary linter


def _raw_exe(isa, instrs, *, symbols=None, extra=b"") -> Executable:
    text = b"".join(isa.encode(i).to_bytes(isa.width_bytes, "little")
                    for i in instrs) + extra
    base = 0x1000
    symtab = {"_start": base}
    if symbols:
        symtab.update({name: base + off for name, off in symbols.items()})
    return Executable(isa_name=isa.name, text_base=base, text=text,
                      data_base=0x10000, data=b"", entry=base,
                      symbols=symtab)


def _undecodable_word(isa) -> int:
    for word in range(1 << 16):
        try:
            isa.decode(word)
        except DecodingError:
            return word
    raise AssertionError("every word decodes?!")


class TestBinaryLint:
    def test_branch_outside_text_bin003(self):
        exe = _raw_exe(D16, [Instr(op=Op.BR, imm=0x200)])
        findings = lint_executable(build_cfg(exe, D16), target=None)
        assert "BIN003" in _rules(findings)

    def test_reachable_undecodable_bin002(self):
        bad = _undecodable_word(D16)
        exe = _raw_exe(D16, [], extra=bad.to_bytes(2, "little"))
        findings = lint_executable(build_cfg(exe, D16), target=None)
        assert "BIN002" in _rules(findings)

    def test_unreachable_code_bin005_is_warning(self):
        exe = _raw_exe(D16, [Instr(op=Op.TRAP, imm=0),
                             Instr(op=Op.ADD, rd=2, rs1=2, rs2=3)])
        findings = lint_executable(build_cfg(exe, D16), target=None)
        assert "BIN005" in _rules(findings)
        assert not _errors(findings)

    def test_clean_image_is_clean(self):
        exe = _raw_exe(D16, [Instr(op=Op.MVI, rd=3, imm=7),
                             Instr(op=Op.TRAP, imm=0)])
        assert lint_executable(build_cfg(exe, D16), target=None) == []

    def test_callee_saved_clobber_cc001_cc002(self):
        source = """
            .text
            .global _start
        _start:
            jld helper
            trap 0
        helper:
            mvi r10, 7
            jld leaf
            j r1
        leaf:
            j r1
        """
        obj = assemble(source, DLXE)
        exe = link([obj])
        cfg = build_cfg(exe, DLXE, symbols=text_labels(obj, exe))
        findings = lint_executable(cfg, target=get_target("dlxe"))
        rules = _rules(findings)
        assert "CC001" in rules and "CC002" in rules
        assert any("r10" in f.message for f in findings
                   if f.rule == "CC001")
        assert any("helper" in f.message for f in findings
                   if f.rule == "CC002")

    def test_spilled_callee_saved_is_clean(self):
        source = """
            .text
            .global _start
        _start:
            jld helper
            trap 0
        helper:
            subi r15, r15, 8
            st r1, 0(r15)
            st r10, 4(r15)
            mvi r10, 7
            jld leaf
            ld r1, 0(r15)
            ld r10, 4(r15)
            addi r15, r15, 8
            j r1
        leaf:
            j r1
        """
        obj = assemble(source, DLXE)
        exe = link([obj])
        cfg = build_cfg(exe, DLXE, symbols=text_labels(obj, exe))
        findings = lint_executable(cfg, target=get_target("dlxe"))
        assert not {"CC001", "CC002"} & _rules(findings)


# ------------------------------------------------ driver + clean suite


class TestLintDriver:
    def test_lint_program_clean_on_both_targets(self):
        source = ("int main() { int i; int s; s = 0;"
                  " for (i = 0; i < 6; i = i + 1) s = s + i;"
                  " return s; }")
        for target in ("d16", "dlxe"):
            assert lint_program(source, target) == []

    def test_suite_subset_lints_clean(self):
        # The full 15x2 sweep runs in CI; a representative subset keeps
        # the tier-1 suite honest without the compile cost.
        reports = lint_suite(("d16", "dlxe"),
                             ["ackermann", "queens", "towers"])
        assert len(reports) == 6
        assert all(report.ok for report in reports)
        assert all(report.findings == [] for report in reports)

    def test_suite_shares_the_front_end_across_targets(self,
                                                       monkeypatch):
        import repro.analysis.driver as driver
        from repro.bench import get_benchmark
        from repro.cc import compile_to_assembly

        # DLXe first: D16 code generated from a module DLXe code
        # generation already rewrote would differ.
        targets = ("dlxe", "d16")
        source = get_benchmark("ackermann").source
        per_target = [lint_program(source, t) for t in targets]
        parsed = _count_calls(monkeypatch, _binding_modules(parse),
                              "parse")
        generated = []
        real_generate = driver.generate_assembly

        def generate(*args, **kwargs):
            generated.append(real_generate(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(driver, "generate_assembly", generate)
        reports = lint_suite(targets, ["ackermann"])
        assert len(parsed) == 1
        assert [r.findings for r in reports] == per_target
        # Each target's code comes from an unmodified optimized module.
        assert generated == [compile_to_assembly(source, t)
                             for t in targets]

    def test_report_ok_reflects_errors(self):
        report = LintReport(
            program="p", target="d16",
            findings=lint_assembly("addi r3, r3, 999", D16))
        assert not report.ok


# --------------------------------------------------------------- CLI


class TestLintCli:
    def test_file_mode_reports_and_fails(self, tmp_path, capsys):
        from repro.cli import main

        # a literal too wide for D16's pooled LDC still compiles, but a
        # frame larger than the unsigned 5-bit ld/st offset range
        # cannot; easier: feed assembly-breaking source via opt pragma.
        # Simplest reliable error: lint a file that compiles cleanly on
        # dlxe but use the monkeypatched evil pass -- overkill here, so
        # assert the clean path instead and the error path via suite
        # exit code below.
        good = tmp_path / "ok.mc"
        good.write_text("int main() { return 3; }")
        assert main(["lint", str(good), "-t", "d16", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_file_mode_error_exit(self, tmp_path, capsys, monkeypatch):
        import repro.cc.opt as opt
        from repro.cli import main

        monkeypatch.setattr(
            opt, "_PIPELINE_O1",
            (("evil-pass", _evil_pass),) + opt._PIPELINE_O1)
        bad = tmp_path / "bad.mc"
        bad.write_text("int main() { return 3; }")
        assert main(["lint", str(bad), "-t", "d16"]) == 1
        out = capsys.readouterr().out
        assert "evil-pass" in out and "IR001" in out

    def test_suite_mode_stats_line(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "2 program/target cells" in out
        assert "0 findings" in out

    def test_json_output(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["programs"] == ["ackermann"]
        assert sorted(payload["targets"]) == ["d16", "dlxe"]


# ------------------------------------- JSON schema + exit-code contract


class TestJsonSchema:
    def test_render_json_schema_lock(self):
        from repro.analysis import SCHEMA_VERSION, finding, render_json

        payload = json.loads(render_json(
            [finding("ABS002", "text:0x1000", "seeded error"),
             finding("ABS004", "text:0x1004", "seeded warning")]))
        # v2 added the loop/WCET rules and the --wcet/--density JSON
        # extras; v3 added the CACHE rules and the --icache extras;
        # v4 added the TV rules and the --tv extras; v5 added the
        # LIV/VULN rules and the --vuln extras (docs/linting.md
        # documents every migration).
        assert SCHEMA_VERSION == 5
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload) >= {"schema_version", "findings", "summary",
                                "rules"}
        assert [f["rule"] for f in payload["findings"]] == \
            ["ABS002", "ABS004"]
        assert set(payload["findings"][0]) == {"rule", "severity",
                                               "location", "message"}
        # Per-rule catalog metadata rides along, so consumers need not
        # hard-code severities or documentation links.
        assert payload["rules"]["ABS002"]["severity"] == "error"
        assert payload["rules"]["ABS002"]["doc"] == \
            "docs/linting.md#abs002"
        assert payload["rules"]["ABS002"]["title"]
        assert payload["rules"]["ABS004"]["severity"] == "warning"
        assert payload["summary"]["total"] == 2

    def test_render_json_extra_keys_merge(self):
        from repro.analysis import render_json

        payload = json.loads(render_json([], programs=["p"],
                                         targets=["d16"]))
        assert payload["programs"] == ["p"]
        assert payload["targets"] == ["d16"]
        assert payload["rules"] == {}

    def test_cli_json_carries_schema_version(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5


class TestExitCodes:
    def test_warning_only_reports_exit_zero(self):
        from repro.analysis import (EXIT_ERRORS, EXIT_OK, finding,
                                    exit_code)

        warn = LintReport(program="p", target="d16", findings=[
            finding("ABS004", "text:0x1000", "seeded warning")])
        err = LintReport(program="p", target="d16", findings=[
            finding("ABS002", "text:0x1000", "seeded error")])
        assert exit_code([]) == EXIT_OK == 0
        assert exit_code([warn]) == EXIT_OK
        assert exit_code([warn, err]) == EXIT_ERRORS == 1

    def test_internal_failure_exits_two(self, tmp_path, capsys):
        from repro.analysis import EXIT_INTERNAL
        from repro.cli import main

        broken = tmp_path / "broken.mc"
        broken.write_text("int main( {")           # unparsable
        assert main(["lint", str(broken)]) == EXIT_INTERNAL == 2
        assert "internal failure" in capsys.readouterr().err

    def test_cli_semantic_modes_file_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.mc"
        src.write_text("int main() { return 4; }")
        assert main(["lint", str(src), "--timing", "--cross-isa",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "timing:" in out and "0 findings" in out

    def test_cross_isa_suite_needs_two_targets(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--cross-isa",
                     "--targets", "d16"]) == 2
        assert "exactly two" in capsys.readouterr().err


# ------------------------------------------------- image modes


def _binding_modules(fn) -> list:
    """Every loaded ``repro`` module that binds ``fn`` under its name."""
    import sys

    return [module for name, module in sorted(sys.modules.items())
            if name.startswith("repro.")
            and getattr(module, fn.__name__, None) is fn]


def _count_calls(monkeypatch, owners, name: str) -> list:
    """Count calls to ``name`` through every one of ``owners``."""
    fn = getattr(owners[0], name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestImageModes:
    """The image modes (--timing, --wcet, --icache, --density, --vuln)
    read one image per cell: file mode builds and runs it once, and
    suite mode reads every cell through one shared Lab."""

    SOURCE = ("int main() { int i; int s; s = 0;"
              " for (i = 0; i < 8; i = i + 1) s = s + i;"
              " puti(s); return 0; }")

    def test_file_all_compiles_and_simulates_once(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.cli import main
        from repro.machine.cpu import Machine

        optimized = _count_calls(monkeypatch,
                                 _binding_modules(optimize_module),
                                 "optimize_module")
        simulated = _count_calls(monkeypatch, [Machine], "run")
        src = tmp_path / "p.mc"
        src.write_text(self.SOURCE)
        assert main(["lint", str(src), "-t", "d16", "--all"]) == 0
        # lint_program, the image build, and the translation-validation
        # pass tier, whose module the binary tier reuses; the one run is
        # traced for --icache/--vuln.
        assert len(optimized) == 3
        assert len(simulated) == 1

    def test_file_all_recovers_the_image_once(self, tmp_path,
                                              monkeypatch, capsys):
        from repro.analysis import analyze_wcet, resolve_cfg
        from repro.cli import main

        recovered = _count_calls(monkeypatch,
                                 _binding_modules(resolve_cfg),
                                 "resolve_cfg")
        composed = _count_calls(monkeypatch,
                                _binding_modules(analyze_wcet),
                                "analyze_wcet")
        src = tmp_path / "p.mc"
        src.write_text(self.SOURCE)
        assert main(["lint", str(src), "-t", "d16", "--all"]) == 0
        # Every image mode reads one recovery; --wcet and --icache
        # share one whole-program interval.
        assert len(recovered) == 1
        assert len(composed) == 1

    def test_suite_all_recovers_each_cell_once(self, lab, monkeypatch,
                                               capsys):
        from repro.analysis import resolve_cfg
        from repro.cli import main

        for target in ("d16", "dlxe"):          # warm the artifact cache
            lab.run("ackermann", target)
            lab.trace("ackermann", target)
        recovered = _count_calls(monkeypatch,
                                 _binding_modules(resolve_cfg),
                                 "resolve_cfg")
        assert main(["lint", "ackermann", "--all", "--json"]) == 0
        # The two cells, each shared by --timing, --wcet, --icache and
        # --vuln, and the DLXe one by --density too.
        assert len(recovered) == 2

    def test_suite_all_reads_each_cell_once(self, lab, monkeypatch,
                                            capsys):
        from repro.cli import main
        from repro.labcache import ArtifactCache

        for target in ("d16", "dlxe"):          # warm the artifact cache
            lab.run("ackermann", target)
            lab.trace("ackermann", target)
        gets = _count_calls(monkeypatch, [ArtifactCache], "get")
        assert main(["lint", "ackermann", "--all", "--json"]) == 0
        # The image, the run and the trace of each of the two cells.
        assert len(gets) == 6

    def test_suite_all_runs_the_front_end_twice(self, lab, monkeypatch,
                                                capsys):
        from repro.cli import main

        for target in ("d16", "dlxe"):          # warm the artifact cache
            lab.run("ackermann", target)
            lab.trace("ackermann", target)
        parsed = _count_calls(monkeypatch, _binding_modules(parse),
                              "parse")
        optimized = _count_calls(monkeypatch,
                                 _binding_modules(optimize_module),
                                 "optimize_module")
        assert main(["lint", "ackermann", "--all", "--json"]) == 0
        # Once for the IR lint of both targets, once under the
        # translation-validation observer; both binary tiers reuse it.
        assert len(parsed) == 2
        assert len(optimized) == 2

    @pytest.mark.parametrize("argv", [
        ["ackermann", "--timing", "-O0"],
        ["ackermann", "--all", "-O1"],
    ])
    def test_suite_refuses_other_opt_levels(self, argv, capsys):
        from repro.cli import main

        assert main(["lint", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("lint: --")
        assert "-O2" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_file_mode_honours_opt_level(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.mc"
        src.write_text(self.SOURCE)
        rows = {}
        for level in ("0", "2"):
            assert main(["lint", str(src), "--timing", "--stats",
                         "-O", level]) == 0
            rows[level] = [line for line in
                           capsys.readouterr().out.splitlines()
                           if line.startswith(f"timing: {src}/")]
        assert len(rows["0"]) == len(rows["2"]) == 1
        assert rows["0"] != rows["2"]
