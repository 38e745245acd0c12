"""Static fault-vulnerability analysis: classification, soundness,
campaign cross-validation, and masked-site pruning.

The locks mirror CI: the seeded ackermann cells must keep their
proven-masked counts (a drop is a silent precision loss), the
cross-validation must stay contradiction-free (a contradiction is an
unsound masking proof), and a pruned campaign must agree with the
unpruned one on every outcome count while actually skipping work.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import resolve_cfg
from repro.analysis.vuln import (CellVulnerability, SiteVerdict,
                                 VulnSummary, build_oracle,
                                 check_soundness, classify_cell)
from repro.cc.target import get_target
from repro.faults import FaultResult, FaultSpec, GoldenRun
from repro.faults.campaign import FaultCampaign, plan_cell
from repro.faults.inject import run_cache_fault, run_fault


def _image(exe, target_name):
    target = get_target(target_name)
    return resolve_cfg(exe, target.isa, target=target)


@pytest.fixture(scope="module")
def ackermann_cells(lab):
    """Static verdicts + executed results for ackermann, both ISAs."""
    cells = {}
    for target_name in ("d16", "dlxe"):
        exe = lab.executable("ackermann", target_name)
        stats = lab.run("ackermann", target_name).stats
        golden = GoldenRun(instructions=stats.instructions,
                           interlocks=stats.interlocks,
                           exit_code=stats.exit_code,
                           output=stats.output)
        itrace = lab.trace("ackermann", target_name).itrace
        oracle = build_oracle(_image(exe, target_name), itrace)
        cell = classify_cell("ackermann", target_name, oracle,
                             golden.instructions, faults=10, seed=42)
        specs = plan_cell("ackermann", target_name, golden, exe,
                          faults=10, seed=42)
        executed = [run_cache_fault(itrace, s) if s.kind == "cache"
                    else run_fault(exe, s, golden, params=lab.params)
                    for s in specs]
        cells[target_name] = (cell, executed)
    return cells


class TestCrossValidation:
    def test_locked_proven_masked_counts(self, ackermann_cells):
        proven = {t: cell.proven_masked
                  for t, (cell, _r) in ackermann_cells.items()}
        sites = {t: len(cell.verdicts)
                 for t, (cell, _r) in ackermann_cells.items()}
        assert sites == {"d16": 10, "dlxe": 10}
        assert proven["d16"] + proven["dlxe"] == 9, proven

    def test_no_contradictions_on_seeded_campaign(self, ackermann_cells):
        for _target, (cell, executed) in ackermann_cells.items():
            assert check_soundness(cell, executed) == []

    def test_by_kind_partitions_the_sites(self, ackermann_cells):
        for _target, (cell, _r) in ackermann_cells.items():
            by_kind = cell.by_kind()
            assert sum(k["sites"] for k in by_kind.values()) == 10
            for counts in by_kind.values():
                assert 0 <= counts["masked"] <= counts["sites"]

    def test_avf_summary_is_a_proper_fraction(self, ackermann_cells):
        for _target, (cell, _r) in ackermann_cells.items():
            s = cell.summary
            assert 0.0 < s.avf < 1.0
            assert 0 < s.vulnerable_bit_cycles < s.total_bit_cycles
            assert s.instructions > 0

    def test_to_dict_shape(self, ackermann_cells):
        cell, _r = ackermann_cells["d16"]
        payload = cell.to_dict()
        assert payload["bench"] == "ackermann"
        assert payload["sites"] == 10
        assert len(payload["verdicts"]) == 10
        assert all(v["reason"] for v in payload["verdicts"])
        json.dumps(payload)              # report-ready


@pytest.fixture
def ackermann_suite(monkeypatch):
    """Shrink the suite the sweep walks to ackermann alone."""
    import repro.bench.suite as suite
    from repro.bench import get_benchmark

    monkeypatch.setattr(suite, "SUITE", (get_benchmark("ackermann"),))


class TestValidateVuln:
    """The sweep CI runs over the full grid, on one small program."""

    def test_small_grid_is_sound(self, lab, ackermann_suite):
        from repro.analysis import validate_vuln

        out = validate_vuln(lab, seed=42)
        assert out["cells"] == 2                 # d16 and dlxe
        assert out["sites"] == 40                # 20 faults per cell
        assert out["proven"] == 20
        assert out["contradictions"] == 0
        assert sum(k["sites"] for k in out["by_kind"].values()) == 40
        assert sum(k["masked"] for k in out["by_kind"].values()) == 20

    def test_contradiction_raises(self, lab, monkeypatch, ackermann_suite):
        import repro.analysis.vuln as vuln
        from repro.analysis import finding, validate_vuln
        from repro.experiments import ExperimentError

        monkeypatch.setattr(vuln, "check_soundness", lambda cell, executed: [
            finding("VULN001", "ackermann/d16", "seeded contradiction")])
        with pytest.raises(ExperimentError, match="2 proven-masked"):
            validate_vuln(lab, seed=42)


class TestSoundnessChecker:
    def _cell(self, verdicts):
        summary = VulnSummary(instructions=1, vulnerable_bit_cycles=1,
                              total_bit_cycles=2, avf=0.5, functions={})
        return CellVulnerability(bench="b", target="d16",
                                 verdicts=verdicts, summary=summary)

    def _result(self, index, outcome, kind="reg"):
        spec = FaultSpec(index=index, bench="b", target="d16",
                         kind=kind, trigger=1)
        return FaultResult(spec=spec, outcome=outcome)

    def test_contradiction_is_an_error(self):
        cell = self._cell([SiteVerdict(index=0, kind="reg", masked=True,
                                       reason="bit dead")])
        findings = check_soundness(cell, [self._result(0, "sdc")])
        assert len(findings) == 1
        assert findings[0].rule == "VULN001"

    def test_masked_observation_is_consistent(self):
        cell = self._cell([SiteVerdict(index=0, kind="reg", masked=True,
                                       reason="bit dead")])
        assert check_soundness(cell, [self._result(0, "masked")]) == []

    def test_unproven_sites_may_do_anything(self):
        cell = self._cell([SiteVerdict(index=0, kind="reg",
                                       masked=False, reason="live")])
        assert check_soundness(cell, [self._result(0, "sdc")]) == []


class TestMaskingOracle:
    def test_out_of_file_register_is_masked_on_d16(self, lab):
        exe = lab.executable("ackermann", "d16")
        itrace = lab.trace("ackermann", "d16").itrace
        oracle = build_oracle(_image(exe, "d16"), itrace)
        spec = FaultSpec(index=0, bench="ackermann", target="d16",
                         kind="reg", trigger=5, reg=20, bit=3)
        verdict = oracle.classify(spec)
        assert verdict.masked                # D16 has 16 registers

    def test_hardwired_zero_is_masked_on_dlxe(self, lab):
        exe = lab.executable("ackermann", "dlxe")
        itrace = lab.trace("ackermann", "dlxe").itrace
        oracle = build_oracle(_image(exe, "dlxe"), itrace)
        spec = FaultSpec(index=0, bench="ackermann", target="dlxe",
                         kind="reg", trigger=5, reg=0, bit=3)
        assert oracle.classify(spec).masked

    def test_post_exit_trigger_is_masked(self, lab):
        exe = lab.executable("ackermann", "d16")
        itrace = lab.trace("ackermann", "d16").itrace
        oracle = build_oracle(_image(exe, "d16"), itrace)
        spec = FaultSpec(index=0, bench="ackermann", target="d16",
                         kind="reg", trigger=len(itrace) + 7, reg=2,
                         bit=0)
        verdict = oracle.classify(spec)
        assert verdict.masked and "exits" in verdict.reason

    def test_untouched_cache_line_is_masked(self, lab):
        exe = lab.executable("ackermann", "d16")
        itrace = lab.trace("ackermann", "d16").itrace
        oracle = build_oracle(_image(exe, "d16"), itrace)
        touched = {(a // 32) % 256 for a in itrace}
        free = next(line for line in range(256) if line not in touched)
        spec = FaultSpec(index=0, bench="ackermann", target="d16",
                         kind="cache", trigger=5, line=free, bit=1)
        assert oracle.classify(spec).masked

    def test_cache_verdicts_follow_every_fetch(self):
        """Per distinct pc or per fetch, a line is touched alike: the
        trace repeats pcs, and pcs 8 KiB apart share a line."""
        from repro.asm import assemble, link
        from repro.isa import D16

        exe = link([assemble(".text\n.global _start\n_start:\n"
                             "mvi r2, 0\ntrap 0\n", D16)])
        shared = [0x1000, 0x1000 + 8192, 0x1010]      # all line 128
        alone = [0x1020, 0x1FE0, 0x2404]              # lines 129, 255, 32
        trace = (shared + alone) * 3 + [0x1040]       # line 130
        oracle = build_oracle(_image(exe, "d16"), trace)
        touched = set()
        for pc in trace:                               # per fetch
            touched.add((pc // 32) % 256)
        for line in range(512):
            spec = FaultSpec(index=line, bench="t", target="d16",
                             kind="cache", trigger=5, line=line, bit=1)
            assert oracle.classify(spec).masked == \
                (line % 256 not in touched), line


def broken_oracle(*_args, **_kwargs):
    raise RuntimeError("no oracle today")


class TestPrunedCampaign:
    @pytest.fixture(scope="class")
    def reports(self):
        plain = FaultCampaign(benchmarks=("ackermann",), faults=10,
                              seed=42).run()
        pruned = FaultCampaign(benchmarks=("ackermann",), faults=10,
                               seed=42, prune_masked=True).run()
        return plain, pruned

    def test_outcome_counts_identical(self, reports):
        plain, pruned = reports
        assert plain["summary"] == pruned["summary"]
        for a, b in zip(plain["cells"], pruned["cells"]):
            assert a["outcomes"] == b["outcomes"]

    def test_pruning_actually_skips_injections(self, reports):
        _plain, pruned = reports
        saved = {c["target"]: c["pruned"] for c in pruned["cells"]}
        assert saved == {"d16": 4, "dlxe": 5}

    def test_pruned_results_carry_the_proof(self, reports):
        _plain, pruned = reports
        for cell in pruned["cells"]:
            details = [f.get("detail", "") for f in cell["faults"]
                       if str(f.get("detail", "")).startswith("pruned:")]
            assert len(details) == cell["pruned"]
            for detail in details:
                assert len(detail) > len("pruned: ")

    def test_unpruned_report_has_zero_pruned(self, reports):
        plain, _pruned = reports
        assert all(c["pruned"] == 0 for c in plain["cells"])
        assert not any("prune_error" in c for c in plain["cells"])

    def test_oracle_failure_is_reported(self, reports, monkeypatch):
        """A cell whose oracle fails runs every site, and says why."""
        from repro.analysis import vuln

        monkeypatch.setattr(vuln, "build_oracle", broken_oracle)
        plain, _pruned = reports
        fallback = FaultCampaign(benchmarks=("ackermann",), faults=10,
                                 seed=42, prune_masked=True).run()
        assert plain["summary"] == fallback["summary"]
        for a, b in zip(plain["cells"], fallback["cells"]):
            assert a["outcomes"] == b["outcomes"]
            assert b["pruned"] == 0
            assert b["prune_error"] == "RuntimeError: no oracle today"


class TestCli:
    def test_lint_vuln_json(self, capsys):
        from repro.cli import main

        assert main(["lint", "ackermann", "--vuln", "--json",
                     "--vuln-faults", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5
        records = payload["vuln"]
        assert {r["target"] for r in records} == {"d16", "dlxe"}
        for record in records:
            assert record["sites"] == 10
            assert 0 < record["proven_masked"] <= 10
            assert record["waived"]
        by_rule = payload["summary"]["by_rule"]
        assert by_rule.get("VULN001", 0) == 0
        assert by_rule.get("VULN002", 0) == 2

    def test_faults_prune_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(["faults", "ackermann", "-n", "6", "--seed", "42",
                     "--kinds", "reg,trap,cache", "--prune-masked",
                     "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        assert sum(c["pruned"] for c in report["cells"]) > 0
        err = capsys.readouterr().err
        assert "pruned" in err
        assert "unpruned" not in err

    def test_faults_summary_counts_oracle_failures(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro.analysis import vuln
        from repro.cli import main

        monkeypatch.setattr(vuln, "build_oracle", broken_oracle)
        code = main(["faults", "ackermann", "-n", "2", "--seed", "42",
                     "--kinds", "reg,trap", "--prune-masked", "-j", "1",
                     "-o", str(tmp_path / "report.json")])
        assert code == 0
        err = capsys.readouterr().err
        assert ", 0 pruned, 2 cells unpruned (oracle failed)" in err
