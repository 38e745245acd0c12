"""Experiment harness: shape assertions on a fast benchmark subset.

Full-suite numbers are produced by ``examples/reproduce_paper.py``
(recorded in EXPERIMENTS.md); these tests verify the machinery and the
paper's qualitative claims on a subset small enough for the regular
test run.
"""

import pytest

from repro.experiments import (
    Lab, format_figure4, format_table5, mean,
    format_table6, format_table8, run_cache_study, run_data_traffic,
    run_density, run_immediates, run_interlocks, run_memperf,
    run_pathlength, run_summary, run_traffic)
from repro.experiments.cacheperf import (format_figure16,
                                         format_figures_17_18,
                                         format_table13)

FAST = ["ackermann", "queens", "dhrystone"]


@pytest.fixture(scope="module")
def flab():
    return Lab()


class TestDensity:
    def test_relative_density_band(self, flab):
        result = run_density(flab, FAST)
        ratio = result.average_ratio("dlxe")
        assert 1.2 < ratio < 2.0    # paper: ~1.5
        for row in result.rows:
            assert row.ratio("dlxe") > 1.0, row.program

    def test_ablation_ordering(self, flab):
        result = run_density(flab, FAST)
        # Fewer features => larger code, monotonically (paper Table 5).
        assert result.average_ratio("dlxe/16/2") >= \
            result.average_ratio("dlxe/16/3")
        assert result.average_ratio("dlxe/32/2") >= \
            result.average_ratio("dlxe")
        assert result.average_ratio("dlxe/16/2") >= \
            result.average_ratio("dlxe/32/2")

    def test_formatting(self, flab):
        result = run_density(flab, FAST)
        text = format_table6(result)
        assert "Table 6" in text
        for name in FAST:
            assert name in text
        assert "Figure 4" in format_figure4(result)


class TestPathLength:
    def test_dlxe_shorter(self, flab):
        result = run_pathlength(flab, FAST)
        # Paper: ~0.87 -- far less reduction than the density gap.
        assert 0.70 < result.average_ratio("dlxe") < 1.0

    def test_ablation_ordering(self, flab):
        result = run_pathlength(flab, FAST)
        assert result.average_ratio("dlxe/16/2") >= \
            result.average_ratio("dlxe/16/3") - 1e-9
        assert result.average_ratio("dlxe") <= \
            result.average_ratio("dlxe/32/2") + 1e-9


class TestSummary:
    def test_table5_shape(self, flab):
        result = run_summary(flab, FAST)
        # Paper Table 5: every corner denser than D16 but less than 2x;
        # every corner's path length at or below D16's.
        for regs in (16, 32):
            for addrs in (2, 3):
                assert 1.0 < result.code_size_ratio(regs, addrs) < 2.0
                assert result.path_ratio(regs, addrs) <= 1.0
        # Restricting registers or addresses makes DLXe code bigger
        # and (weakly) slower by count.
        assert result.code_size_ratio(16, 2) >= result.code_size_ratio(16, 3)
        assert result.code_size_ratio(32, 2) >= result.code_size_ratio(32, 3)
        assert result.code_size_ratio(16, 3) >= result.code_size_ratio(32, 3)
        assert result.path_ratio(16, 2) >= result.path_ratio(32, 3)
        assert format_table5(result)


class TestTraffic:
    def test_d16_saves_traffic(self, flab):
        result = run_traffic(flab, FAST)
        assert 10 < result.average_saving < 50   # paper: ~35%

    def test_uniformity_assumption(self, flab):
        # Figure 13: traffic ratio roughly tracks the static size ratio.
        result = run_traffic(flab, FAST)
        for row in result.rows:
            assert row.traffic_ratio / row.size_ratio > 0.75
            # Word-aligned fetches: traffic is more than half the path.
            assert row.d16_path / 2 < row.d16_traffic < row.dlxe_traffic
        assert "Table 8" in format_table8(result)


class TestInterlocks:
    def test_rates_in_band(self, flab):
        rows = run_interlocks(flab, FAST)
        for row in rows:
            assert 0.0 <= row.d16_rate < 0.5
            assert 0.0 <= row.dlxe_rate < 0.5
        # Paper Table 10: mean rates ~0.10 (D16) and ~0.12 (DLXe).
        assert 0.02 < mean(row.d16_rate for row in rows) < 0.35
        assert 0.02 < mean(row.dlxe_rate for row in rows) < 0.35


class TestDataTraffic:
    def test_restricted_dlxe_spills_more(self, flab):
        result = run_data_traffic(flab, FAST)
        # 16-register DLXe does not have (meaningfully) fewer memory
        # ops than 32-register; small negatives are callee-save noise
        # (the paper's Table 3 carries a few too).
        for row in result.rows:
            assert row.dlxe16 >= row.dlxe32 * 0.93, row.program


class TestImmediates:
    def test_breakdown_sums(self, flab):
        rows = run_immediates(flab, FAST)
        for row in rows:
            assert row.total_rate <= 0.5
            assert row.compare_imm >= 0
            assert (row.compare_imm + row.alu_imm_over + row.mem_disp_over
                    + row.move_imm_over) <= row.instructions
        # Paper Table 4: ~9.5% of the restricted-DLXe trace carries
        # immediates beyond D16's fields; our frames are leaner.
        assert 0.005 < mean(row.total_rate for row in rows) < 0.30


class TestMemPerf:
    def test_crossover_with_wait_states(self, flab):
        result32 = run_memperf(flab, FAST, bus_bits=32)
        # At zero wait states DLXe wins (shorter path);
        # with wait states D16's halved traffic closes the gap (paper
        # Table 11: mean ratio rises with latency).
        assert result32.mean_ratio(0) < 1.0
        assert result32.mean_ratio(3) > result32.mean_ratio(1) \
            > result32.mean_ratio(0)
        # Figure 15: the D16 fetch stream needs under one
        # transaction per cycle.
        for row in result32.rows:
            assert all(0 < row.d16_fetch_rates[ws] <= 1
                       for ws in (0, 1, 2, 3))

    def test_wider_bus_helps_dlxe(self, flab):
        result32 = run_memperf(flab, FAST, bus_bits=32)
        result64 = run_memperf(flab, FAST, bus_bits=64)
        # Doubling the bus helps DLXe more (paper Table 12 vs 11).
        for ws in (1, 2, 3):
            assert result64.mean_ratio(ws) <= result32.mean_ratio(ws)

    def test_normalized_cpi_monotone_in_latency(self, flab):
        result = run_memperf(flab, FAST, bus_bits=32)
        values = [result.mean_cpi("d16", ws, normalized=True)
                  for ws in (0, 1, 2, 3)]
        assert values == sorted(values)


class TestCacheStudy:
    @pytest.fixture(scope="class")
    def study(self, flab):
        # One small program, reduced grid: fast but exercises the path.
        return run_cache_study(flab, programs=("assem",),
                               sizes=(1024, 4096, 16384), blocks=(32,))

    def test_d16_miss_rate_lower(self, study):
        for size in (1024, 4096, 16384):
            d16 = study.point("assem", "d16", size, 32).rates
            dlxe = study.point("assem", "dlxe", size, 32).rates
            assert d16.imiss_rate < dlxe.imiss_rate
            assert d16.itraffic_words < dlxe.itraffic_words

    def test_16k_cache_absorbs_traffic_gap(self, study):
        # Figures 17/18: at 16K the CPI curves are close -- the cache
        # has absorbed D16's traffic advantage.
        for penalty in (4, 16):
            d16 = study.cycles("assem", "d16", 16384, 32, penalty)
            dlxe = study.cycles("assem", "dlxe", 16384, 32, penalty)
            assert d16 / dlxe < 1.45

    def test_bigger_cache_helps(self, study):
        for target in ("d16", "dlxe"):
            small = study.point("assem", target, 1024, 32).rates
            big = study.point("assem", target, 4096, 32).rates
            assert big.imisses <= small.imisses

    def test_cycles_increase_with_penalty(self, study):
        c4 = study.cycles("assem", "d16", 4096, 32, 4)
        c16 = study.cycles("assem", "d16", 4096, 32, 16)
        assert c16 > c4

    def test_formatting(self, study):
        assert "Table 13" in format_table13(study)
        assert "Figure 16" in format_figure16(study)
        assert "Figure 17" in format_figures_17_18(study, size=4096)


def test_lab_memoizes():
    lab = Lab()
    first = lab.run("ackermann", "d16")
    second = lab.run("ackermann", "d16")
    assert first is second


def test_lab_rejects_bad_output(monkeypatch):
    from repro.experiments import runner

    lab = Lab()
    monkeypatch.setattr("repro.bench.suite.check_output",
                        lambda bench, output: False)
    monkeypatch.setattr(runner, "check_output",
                        lambda bench, output: False)
    with pytest.raises(runner.ExperimentError):
        lab.run("ackermann", "d16")
