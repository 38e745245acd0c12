"""The benchmark suite: correctness and cross-ISA equivalence.

Runs every program on both headline machines; the printed output (the
program's self-check) must match expectations AND be identical across
encodings — the central experimental control of the paper.
"""

import pytest

from repro.bench import SUITE, check_output, get_benchmark


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_program_runs_on_both_isas(bench, lab):
    d16 = lab.run(bench.name, "d16")
    dlxe = lab.run(bench.name, "dlxe")
    assert check_output(bench, d16.stats.output), d16.stats.output
    assert d16.stats.output == dlxe.stats.output
    assert d16.stats.exit_code == 0
    assert dlxe.stats.exit_code == 0


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_d16_binary_smaller(bench, lab):
    d16 = lab.run(bench.name, "d16")
    dlxe = lab.run(bench.name, "dlxe")
    assert d16.binary_size < dlxe.binary_size
    # Halving instruction width cannot halve program size (data is
    # shared and D16 needs more instructions): ratio < 2.
    assert dlxe.binary_size / d16.binary_size < 2.0


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_dlxe_path_not_longer(bench, lab):
    d16 = lab.run(bench.name, "d16")
    dlxe = lab.run(bench.name, "dlxe")
    assert dlxe.path_length <= d16.path_length * 1.02


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_d16_traffic_lower(bench, lab):
    d16 = lab.run(bench.name, "d16")
    dlxe = lab.run(bench.name, "dlxe")
    # DLXe 32-bit traffic equals its path length (one word per instr).
    assert dlxe.stats.ifetch_words == dlxe.path_length
    # D16 fetches fewer words overall, but more than half its path
    # length (word-aligned fetches + branch effects, paper Table 8).
    assert d16.stats.ifetch_words < dlxe.stats.ifetch_words
    assert d16.stats.ifetch_words >= d16.path_length / 2


def test_registry_lookup():
    bench = get_benchmark("queens")
    assert bench.name == "queens"
    with pytest.raises(KeyError):
        get_benchmark("not-a-benchmark")


def test_cache_suite_members():
    from repro.experiments import CACHE_PROGRAMS

    assert set(CACHE_PROGRAMS) == {"assem", "latex", "ipl"}
    assert set(CACHE_PROGRAMS) <= {b.name for b in SUITE}


def test_sources_exist():
    for bench in SUITE:
        assert bench.path.exists()
        assert "main" in bench.source
