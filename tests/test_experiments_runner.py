"""Experiment runner infrastructure."""

import pytest

import repro.experiments.runner as runner
from repro.bench import Benchmark, register_benchmark
from repro.experiments import Lab, RunError, default_programs, mean
from repro.experiments.runner import (ExperimentError, MAIN_TARGETS,
                                      PAPER_TARGETS)
from repro.labcache import ArtifactCache
from repro.machine.pipeline import PipelineParams


class TestHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_default_programs(self):
        full = default_programs()
        fast = default_programs(fast=True)
        assert len(full) == 15
        assert set(fast) <= set(full)
        assert len(fast) < len(full)

    def test_target_lists(self):
        assert set(MAIN_TARGETS) <= set(PAPER_TARGETS)
        assert "d16" in PAPER_TARGETS and "dlxe" in PAPER_TARGETS


class TestLab:
    @pytest.fixture(scope="class")
    def small_lab(self):
        return Lab()

    def test_run_grid(self, small_lab):
        grid = small_lab.runs(["ackermann"], ("d16", "dlxe"))
        assert set(grid) == {"ackermann"}
        assert set(grid["ackermann"]) == {"d16", "dlxe"}

    def test_executable_shared_between_run_and_trace(self, small_lab):
        exe_before = small_lab.executable("ackermann", "d16")
        small_lab.run("ackermann", "d16")
        assert small_lab.executable("ackermann", "d16") is exe_before

    def test_trace_consistent_with_run(self, small_lab):
        run = small_lab.run("ackermann", "d16")
        trace = small_lab.trace("ackermann", "d16")
        assert trace.run.stats.instructions == run.stats.instructions
        assert len(trace.itrace) == run.stats.instructions
        assert len(trace.dtrace) == run.stats.mem_ops

    def test_unknown_benchmark(self, small_lab):
        with pytest.raises(KeyError):
            small_lab.run("fortnite", "d16")

    def test_unknown_target(self, small_lab):
        with pytest.raises(KeyError):
            small_lab.run("ackermann", "riscv")


class TestParallelGrid:
    PROGRAMS = ("ackermann", "queens")

    def test_jobs2_equals_jobs1(self, tmp_path):
        """Parallel fan-out must assemble the identical grid, under the
        default and non-default pipeline parameters alike."""
        interlocks = []
        for index, params in enumerate((None, PipelineParams(load_delay=2))):
            sequential = Lab(cache=False, params=params)
            grid1 = sequential.runs(self.PROGRAMS, MAIN_TARGETS)
            parallel = Lab(cache=ArtifactCache(tmp_path / f"cache{index}"),
                           params=params, jobs=2)
            grid2 = parallel.runs(self.PROGRAMS, MAIN_TARGETS)

            assert list(grid1) == list(grid2)
            for name in grid1:
                assert list(grid1[name]) == list(grid2[name])
                for target in grid1[name]:
                    a, b = grid1[name][target], grid2[name][target]
                    assert a.stats == b.stats
                    assert (a.binary_size, a.text_size) == \
                        (b.binary_size, b.text_size)
                    assert a.bench is b.bench
                    assert a.target_name == b.target_name
            interlocks.append(grid2["queens"]["dlxe"].stats.interlocks)
        # The load delay reached the workers: it changes the interlocks.
        assert interlocks[0] != interlocks[1]

    def test_parallel_workers_populate_shared_cache(self, tmp_path):
        lab = Lab(cache=ArtifactCache(tmp_path / "cache"), jobs=2)
        lab.runs(("ackermann",), MAIN_TARGETS)
        # Both cells (exe + run artifacts) must be on disk now.
        assert lab.cache.stats().entries >= 4

    def test_invalid_cell_raises_before_forking(self, tmp_path):
        lab = Lab(cache=False, jobs=2)
        with pytest.raises(KeyError):
            lab.runs(("ackermann", "fortnite"), MAIN_TARGETS)


SPIN_SOURCE = """
int main() {
    int i;
    i = 1;
    while (i) i = i + 2;
    return 0;
}
"""

#: Output never matches its expected marker -> deterministic failure.
BAD_SOURCE = "int main() { puti(7); return 0; }"


@pytest.fixture(scope="module")
def failsoft_benchmarks():
    register_benchmark(Benchmark(
        "fs-spin", "never terminates (fail-soft fixture)",
        ("unreachable",), inline_source=SPIN_SOURCE))
    register_benchmark(Benchmark(
        "fs-bad", "always miscompares (fail-soft fixture)",
        ("impossible-marker",), inline_source=BAD_SOURCE))
    return ("fs-spin", "fs-bad")


def cache_settings(tmp_path):
    """``_grid_cell_worker`` settings for a Lab on a fresh cache."""
    return {"cache": ArtifactCache(tmp_path / "cache")}


class TestFailSoftGrid:
    """A failing cell yields a typed record; the rest still completes."""

    def test_worker_raise_yields_error_cell(self, failsoft_benchmarks,
                                            tmp_path):
        """A deterministic in-worker failure must not kill the sweep."""
        cells = [(name, target) for name in ("ackermann", "fs-bad")
                 for target in MAIN_TARGETS]
        results = runner.fan_out(runner._grid_cell_worker, cells, 2,
                                 cache_settings(tmp_path))
        for target in MAIN_TARGETS:
            err = results["fs-bad", target]
            assert isinstance(err, RunError)
            assert err.kind == "error" and err.attempts == 1
            stats, _binary_size, _text_size = results["ackermann", target]
            assert stats.instructions > 0

    def test_hung_benchmark_detected_by_watchdog(self, failsoft_benchmarks,
                                                 short_fuel, tmp_path):
        """A simulated hang trips the instruction fuel, not the clock."""
        cells = [(name, target) for name in ("ackermann", "fs-spin")
                 for target in MAIN_TARGETS]
        results = runner.fan_out(runner._grid_cell_worker, cells, 2,
                                 cache_settings(tmp_path))
        for target in MAIN_TARGETS:
            err = results["fs-spin", target]
            assert isinstance(err, RunError)
            assert err.kind == "error"
            assert "MachineTimeout" in err.message
            stats, _binary_size, _text_size = results["ackermann", target]
            assert stats.instructions > 0

    def test_non_partial_raises_first_error_in_grid_order(
            self, failsoft_benchmarks, short_fuel):
        lab = Lab(cache=False, jobs=2)
        with pytest.raises(ExperimentError, match="fs-spin/d16"):
            lab.runs(("fs-spin", "fs-bad"), MAIN_TARGETS)

    def test_dead_worker_retried_then_reported(self, dying_build,
                                               tmp_path, monkeypatch):
        """Worker-process death is retried, then typed worker-lost, and
        the grid raises it."""
        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)
        lab = Lab(cache=ArtifactCache(tmp_path / "cache"), jobs=2)
        # First try + one retry.
        with pytest.raises(ExperimentError,
                           match=f"{dying_build}/d16: worker-lost after "
                                 r"2 attempt\(s\)"):
            lab.runs((dying_build,), MAIN_TARGETS)

    def test_dead_worker_does_not_fail_its_siblings(self, dying_build,
                                                    tmp_path, monkeypatch):
        """The dying cells break the shared pool; the healthy cells are
        retried alone and match a sequential run."""
        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)
        cells = [(name, target) for name in (dying_build, "ackermann")
                 for target in MAIN_TARGETS]
        results = runner.fan_out(runner._grid_cell_worker, cells, 2,
                                 cache_settings(tmp_path))
        sequential = Lab(cache=False).runs(("ackermann",), MAIN_TARGETS)
        for target in MAIN_TARGETS:
            assert results[dying_build, target].kind == "worker-lost"
            run = sequential["ackermann"][target]
            assert results["ackermann", target] == \
                (run.stats, run.binary_size, run.text_size)

    def test_run_error_diagnostics_survive_into_records(
            self, dying_build, monkeypatch, tmp_path):
        """A lost cell's record carries its kind, its attempt count
        (one per :data:`RETRIES`, plus the first) and the cause."""
        monkeypatch.setattr(runner, "RETRIES", 2)
        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)
        results = runner.fan_out(runner._grid_cell_worker,
                                 [(dying_build, "d16")], 2,
                                 cache_settings(tmp_path))
        err = results[dying_build, "d16"]
        assert isinstance(err, RunError)
        assert (err.kind, err.attempts) == ("worker-lost", 3)
        assert str(err).startswith(
            f"{dying_build}/d16: worker-lost after 3 attempt(s): "
            f"worker process died")


class TestFanOut:
    def test_dead_worker_charged_only_to_its_cell(
            self, failsoft_benchmarks, dying_build, tmp_path, monkeypatch):
        """One batch with a healthy cell, a raising cell and a dying
        cell: only the dying cell is lost, after every retry."""
        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)
        cells = [(dying_build, "d16"), ("fs-bad", "d16"),
                 ("ackermann", "d16"), ("queens", "d16")]
        results = runner.fan_out(runner._grid_cell_worker, cells, 2,
                                 cache_settings(tmp_path))
        assert set(results) == set(cells)
        lost = results[dying_build, "d16"]
        assert isinstance(lost, RunError)
        assert lost.kind == "worker-lost"
        assert lost.attempts == runner.RETRIES + 1
        assert "worker process died" in lost.message
        bad = results["fs-bad", "d16"]
        assert isinstance(bad, RunError)
        assert bad.kind == "error" and "ExperimentError" in bad.message
        lab = Lab(cache=False)
        for name in ("ackermann", "queens"):
            run = lab.run(name, "d16")
            assert results[name, "d16"] == \
                (run.stats, run.binary_size, run.text_size)

    def test_submit_to_a_broken_pool_is_a_lost_attempt(self, tmp_path,
                                                       monkeypatch):
        """Once a worker has died, ``submit`` itself raises; that cell
        is retried alone like the cells the death interrupted."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)
        real_submit = ProcessPoolExecutor.submit
        refused = []

        def submit(pool, fn, *args):
            if not refused:
                refused.append(args[:2])
                raise BrokenProcessPool("a worker died")
            return real_submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        cells = [("ackermann", "d16"), ("queens", "d16")]
        results = runner.fan_out(runner._grid_cell_worker, cells, 2,
                                 cache_settings(tmp_path))
        assert refused == [("ackermann", "d16")]
        lab = Lab(cache=False)
        for name, target in cells:
            run = lab.run(name, target)
            assert results[name, target] == \
                (run.stats, run.binary_size, run.text_size)
