"""Fault injection: deterministic planning, outcome classes, campaigns."""

from dataclasses import replace

import pytest

from repro.asm import assemble, link
from repro.bench import Benchmark, register_benchmark
from repro.cc import build_executable
from repro.faults import (DETECTED, FAULT_KINDS, HANG, MASKED, OUTCOMES,
                          SCHEMA_VERSION, SDC, FaultSpec, GoldenRun)
from repro.faults.campaign import (FaultCampaign, plan_cell, render_report,
                                   run_cell)
from repro.faults.inject import (FunctionMap, fuel_for, run_cache_fault,
                                 run_fault)
from repro.isa import D16, DLXE
from repro.machine import (Machine, MachineTimeout, PipelineParams,
                           run_executable)
from repro.machine import cpu as cpu_mod

HEADER = ".text\n.global _start\n_start:\n"

#: Stores then repeatedly loads through r4; accumulates into r2;
#: prints chr(21) and exits 0.  Every register is script-controlled,
#: so faults can be aimed precisely.
LOOP_BODY = """
mvi r4, 8
shli r4, r4, 12
mvi r5, 77
st r5, (r4)
mvi r2, 0
mvi r0, 6
loop:
add r2, r2, r0
ld r6, (r4)
subi r0, r0, 1
bnz r0, loop
trap 1
mvi r2, 0
trap 0
"""

#: In-loop trigger: past the 6 setup instructions, mid first iterations.
IN_LOOP = 8


def build_asm(body, isa=D16):
    return link([assemble(HEADER + body, isa)])


def golden_of(exe, stdin=b""):
    machine = Machine(exe, stdin=stdin)
    stats = machine.run()
    return GoldenRun(instructions=stats.instructions,
                     interlocks=stats.interlocks,
                     exit_code=stats.exit_code, output=stats.output)


def spec(kind, trigger, **coords):
    return FaultSpec(index=0, bench="t", target="d16", kind=kind,
                     trigger=trigger, **coords)


class TestOutcomeClasses:
    @pytest.fixture(scope="class")
    def loop_exe(self):
        return build_asm(LOOP_BODY)

    @pytest.fixture(scope="class")
    def loop_golden(self, loop_exe):
        golden = golden_of(loop_exe)
        assert golden.output == chr(21) and golden.exit_code == 0
        return golden

    def test_unused_register_flip_is_masked(self, loop_exe, loop_golden):
        result = run_fault(loop_exe, spec("reg", 2, reg=9, bit=3),
                           loop_golden)
        assert result.outcome == MASKED
        assert not result.stats_differ

    def test_accumulator_flip_is_sdc(self, loop_exe, loop_golden):
        result = run_fault(loop_exe, spec("reg", IN_LOOP, reg=2, bit=4),
                           loop_golden)
        assert result.outcome == SDC

    def test_pointer_flip_is_detected_with_latency(self, loop_exe,
                                                   loop_golden):
        result = run_fault(loop_exe, spec("reg", IN_LOOP, reg=4, bit=31),
                           loop_golden)
        assert result.outcome == DETECTED
        assert result.latency_cycles is not None
        assert result.latency_cycles >= 0
        assert "MachineError" in result.detail

    def test_counter_flip_is_hang(self, loop_exe, loop_golden):
        result = run_fault(loop_exe, spec("reg", IN_LOOP, reg=0, bit=24),
                           loop_golden)
        assert result.outcome == HANG
        assert "instruction limit" in result.detail

    def test_trigger_past_exit_is_masked(self, loop_exe, loop_golden):
        result = run_fault(
            loop_exe, spec("reg", loop_golden.instructions + 5,
                           reg=2, bit=0), loop_golden)
        assert result.outcome == MASKED
        assert "exited before" in result.detail

    def test_ifetch_flip_classifies(self, loop_exe, loop_golden):
        for bit in range(8):
            result = run_fault(loop_exe, spec("ifetch", IN_LOOP, bit=bit),
                               loop_golden)
            assert result.outcome in OUTCOMES
            assert "flipped bit" in result.detail

    def test_dlxe_r0_flip_is_absorbed(self):
        exe = build_asm("mvi r2, 5\ntrap 1\nmvi r2, 0\ntrap 0\n", DLXE)
        golden = golden_of(exe)
        result = run_fault(exe, spec("reg", 1, reg=0, bit=5), golden)
        assert result.outcome == MASKED
        assert "absorbed" in result.detail

    def test_d16_r0_flip_is_live(self, loop_exe, loop_golden):
        """The same flip D16: r0 is the loop counter, a real register."""
        result = run_fault(loop_exe, spec("reg", IN_LOOP, reg=0, bit=0),
                           loop_golden)
        assert result.outcome != MASKED

    def test_getc_eof_fault_is_sdc(self):
        exe = build_asm("mvi r3, 0\ntrap 2\ntrap 1\nmvi r2, 0\ntrap 0\n")
        golden = golden_of(exe, stdin=b"Z")
        assert golden.output == "Z"
        # Campaign programs read an empty stdin; a golden checkpoint
        # carries its own.
        paused = Machine(exe, stdin=b"Z")
        paused.run(stop_after=1)
        result = run_fault(exe, spec("trap", 1, mode="getc-eof"), golden,
                           checkpoints=[paused.snapshot()])
        assert result.outcome == SDC

    def test_sbrk_exhaust_fault_is_sdc(self):
        body = ("mvi r2, 64\ntrap 3\nshri r2, r2, 31\nmvi r3, 65\n"
                "add r2, r2, r3\ntrap 1\nmvi r2, 0\ntrap 0\n")
        exe = build_asm(body)
        golden = golden_of(exe)
        assert golden.output == "A"        # sbrk succeeded
        result = run_fault(exe, spec("trap", 1, mode="sbrk-exhaust"),
                           golden)
        assert result.outcome == SDC       # now prints "B"

    def test_results_are_deterministic(self, loop_exe, loop_golden):
        one = run_fault(loop_exe, spec("reg", IN_LOOP, reg=2, bit=4),
                        loop_golden)
        two = run_fault(loop_exe, spec("reg", IN_LOOP, reg=2, bit=4),
                        loop_golden)
        assert one.to_dict() == two.to_dict()

    def test_fuel_scales_with_golden(self):
        assert fuel_for(GoldenRun(100, 0, 0)) == 10_400
        big = GoldenRun(10**12, 0, 0)
        from repro.machine import DEFAULT_FUEL
        assert fuel_for(big) == DEFAULT_FUEL


class TestCacheFaults:
    ADDRESSES = list(range(0, 8192, 8)) * 2

    def test_valid_bit_flip_mid_stream_is_sdc(self):
        result = run_cache_fault(
            self.ADDRESSES, spec("cache", 1024, line=0, bit=0))
        assert result.outcome == SDC
        assert "misses" in result.detail

    def test_corruption_before_any_access_is_masked(self):
        """A flipped tag on a never-matching cold line changes nothing."""
        result = run_cache_fault(
            self.ADDRESSES, spec("cache", len(self.ADDRESSES),
                                 line=3, bit=9))
        assert result.outcome == MASKED


class TestFunctionMap:
    def test_bisect_attribution(self):
        fmap = FunctionMap({"main": 0x100, "helper": 0x200})
        assert fmap.function_at(0x100) == "main"
        assert fmap.function_at(0x1FE) == "main"
        assert fmap.function_at(0x200) == "helper"
        assert fmap.function_at(0x50) == ""

    def test_for_source_names_real_functions(self):
        source = "int f(int x) { return x + 1; }\n" \
                 "int main() { puti(f(1)); return 0; }"
        fmap = FunctionMap.for_source(source, "d16")
        assert "main" in fmap._names and "f" in fmap._names

    @pytest.mark.parametrize("target", ["d16", "dlxe"])
    @pytest.mark.parametrize("name", ["ackermann", "queens", "quicksort",
                                      "towers"])
    def test_image_table_matches_value_analysis(self, lab, name, target):
        """The linked table attributes exactly as the value analysis's
        function starts did before campaigns stopped recompiling."""
        from repro.analysis.xisa import analyze_source
        from repro.bench import get_benchmark

        table = FunctionMap(lab.executable(name, target).functions)
        summaries = analyze_source(get_benchmark(name).source,
                                   target).functions
        analysis = FunctionMap({fn: summary.start
                                for fn, summary in summaries.items()})
        assert table._names and (table._starts, table._names) == \
            (analysis._starts, analysis._names)


SUM_SOURCE = """
int main() {
    int i;
    int s;
    s = 0;
    for (i = 1; i <= 50; i = i + 1) s = s + i * i;
    puti(s);
    putchar(10);
    return 0;
}
"""

SPIN_SOURCE = """
int main() {
    int i;
    i = 1;
    while (i) i = i + 2;
    return 0;
}
"""


@pytest.fixture(scope="module")
def fault_benchmarks():
    register_benchmark(Benchmark(
        "fi-sum", "sum of squares (fault-injection fixture)",
        ("42925",), inline_source=SUM_SOURCE))
    register_benchmark(Benchmark(
        "fi-spin", "never terminates (fault-injection fixture)",
        ("unreachable",), inline_source=SPIN_SOURCE))
    return ("fi-sum", "fi-spin")


class TestPlanning:
    @pytest.fixture(scope="class")
    def exe(self):
        return build_executable(SUM_SOURCE, "d16").executable

    def test_same_seed_same_plan(self, exe):
        golden = GoldenRun(5000, 0, 0)
        one = plan_cell("b", "d16", golden, exe, faults=30, seed=9)
        two = plan_cell("b", "d16", golden, exe, faults=30, seed=9)
        assert one == two

    def test_different_seed_different_plan(self, exe):
        golden = GoldenRun(5000, 0, 0)
        assert plan_cell("b", "d16", golden, exe, faults=30, seed=1) != \
            plan_cell("b", "d16", golden, exe, faults=30, seed=2)

    def test_cell_key_isolates_streams(self, exe):
        """Each (bench, target) cell draws from its own PRNG stream."""
        golden = GoldenRun(5000, 0, 0)
        a = plan_cell("b", "d16", golden, exe, faults=10, seed=1)
        b = plan_cell("b", "dlxe", golden, exe, faults=10, seed=1)
        assert [s.to_dict() for s in a] != [s.to_dict() for s in b]

    def test_specs_are_in_range(self, exe):
        golden = GoldenRun(5000, 0, 0)
        for s in plan_cell("b", "d16", golden, exe, faults=200, seed=3):
            assert s.kind in FAULT_KINDS
            assert 1 <= s.trigger < 5000
            if s.kind == "ifetch":
                assert 0 <= s.bit < 16      # D16 instruction words
            elif s.kind == "reg":
                assert 0 <= s.reg < 32 and 0 <= s.bit < 32
            elif s.kind == "mem":
                assert s.addr >= exe.data_base
            elif s.kind == "trap":
                assert s.mode in ("getc-eof", "sbrk-exhaust")


def fresh_cache(monkeypatch, path):
    """Point every Lab built from here on (forked workers included) at
    an empty artifact cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))


class TestCampaign:
    def test_report_identical_jobs1_vs_jobs2(self, fault_benchmarks,
                                             tmp_path, monkeypatch):
        fresh_cache(monkeypatch, tmp_path / "cache")

        def campaign():
            return FaultCampaign(benchmarks=("fi-sum",), faults=6,
                                 seed=11)
        text1 = render_report(campaign().run(jobs=1))
        text2 = render_report(campaign().run(jobs=2))
        assert text1 == text2

    def test_report_shape_and_rates(self, fault_benchmarks):
        report = FaultCampaign(
            benchmarks=("fi-sum",), faults=6, seed=11).run()
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["kind"] == "fault-campaign"
        assert set(report["summary"]) == {"d16", "dlxe"}
        for cell in report["cells"]:
            assert sum(cell["outcomes"].values()) == 6
            assert len(cell["faults"]) == 6
            assert 0.0 <= cell["sdc_rate"] <= 1.0
            for fault in cell["faults"]:
                assert fault["outcome"] in OUTCOMES

    def test_hung_golden_run_is_an_error_cell(self, fault_benchmarks,
                                              short_fuel, tmp_path,
                                              monkeypatch):
        """A benchmark that never terminates must not block the grid."""
        fresh_cache(monkeypatch, tmp_path / "cache")
        report = FaultCampaign(
            benchmarks=("fi-sum", "fi-spin"), faults=3, seed=2,
        ).run(jobs=2)
        by_cell = {(c["bench"], c["target"]): c for c in report["cells"]}
        for target in ("d16", "dlxe"):
            bad = by_cell[("fi-spin", target)]
            assert "golden run failed" in bad["error"]
            assert "MachineTimeout" in bad["error"]
            good = by_cell[("fi-sum", target)]
            assert sum(good["outcomes"].values()) == 3
        # Error cells are excluded from the aggregate rates.
        assert report["summary"]["d16"]["faults"] == 3

    def test_dead_worker_does_not_fail_its_siblings(
            self, fault_benchmarks, dying_build, tmp_path, monkeypatch):
        """The dying cells break the shared pool; the healthy cells are
        retried alone and report what they report without them."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "RETRY_DELAY_S", 0.0)

        def cells(*benchmarks):
            fresh_cache(monkeypatch, tmp_path / "-".join(benchmarks))
            report = FaultCampaign(
                benchmarks=benchmarks, faults=3, seed=2).run(jobs=2)
            return {(c["bench"], c["target"]): c for c in report["cells"]}

        mixed = cells(dying_build, "fi-sum")
        alone = cells("fi-sum")
        for target in ("d16", "dlxe"):
            assert mixed[("fi-sum", target)] == alone[("fi-sum", target)]
            assert "worker process died" in \
                mixed[(dying_build, target)]["error"]

    def test_one_golden_simulation_per_cell(self, fault_benchmarks,
                                            tmp_path, monkeypatch):
        """A pruned cell's traced run is its golden run: one simulation."""
        from repro.experiments import runner

        calls = []
        real = runner.run_executable

        def counting(exe, **kwargs):
            calls.append(kwargs.get("trace_instructions", False))
            return real(exe, **kwargs)

        monkeypatch.setattr(runner, "run_executable", counting)
        fresh_cache(monkeypatch, tmp_path / "cache")
        report = FaultCampaign(
            benchmarks=("fi-sum",), faults=6, seed=11,
            prune_masked=True).run(jobs=1)
        assert len(report["cells"]) == 2
        assert calls == [True, True]

    def test_cached_trace_gets_checkpoints_from_one_untraced_run(
            self, fault_benchmarks, tmp_path, monkeypatch):
        """A cache that holds the traces but no checkpoints, as
        ``repro lint --vuln`` leaves it: one untraced paused run per
        cell builds them, the report equals a fresh cache's, and the
        next campaign simulates no golden run."""
        from repro.experiments import Lab, runner

        def campaign():
            return render_report(FaultCampaign(
                benchmarks=("fi-sum",), faults=6, seed=11,
                prune_masked=True).run(jobs=1))

        fresh_cache(monkeypatch, tmp_path / "fresh")
        want = campaign()
        fresh_cache(monkeypatch, tmp_path / "traced")
        lab = Lab()
        for target in ("d16", "dlxe"):
            lab.trace("fi-sum", target)
        calls = []
        real = runner.run_executable

        def counting(exe, **kwargs):
            calls.append((kwargs.get("trace_instructions", False),
                          kwargs.get("checkpoints") is not None))
            return real(exe, **kwargs)

        monkeypatch.setattr(runner, "run_executable", counting)
        assert campaign() == want
        assert calls == [(False, True), (False, True)]
        calls.clear()
        assert campaign() == want
        assert calls == []

    def test_report_identical_on_step_engine(self, fault_benchmarks,
                                             tmp_path, monkeypatch):
        """Traced goldens and every injection agree with the oracle."""
        def campaign(engine):
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            fresh_cache(monkeypatch, tmp_path / engine)
            return render_report(FaultCampaign(
                benchmarks=("fi-sum",), faults=12, seed=5,
                prune_masked=True).run(jobs=1))
        assert campaign("step") == campaign("blocks")

    def test_golden_prefix_is_simulated_once(self, fault_benchmarks,
                                             tmp_path, monkeypatch):
        """The golden run stores checkpoints, and each site walks from
        the last one before its trigger: fewer fault-free instructions
        than the checkpoint spacing, with the report unchanged."""
        from repro.machine import cpu

        def campaign(every, cache):
            monkeypatch.setattr(cpu, "CHECKPOINT_EVERY", every)
            fresh_cache(monkeypatch, cache)
            return FaultCampaign(
                benchmarks=("fi-sum",), targets=("d16",), faults=12,
                seed=3, kinds=("ifetch", "reg", "mem", "trap")).run(jobs=1)

        # fi-sum retires 816 instructions on d16: 8 checkpoints.
        unpaused = campaign(10**9, tmp_path / "unpaused")
        assert campaign(100, tmp_path / "cache") == unpaused
        walks = []
        real = Machine.run

        def counting(machine, *args, stop_after=None, **kwargs):
            before = machine.instructions_executed
            try:
                return real(machine, *args, stop_after=stop_after,
                            **kwargs)
            finally:
                if stop_after is not None:
                    walks.append(machine.instructions_executed - before)

        monkeypatch.setattr(Machine, "run", counting)
        assert campaign(100, tmp_path / "cache") == unpaused
        triggers = [fault["trigger"]
                    for fault in unpaused["cells"][0]["faults"]]
        assert max(triggers) > 300 and len(walks) == len(triggers)
        assert max(walks) < 100

    def test_unknown_benchmark_raises_before_running(self):
        with pytest.raises(KeyError):
            FaultCampaign(benchmarks=("fortnite",)).run()
        with pytest.raises(KeyError, match="unknown target 'riscv'"):
            FaultCampaign(benchmarks=("ackermann",),
                          targets=("riscv",)).run()


def _fresh_cell(bench, target, config):
    """One campaign cell's non-cache sites, each on a fresh machine."""
    from repro.experiments import Lab

    lab = Lab(cache=config["cache"])
    exe = lab.executable(bench, target)
    stats = lab.trace(bench, target).run.stats
    golden = GoldenRun(instructions=stats.instructions,
                       interlocks=stats.interlocks,
                       exit_code=stats.exit_code, output=stats.output)
    functions = FunctionMap(exe.functions)
    return {s.index: run_fault(exe, s, golden, params=lab.params,
                               functions=functions).to_dict()
            for s in plan_cell(bench, target, golden, exe,
                               faults=config["faults"], seed=config["seed"])
            if s.kind != "cache"}


class TestCheckpointStart:
    """Each site restores the last golden checkpoint at or before its
    trigger, or starts a fresh machine when there is none; every result
    equals a fresh machine per site (``run_fault`` without
    checkpoints)."""

    @staticmethod
    def checkpoints(monkeypatch, exe, every, **kwargs):
        """Snapshots of ``exe``'s golden run, one every ``every``
        retired instructions, as a campaign's golden run stores them."""
        monkeypatch.setattr(cpu_mod, "CHECKPOINT_EVERY", every)
        snapshots = []
        try:
            run_executable(exe, checkpoints=snapshots, **kwargs)
        except MachineTimeout:
            pass
        return snapshots

    @staticmethod
    def fresh(exe, specs, golden, **kwargs):
        return {s.index: run_fault(exe, s, golden, **kwargs).to_dict()
                for s in specs}

    @staticmethod
    def restored(monkeypatch, exe, specs, golden, checkpoints):
        """Each site's result from ``checkpoints``, and the retired count
        of the snapshot it restored (0 for a fresh machine)."""
        starts = []
        real = Machine.restore

        def restore(exe, snapshot, **kwargs):
            starts.append(snapshot.executed)
            return real(exe, snapshot, **kwargs)

        monkeypatch.setattr(Machine, "restore", restore)
        results, started = {}, {}
        for s in specs:
            starts.append(0)
            results[s.index] = run_fault(exe, s, golden,
                                         checkpoints=checkpoints).to_dict()
            started[s.trigger] = starts[-1]
        return results, started

    def test_suite_campaign_equals_fresh_machine_per_site(self, lab):
        """40 unpruned sites of all five kinds on two suite programs
        and both ISAs, compared site by site."""
        from repro.experiments.runner import fan_out

        config = {"faults": 40, "seed": 3, "cache": lab.cache}
        report = FaultCampaign(benchmarks=("ackermann", "dhrystone"),
                               faults=config["faults"],
                               seed=config["seed"]).run(jobs=2)
        cells = [(c["bench"], c["target"]) for c in report["cells"]]
        fresh = fan_out(_fresh_cell, cells, 2, config)
        outcomes, kinds = set(), set()
        for cell in report["cells"]:
            want = fresh[cell["bench"], cell["target"]]
            got = {fault["index"]: fault for fault in cell["faults"]}
            assert {i: got[i] for i in want} == want, cell["bench"]
            outcomes |= {fault["outcome"] for fault in cell["faults"]}
            kinds |= {fault["kind"] for fault in cell["faults"]}
        assert kinds == set(FAULT_KINDS)
        assert {MASKED, SDC, DETECTED, HANG} <= outcomes

    @pytest.mark.parametrize("isa", [D16, DLXE], ids=["d16", "dlxe"])
    def test_triggers_around_checkpoints_match_fresh_machines(
            self, monkeypatch, isa):
        """Checkpoints every 5 instructions; triggers before the first,
        on one, between two, and past the program's end."""
        body = LOOP_BODY if isa is D16 else LOOP_BODY.replace("r0", "r1")
        exe = build_asm(body, isa)
        golden = golden_of(exe)
        checkpoints = self.checkpoints(monkeypatch, exe, 5)
        marks = [c.executed for c in checkpoints]
        assert marks == list(range(5, golden.instructions, 5))
        end = golden.instructions
        triggers = (3, 5, 8, 10, 12, 14, marks[-1], end - 1, end, end + 5,
                    100)
        aims = (("ifetch", {"bit": 3}), ("reg", {"reg": 2, "bit": 4}),
                ("reg", {"reg": 6, "bit": 0}),
                ("mem", {"addr": 0x8000, "bit": 1}))
        specs = [replace(spec(kind, trigger, **coords),
                         index=len(aims) * i + j)
                 for i, trigger in enumerate(triggers)
                 for j, (kind, coords) in enumerate(aims)]
        results, started = self.restored(monkeypatch, exe, specs, golden,
                                         checkpoints)
        assert results == self.fresh(exe, specs, golden)
        assert started == {t: max((m for m in marks if m <= t), default=0)
                           for t in triggers}
        details = [r["detail"] for r in results.values()]
        assert details.count("program exited before the trigger "
                             "point") == 3 * len(aims)

    def test_pre_injection_failure_matches_fresh_machines(self,
                                                          monkeypatch):
        """A golden path that fails before the later triggers: those
        sites restore the last checkpoint before the failure and report
        it as a fresh machine does."""
        exe = build_asm("mvi r0, 1\nspin:\naddi r2, r2, 1\n"
                        "bnz r0, spin\ntrap 0\n")
        # Claiming 10 golden instructions caps the fuel at 10040, so
        # the spin loop exhausts it before the triggers past that.
        golden = GoldenRun(instructions=10, interlocks=0, exit_code=0)
        checkpoints = self.checkpoints(monkeypatch, exe, 1000,
                                       max_instructions=fuel_for(golden))
        assert checkpoints[-1].executed == 10_000
        specs = [replace(spec("reg", trigger, reg=5, bit=1), index=i)
                 for i, trigger in enumerate((12_000, 3, 20_000, 9_000,
                                              10_040, 12_000))]
        results, started = self.restored(monkeypatch, exe, specs, golden,
                                         checkpoints)
        assert results == self.fresh(exe, specs, golden)
        assert started == {12_000: 10_000, 3: 0, 20_000: 10_000,
                           9_000: 9_000, 10_040: 10_000}
        failed = [r for r in results.values()
                  if r["detail"].startswith("pre-injection failure")]
        assert len(failed) == 3
        assert all("after 10041 instructions" in r["detail"]
                   for r in failed)

    def test_non_default_pipeline_matches_fresh_machines(
            self, fault_benchmarks, tmp_path, monkeypatch):
        """A cell on a Lab with another latency table: its golden run,
        checkpoints and every restored site use that table."""
        from repro.experiments import Lab

        monkeypatch.setattr(cpu_mod, "CHECKPOINT_EVERY", 100)
        fresh_cache(monkeypatch, tmp_path / "cache")
        params = PipelineParams(load_delay=2, math_latency={
            **PipelineParams().math_latency, "imul": 6})
        lab = Lab(params=params)
        report = run_cell(lab, "fi-sum", "d16", faults=16, seed=3,
                          kinds=("ifetch", "reg", "mem", "trap"),
                          prune=False)
        assert len(lab.checkpoints("fi-sum", "d16", traced=False)) == 8
        exe = lab.executable("fi-sum", "d16")
        functions = FunctionMap(exe.functions)
        want = [run_fault(exe, r.spec, report.golden, params=params,
                          functions=functions).to_dict()
                for r in report.results]
        assert [r.to_dict() for r in report.results] == want
        default = Lab().run("fi-sum", "d16").stats.interlocks
        assert report.golden.interlocks > default
        assert {r.outcome for r in report.results} >= {MASKED, SDC}
