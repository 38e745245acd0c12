"""Tests of the benchmark itself: ``pytest perf -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(PERF / "site"), str(ROOT / "src")]

import compare  # noqa: E402
import perf_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ the table

def test_every_span_table_entry_resolves():
    for module, attribute, span in perf_trace.SPANS:
        targets = perf_trace.resolve(importlib.import_module(module),
                                     attribute)
        assert targets, f"{module}.{attribute} ({span}) does not resolve"
        for _owner, _name, raw in targets:
            assert callable(raw) or isinstance(raw, classmethod)


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perf/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["unit"] == run.unit_of(entry["name"]), entry
    produced = set(workloads.layer_metrics([])) | {"trace.overhead",
                                                   "trace.coverage"}
    assert {e["name"] for e in SPEC["per_layer"]} <= produced
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == \
        max(e["bound"] for e in SPEC["end_to_end"])


# ------------------------------------------------------------ statistics

def test_nearest_rank_percentile():
    values = list(range(1000, 0, -1))
    assert workloads.percentile(values, 0.99) == 990   # ten beyond it
    assert workloads.percentile(values, 0.50) == 500
    assert workloads.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert workloads.percentile([5, 1, 4, 2, 3], 1.0) == 5
    assert workloads.percentile([7.5], 0.99) == 7.5


def _span(sid, parent, start, end, pid=1):
    return {"name": "x", "start": start, "end": end, "id": sid,
            "parent": parent, "pid": pid, "tid": 1, "key": "", "n": 0}


def test_self_time_subtracts_nested_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
             _span(3, 2, 2.0, 3.0), _span(4, 1, 5.0, 6.0),
             # Span ids are per process: this is not a child of span 1.
             _span(2, 1, 0.0, 2.0, pid=2)]
    assert perf_trace.self_times(spans) == \
        pytest.approx([6.0, 2.0, 1.0, 1.0, 2.0])


def test_latency_counts_from_due_time_under_injected_clock():
    now = [0.0]
    cost = {"a": 2.5, "b": 0.0, "c": 0.0, "d": 0.0}

    def submit(request):
        now[0] += cost[request.id]          # the service stalls here
        future = Future()
        future.set_result(SimpleNamespace(ok=True, payload={}))
        return future

    service = SimpleNamespace(scheduler=SimpleNamespace(submit=submit))
    stream = [(SimpleNamespace(id=rid), False) for rid in "abcd"]

    def sleep(seconds):
        now[0] += seconds

    samples = workloads.drive(service, stream, seconds=4.0,
                              clock=lambda: now[0], sleep=sleep)
    # Request b was due at 1.0 but could only be sent at 2.5.
    assert [workloads.latency(s) for s in samples] == \
        pytest.approx([2.5, 1.5, 0.5, 0.0])
    assert [s.sent - s.due for s in samples] == \
        pytest.approx([0.0, 1.5, 0.5, 0.0])


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1)[0] == "ok"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1)[0] == \
        "regression"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1)[0] == \
        "better"
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0]
    assert compare.verdict(base, noisy, 0.1)[0] == "unresolved"
    # Wide spread, but every run of one side beats every run of the other.
    assert compare.verdict(noisy, [20.0, 30.0, 25.0], 0.1)[0] == \
        "regression"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1,
                           lower_is_better=False)[0] == "regression"


# ------------------------------------------------------------ inputs and gates

def test_service_stream_has_one_first_time_compile_per_block():
    stream = workloads.stream_requests(3)
    assert len(stream) == workloads.STREAM_REQUESTS
    blocks = [i // workloads.MISS_EVERY
              for i, (_r, miss) in enumerate(stream) if miss]
    assert blocks == list(range(len(stream) // workloads.MISS_EVERY))
    misses = [r for r, miss in stream if miss]
    cells = {(r.bench, r.target) for r in misses}
    assert len(cells) == len(misses)
    assert cells == set(workloads.miss_cells())
    assert all(r.kind == "compile" for r in misses)
    from repro.bench import SUITE

    assert {bench for bench, _t in cells} == {b.name for b in SUITE}
    prefilled = {(r.kind, r.bench, r.target)
                 for r in workloads.prefill_requests()}
    assert all((r.kind, r.bench, r.target) in prefilled
               for r, miss in stream if not miss)
    assert not any(("compile", r.bench, r.target) in prefilled
                   for r in misses)
    assert workloads.stream_requests(3) == stream
    assert workloads.stream_requests(4) != stream


def _job(stdout, returncode=0):
    return workloads.Pass(0.0, 1.0, stdout, "", returncode, 1)


def test_paper_gate_ignores_only_the_wall_clock_line():
    golden = (workloads.GOLDEN / "paper.txt").read_text()
    lines = golden.splitlines(keepends=True)
    stdout = "".join(lines[:-1] + ["Total reproduction time: 9s\n"]
                     + lines[-1:])
    res = workloads.Result()
    workloads._paper_check(_job(stdout), 1, res)
    workloads._paper_check(_job(stdout.replace("d16", "d17", 1)), 1, res)
    assert (res.attempted, res.failed) == (2, 1)


def test_faults_gate_checks_every_cell_and_the_summary():
    text = (workloads.GOLDEN / "faults-42.json").read_text()
    golden = json.loads(text)
    res = workloads.Result()
    workloads._faults_check(_job(text), 1, res)
    assert res.failed == 0 and res.attempted == len(golden["cells"]) + 1
    broken = json.loads(text)
    broken["cells"][0]["outcomes"]["masked"] += 1
    broken["summary"]["d16"]["faults"] += 1
    workloads._faults_check(_job(json.dumps(broken)), 1, res)
    assert res.failed == 2
    workloads._faults_check(_job("not json", returncode=1), 1, res)
    assert res.failed == 2 + len(golden["cells"]) + 1


def test_lint_gate_strips_only_the_seeded_vulnerability_parts():
    g42 = json.loads((workloads.GOLDEN / "lint-42.json").read_text())
    g7 = json.loads((workloads.GOLDEN / "lint-7.json").read_text())
    assert g42 != g7
    assert workloads.strip_vuln(g42) == workloads.strip_vuln(g7)
    assert workloads.vuln_consistent(g42) and workloads.vuln_consistent(g7)
    g7["vuln"][0]["sites"] = 19
    assert not workloads.vuln_consistent(g7)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "lint"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ------------------------------------------------------------ traced smoke

@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    work = tmp_path_factory.mktemp("perf") / "run"
    return workloads.Context(work, time.monotonic() + 600)


def traced_layers(ctx, argv):
    """Layers with at least one span when ``argv`` runs traced."""
    spans_dir = ctx.fresh("spans")
    job = workloads.run_job(ctx, argv, ctx.env(cache=ctx.fresh("cache"),
                                               trace_dir=spans_dir))
    assert job.returncode == 0, job.stderr
    spans = perf_trace.load_spans(spans_dir)
    return {perf_trace.layer_of(s["name"]) for s in spans}, spans, job


def test_traced_paper_smoke(ctx):
    layers, spans, job = traced_layers(ctx, ["-c", (
        "from repro.experiments import Lab, run_cache_study\n"
        "lab = Lab(jobs=2)\n"
        "lab.runs(['ackermann'], ['d16', 'dlxe'])\n"
        "run_cache_study(lab, ('ackermann',))\n")])
    assert {"cc", "asm", "machine", "cache", "labcache",
            "experiments", "import"} <= layers
    # Forked grid workers wrote their own spans.
    assert any(s["name"] == "experiments.cell" and s["pid"] != job.pid
               for s in spans)


def test_traced_faults_smoke(ctx):
    layers, spans, job = traced_layers(ctx, [
        "-m", "repro", "faults", "ackermann", "--targets", "d16,dlxe",
        "-n", "3", "--seed", "42", "-j", "2", "--prune-masked"])
    assert {"cli", "faults", "analysis", "machine", "cc", "asm",
            "labcache", "experiments"} <= layers
    assert any(s["name"] == "faults.cell" and s["pid"] != job.pid
               for s in spans)


def test_traced_lint_smoke(ctx):
    layers, _spans, _job = traced_layers(ctx, [
        "-m", "repro", "lint", "ackermann", "--targets", "d16",
        "--wcet", "--vuln", "--json"])
    assert {"cli", "analysis", "cc", "asm", "machine", "labcache",
            "experiments", "faults"} <= layers


def test_traced_service_smoke(ctx):
    layers, spans, job = traced_layers(ctx, ["-c", (
        "import sys\n"
        "from repro.service import Request, SimulationService\n"
        "with SimulationService(sys.argv[1], jobs=1) as service:\n"
        "    for kind in ('compile', 'run', 'run'):\n"
        "        service.submit(Request(kind=kind, bench='ackermann',\n"
        "                               target='d16', id=kind))\n"),
        str(ctx.fresh("store"))])
    assert {"service", "cc", "asm", "machine", "labcache",
            "experiments"} <= layers
    # The spawned worker was traced through sitecustomize.
    assert any(s["name"] == "service.execute" and s["pid"] != job.pid
               for s in spans)
