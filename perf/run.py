#!/usr/bin/env python3
"""Run the repository benchmark: four user jobs timed end to end.

    python3 perf/run.py [--workload W ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE]

Without ``--workload`` it runs ``paper``, ``faults``, ``lint`` and
``service`` one after another, each in a fresh child process so that
memory and imports stay separate.  Every run prints each metric with its
unit, appends a record to ``--out`` (default
``.perf-work/results.jsonl``; compare two such files with
``perf/compare.py``) and ends with one JSON line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace`` (or ``--trace 1``) makes a separate traced run that reports
the per-layer metrics of ``BENCHMARK.json`` instead of the end-to-end
ones.  A run whose outputs fail their checks publishes no metrics and
exits with 1; a run that cannot be measured prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perf-work"
#: Each run must end well inside the three minutes a run may take.
RUN_BUDGET_S = 170.0


def unit_of(metric: str) -> str:
    """Units follow from metric names (see perf/README.md)."""
    if metric.endswith(("_frac", ".share", "coverage")):
        return "fraction"
    if metric.endswith("overhead"):
        return "ratio"
    if metric.endswith("minstr_per_s"):
        return "Minstr/s"
    if metric.endswith("mrefs_per_s"):
        return "Mref/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ms", "_ms.p50", "_ms.p99")):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_sources() -> None:
    """The jobs are built and run from the checkout's own sources."""
    for path in (ROOT / "src" / "repro" / "__init__.py",
                 ROOT / "examples" / "reproduce_paper.py"):
        if not path.is_file():
            raise SystemExit(f"perf: {path.relative_to(ROOT)} is missing; "
                             f"run from a checkout of the repository")


def isolate(run_dir: Path) -> None:
    """Keep this process and its children inside the checkout: temp
    files, bytecode caches and artifact caches all live under
    ``.perf-work``, and no ``REPRO_*`` setting of the caller leaks in."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Largest resident set of this process and any child it waited for
    (Linux reports kilobytes)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def run_one(args: argparse.Namespace, name: str) -> dict:
    import workloads

    run_dir = WORK / f"run-{os.getpid()}"
    isolate(run_dir)
    speed = workloads.HostSpeed(run_dir)
    ctx = workloads.Context(run_dir, time.monotonic() + RUN_BUDGET_S, speed)
    try:
        res = workloads.run(name, args.seed, args.seconds, bool(args.trace),
                            ctx)
    finally:
        speed.close()
        workloads.stop_tracker()
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        res.metrics["peak_rss_mb"] = peak_rss_mb()
    res.notes["adjustments"] = ctx.adjustments
    return {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": int(bool(args.trace)), "correct": res.failed == 0,
            "attempted": res.attempted, "failed": res.failed,
            "metrics": res.metrics, "notes": res.notes}


def report(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}): "
          f"{record['attempted'] - record['failed']}/{record['attempted']} "
          f"checks passed, failed_frac "
          f"{record['failed'] / max(1, record['attempted']):.4f}")
    for metric, value in sorted(record["metrics"].items()):
        print(f"  {metric:32s} {value:14.6g} {unit_of(metric)}")
    for note, value in sorted(record["notes"].items()):
        print(f"  ({note}: {value})")


def result_line(records: list[dict], trace: bool) -> dict:
    """The line the benchmark ends with: only ``BENCHMARK.json``'s
    metrics, and none at all when an output check failed."""
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    correct = all(r["correct"] for r in records)
    metrics = {}
    if correct:
        for record in records:
            prefix = f"{record['workload']}/" if len(records) > 1 else ""
            for entry in spec:
                metrics[prefix + entry["name"]] = {
                    "value": record["metrics"][entry["name"]],
                    "unit": entry["unit"]}
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def run_children(args: argparse.Namespace) -> list[dict]:
    """One fresh child process per workload."""
    records = []
    for name in args.workload:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(bool(args.trace))), "--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perf: workload {name} produced no result")
        with open(args.out, encoding="utf-8") as handle:
            records.append(json.loads(handle.readlines()[-1]))
    return records


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if os.environ.get("PYTHONHASHSEED") != workloads.HASH_SEED:
        # This process hosts the service and recomputes its answers, so
        # it must hash strings the way the job processes do.
        os.environ["PYTHONHASHSEED"] = workloads.HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="warm-pass budget and service stream length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        default=WORK / "results.jsonl")
    args = parser.parse_args()
    require_sources()
    args.workload = args.workload or list(workloads.WORKLOADS)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    if len(args.workload) > 1:
        records = run_children(args)
    else:
        record = run_one(args, args.workload[0])
        report(record)
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
        records = [record]
    line = result_line(records, bool(args.trace))
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # noqa: BLE001 - no result line on failure
        print(f"perf: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
