#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 perf/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``perf/run.py --out FILE`` appended; only
untraced runs count.  For every end-to-end metric of ``BENCHMARK.json``
and every workload both sides ran, a row reports each side's median and
spread (interquartile range over median) and a verdict:

* ``regression`` -- the change's median is worse than the base's by
  more than the metric's bound;
* ``unresolved`` -- a side's spread is wider than the bound, so a
  difference that size cannot be told from noise, unless every run of
  one side is better than every run of the other;
* ``better`` / ``ok`` otherwise.

A change that fails more operations than the base is a regression too.
Exits with 1 when any row is a regression or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], change: list[float], bound: float,
            lower_is_better: bool = True) -> tuple[str, float, float]:
    """(verdict, relative worsening of the median, wider spread)."""
    sign = 1.0 if lower_is_better else -1.0
    base_med = statistics.median(base)
    worse = sign * (statistics.median(change) - base_med) / base_med
    wide = max(spread(base), spread(change))
    # In ``sign``-scaled values smaller is always better.
    scaled_base = [sign * v for v in base]
    scaled_change = [sign * v for v in change]
    separated = (max(scaled_change) < min(scaled_base)
                 or min(scaled_change) > max(scaled_base))
    if wide > bound and not separated:
        return "unresolved", worse, wide
    if worse > bound:
        return "regression", worse, wide
    return ("better" if worse < -bound else "ok"), worse, wide


def compare(base: dict[str, list[dict]], change: dict[str, list[dict]],
            metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        for metric in metrics:
            name = metric["name"]
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            result, worse, wide = verdict(va, vb, metric["bound"],
                                          metric["better"] == "lower")
            rows.append({"metric": name, "workload": workload,
                         "base": statistics.median(va),
                         "change": statistics.median(vb), "worse": worse,
                         "spread": wide, "bound": metric["bound"],
                         "runs": f"{len(va)}/{len(vb)}",
                         "verdict": result})
        failed_a = sum(r["failed"] for r in a) / len(a)
        failed_b = sum(r["failed"] for r in b) / len(b)
        rows.append({"metric": "failed", "workload": workload,
                     "base": failed_a, "change": failed_b, "worse": 0.0,
                     "spread": 0.0, "bound": 0.0,
                     "runs": f"{len(a)}/{len(b)}",
                     "verdict": "regression" if failed_b > failed_a
                     else "ok"})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.change), spec["end_to_end"])
    print(f"{'metric':12s} {'workload':9s} {'base':>11s} {'change':>11s} "
          f"{'worse':>7s} {'spread':>7s} {'bound':>6s} {'runs':>6s}  "
          f"verdict")
    for row in rows:
        print(f"{row['metric']:12s} {row['workload']:9s} "
              f"{row['base']:11.5g} {row['change']:11.5g} "
              f"{row['worse']:+7.1%} {row['spread']:7.1%} "
              f"{row['bound']:6.0%} {row['runs']:>6s}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
