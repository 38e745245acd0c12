"""Chaos harness: seeded fault injection with a byte-compare oracle.

The harness replays one deterministic request stream twice:

1. against a **clean** service (no injections) — the oracle run;
2. against a **chaos** service whose worker pool kills, hangs, and
   slows workers mid-task on seeded dispatch numbers, and whose store
   corrupts committed cache entries on seeded commit numbers.

It then compares the two runs' *canonical* responses byte-for-byte
(volatile diagnostics like attempts and latency are stripped by
:meth:`Response.canonical`).  The robustness contract under test:
every injected failure is absorbed by a retry, a worker restart, or a
digest-verified cache miss, so the chaos run loses zero requests and
answers with exactly the oracle's bytes.

Injections are *planned* on seeded dispatch/commit ordinals and
*counted when they fire* — a plan entry beyond the run's actual
dispatch count never fires, so reports carry both numbers and the
acceptance test asserts on fired injections.
"""

from __future__ import annotations

import json
import os
import random
import threading
from pathlib import Path
from typing import Any

from .model import Request, Response
from .policy import BackoffPolicy
from .replay import (execute_in_waves, generate_requests, is_lost,
                     percentile)
from .service import SimulationService
from .store import JournaledStore

#: How long an injected hang sleeps — far past any test task deadline,
#: so a hung worker is only ever recovered by the watchdog kill.
HANG_SLEEP_S = 30.0

#: How long an injected slow worker sleeps — long enough to skew tail
#: latency, short enough to finish inside the task deadline.
SLOW_SLEEP_S = 0.25


class ChaosPlan:
    """Seeded injection schedule, with fired-injection accounting."""

    def __init__(self, directives_by_seq: dict[int, dict[str, Any]],
                 corrupt_commits: frozenset[int]) -> None:
        self.directives_by_seq = directives_by_seq
        self.corrupt_commits = corrupt_commits
        self.fired: dict[str, int] = {}
        self._lock = threading.Lock()

    def directive(self, dispatch: int) -> dict[str, Any] | None:
        """Worker-pool hook: the directive for this dispatch ordinal."""
        found = self.directives_by_seq.get(dispatch)
        if found is not None:
            self._count(str(found.get("action", "?")))
        return found

    def should_corrupt(self, commit: int) -> bool:
        if commit in self.corrupt_commits:
            self._count("corrupt")
            return True
        return False

    def _count(self, action: str) -> None:
        with self._lock:
            self.fired[action] = self.fired.get(action, 0) + 1

    @property
    def planned(self) -> int:
        return len(self.directives_by_seq) + len(self.corrupt_commits)

    @property
    def fired_total(self) -> int:
        with self._lock:
            return sum(self.fired.values())


def make_plan(seed: int, *, kills: int, hangs: int, slows: int,
              corruptions: int, horizon: int) -> ChaosPlan:
    """Schedule injections over the first ``horizon`` dispatches, and
    store corruptions over the first three quarters of as many commits.

    ``horizon`` should sit at or below the expected number of unique
    batches so the plan actually fires; retries dispatch with fresh
    ordinals (usually past the horizon) and therefore succeed.
    """
    rng = random.Random(seed)
    wanted = kills + hangs + slows
    horizon = max(horizon, wanted)
    seqs = rng.sample(range(1, horizon + 1), wanted)
    directives: dict[int, dict[str, Any]] = {}
    cursor = 0
    for _ in range(kills):
        directives[seqs[cursor]] = {"action": "kill"}
        cursor += 1
    for _ in range(hangs):
        directives[seqs[cursor]] = {"action": "hang",
                                    "sleep_s": HANG_SLEEP_S}
        cursor += 1
    for _ in range(slows):
        directives[seqs[cursor]] = {"action": "slow",
                                    "sleep_s": SLOW_SLEEP_S}
        cursor += 1
    window = max(corruptions, horizon * 3 // 4)
    commits = rng.sample(range(1, window + 1),
                         min(corruptions, window))
    return ChaosPlan(directives_by_seq=directives,
                     corrupt_commits=frozenset(commits))


def split_failures(total: int) -> dict[str, int]:
    """Default mix for ``total`` injections, weighted away from hangs
    (each hang costs one full task deadline of wall clock).  The counts
    sum to ``total``: from 4 on every action gets at least one, and
    fewer go to kills, slows and corruptions, in that order."""
    if total < 4:
        kills, slows, corruptions = (int(total > rank) for rank in range(3))
        return {"kills": kills, "hangs": 0, "slows": slows,
                "corruptions": corruptions}
    kills = max(1, total * 7 // 20)
    hangs = max(1, total * 3 // 20)
    slows = max(1, total * 5 // 20)
    corruptions = max(1, total - kills - hangs - slows)
    return {"kills": kills, "hangs": hangs, "slows": slows,
            "corruptions": corruptions}


class CorruptingStore(JournaledStore):
    """A store that rots seeded cache entries right after commit.

    The flipped byte lands in the pickled body, so the next read's
    digest verification fails, evicts the entry, and forces a
    recomputation — which must produce the same bytes again.
    """

    def __init__(self, root: str | os.PathLike[str],
                 plan: ChaosPlan) -> None:
        super().__init__(root)
        self.plan = plan
        self._commits = 0
        self._commit_lock = threading.Lock()

    def commit(self, key: str, payload: dict[str, Any]) -> None:
        super().commit(key, payload)
        with self._commit_lock:
            self._commits += 1
            ordinal = self._commits
        if self.plan.should_corrupt(ordinal):
            self._corrupt(key)

    def _corrupt(self, key: str) -> None:
        path = self.cache.entry_path(key)
        try:
            blob = bytearray(path.read_bytes())
        except OSError:
            return
        if not blob:
            return
        position = len(blob) // 2
        blob[position] ^= 0xFF
        path.write_bytes(bytes(blob))


def _run_stream(root: Path, requests: list[Request], *, seed: int,
                jobs: int, task_timeout: float,
                plan: ChaosPlan | None) -> tuple[list[Response],
                                                 dict[str, Any]]:
    backoff = BackoffPolicy(base_s=0.02, max_s=0.25, max_attempts=8)
    service = SimulationService(root, jobs=jobs, seed=seed,
                                backoff=backoff,
                                task_timeout=task_timeout, chaos=plan)
    if plan is not None:
        store = CorruptingStore(root, plan)
        service.store = store
        service.scheduler.store = store
    with service:
        responses = execute_in_waves(service, requests)
        stats = service.stats()
    return responses, stats


def chaos_campaign(root: str | os.PathLike[str], *, seed: int = 42,
                   count: int = 1000, failures: int = 24,
                   jobs: int = 2,
                   task_timeout: float = 5.0) -> dict[str, Any]:
    """Clean run vs chaos run over one stream; byte-compare report."""
    base = Path(root)
    requests = generate_requests(seed, count)
    unique = len({json.dumps(r.material(), sort_keys=True)
                  for r in requests})
    mix = split_failures(failures)
    plan = make_plan(seed, horizon=max(4, unique * 3 // 4), **mix)

    clean, clean_stats = _run_stream(
        base / "clean", requests, seed=seed, jobs=jobs,
        task_timeout=task_timeout, plan=None)
    chaos, chaos_stats = _run_stream(
        base / "chaos", requests, seed=seed, jobs=jobs,
        task_timeout=task_timeout, plan=plan)

    clean_bytes = [json.dumps(r.canonical(), sort_keys=True)
                   for r in clean]
    chaos_bytes = [json.dumps(r.canonical(), sort_keys=True)
                   for r in chaos]
    mismatches = [i for i, (a, b) in
                  enumerate(zip(clean_bytes, chaos_bytes)) if a != b]
    lost = sum(1 for r in chaos if is_lost(r))
    lost += count - len(chaos)
    latencies = [r.latency_s for r in chaos]
    return {
        "requests": count,
        "unique_batches": unique,
        "seed": seed,
        "jobs": jobs,
        "injections_planned": plan.planned,
        "injections_fired": plan.fired_total,
        "injections_by_action": dict(sorted(plan.fired.items())),
        "lost_requests": lost,
        "identical": not mismatches and len(clean) == len(chaos),
        "mismatches": mismatches[:10],
        "chaos_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "chaos_p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "worker_restarts": int(chaos_stats.get("worker_restarts", 0)),
        "retries": int(chaos_stats.get("retries", 0)),
        "clean_stats": clean_stats,
        "chaos_stats": chaos_stats,
    }
