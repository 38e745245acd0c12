"""Fault-tolerant simulation service (scheduler/executor/store split).

The package decomposes the experiment lab into three independently
testable layers plus the harnesses that exercise them:

* :mod:`~repro.service.model` — typed requests/responses and the
  canonical (byte-comparable) result view;
* :mod:`~repro.service.store` — content-addressed result store with a
  write-ahead journal for crash recovery;
* :mod:`~repro.service.policy` — exponential backoff with seeded
  jitter and the per-cell circuit breaker;
* :mod:`~repro.service.workers` — health-checked spawn-based worker
  pool (crash/hang detection, automatic restart);
* :mod:`~repro.service.scheduler` — dedupe/coalesce/batch scheduling
  over store and pool;
* :mod:`~repro.service.service` — the wired service, crash recovery,
  and the asyncio JSON-lines front end (``repro serve``);
* :mod:`~repro.service.chaos` — seeded fault injection with a
  byte-compare oracle (``repro chaos``);
* :mod:`~repro.service.replay` — deterministic load generation for
  the chaos harness.

See ``docs/service.md`` for the architecture and failure taxonomy.
"""

from .chaos import ChaosPlan, chaos_campaign, make_plan, split_failures
from .model import KINDS, Request, Response, ServiceStats
from .policy import BackoffPolicy, CircuitBreaker
from .replay import (execute_in_waves, generate_requests, is_lost,
                     percentile)
from .scheduler import Scheduler
from .service import SimulationService
from .store import JournaledStore
from .workers import TaskFailed, WorkerPool, WorkerTransient

__all__ = [
    "KINDS", "BackoffPolicy", "ChaosPlan", "CircuitBreaker",
    "JournaledStore", "Request", "Response", "Scheduler",
    "ServiceStats", "SimulationService", "TaskFailed", "WorkerPool",
    "WorkerTransient", "chaos_campaign", "execute_in_waves",
    "generate_requests", "is_lost", "make_plan", "percentile",
    "split_failures",
]
