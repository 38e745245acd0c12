"""Retry backoff and per-cell circuit breaking for the service.

Transient executor failures — a worker process killed mid-task, a hang
cut off by the task deadline — are retried under an exponential backoff
with deterministic, seeded jitter (:class:`BackoffPolicy`): the delay
grows geometrically but each sleep is shortened by a pseudo-random
fraction so a burst of failing batches does not resubmit in lockstep.

Deterministic in-cell failures (lint errors, output miscompares,
simulator faults) are never retried; instead they feed the per-cell
:class:`CircuitBreaker`.  After :data:`BREAKER_THRESHOLD` consecutive
failures the breaker *opens* and subsequent submissions of that cell
short-circuit to a typed error carrying the recorded failure — a
repeatedly failing cell degrades to a cheap, diagnosable answer instead
of occupying workers and poisoning batch latency.  After
:data:`BREAKER_COOLDOWN` short-circuits the breaker goes *half-open*
and lets one probe execution through; a success closes it, another
failure re-opens it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

#: Geometric growth of the backoff delay per attempt.
BACKOFF_FACTOR = 2.0

#: Fraction of each backoff delay randomly shed.
BACKOFF_JITTER = 0.5

#: Consecutive failures that open a cell's breaker.
BREAKER_THRESHOLD = 3

#: Short-circuits an open breaker serves before its half-open probe.
BREAKER_COOLDOWN = 8


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with seeded jitter for transient retries."""

    base_s: float = 0.05      # first delay
    max_s: float = 2.0        # delay ceiling
    max_attempts: int = 5     # total tries (first + retries)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_s, self.base_s * BACKOFF_FACTOR ** (attempt - 1))
        return raw * (1.0 - BACKOFF_JITTER * rng.random())


class CircuitBreaker:
    """Per-cell failure accounting with open/half-open/closed states.

    Thread-safe: batches for different cells record outcomes
    concurrently.  State is per *cell key* (the batch content address),
    so distinct (program, target, kind) cells fail independently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}     # consecutive failures
        self._open_skips: dict[str, int] = {}   # short-circuits served
        self._last_error: dict[str, dict[str, str]] = {}

    def allow(self, key: str) -> bool:
        """May this cell execute now?  False == short-circuit.

        While open, every call counts toward the cooldown; once
        :data:`BREAKER_COOLDOWN` submissions have been short-circuited
        the next call is allowed through as the half-open probe.
        """
        with self._lock:
            if self._failures.get(key, 0) < BREAKER_THRESHOLD:
                return True
            skips = self._open_skips.get(key, 0)
            if skips >= BREAKER_COOLDOWN:
                # Half-open: admit one probe; reset the cooldown so a
                # failing probe re-opens for another full window.
                self._open_skips[key] = 0
                return True
            self._open_skips[key] = skips + 1
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            self._failures.pop(key, None)
            self._open_skips.pop(key, None)
            self._last_error.pop(key, None)

    def record_failure(self, key: str, error: dict[str, str]) -> None:
        with self._lock:
            self._failures[key] = self._failures.get(key, 0) + 1
            self._open_skips.setdefault(key, 0)
            self._last_error[key] = dict(error)

    def last_error(self, key: str) -> dict[str, str]:
        """The recorded failure an open breaker replays to callers."""
        with self._lock:
            return dict(self._last_error.get(
                key, {"kind": "error", "message": "breaker open"}))

    def open_cells(self) -> int:
        with self._lock:
            return sum(1 for n in self._failures.values()
                       if n >= BREAKER_THRESHOLD)
