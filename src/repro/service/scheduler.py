"""Batch scheduler: dedupe, coalesce, retry, and circuit-break.

The scheduler sits between the request front end and the worker pool.
Every submitted :class:`~repro.service.model.Request` is content-hashed
into a *batch key* (the store's result address):

* a result already in the crash-safe store resolves immediately as a
  **cache hit** (digest-verified — a corrupted entry reads as a miss
  and is transparently recomputed);
* a request whose batch is already in flight **coalesces** onto it —
  one execution fans its result out to every waiter;
* otherwise a new batch is journaled (``intent``), executed on the
  worker pool under the retry policy, and either committed to the
  store (success) or aborted (deterministic failure — errors are
  journaled but never cached).

Transient executor failures (worker crash, hang) are retried with
exponential backoff and seeded jitter, accumulating ``attempts`` and
``backoff_total_s`` into the response diagnostics.  A retry after a
*timeout* doubles the task deadline (capped at
``DEADLINE_ESCALATION_MAX`` times the base): the base deadline keeps
hung-worker recovery fast, while a healthy-but-slow task — a heavy
trace on a loaded machine — gets enough headroom to finish instead of
being killed identically on every attempt.  Deterministic task
failures are never retried; they feed the per-cell circuit breaker,
and once a cell's breaker opens further submissions short-circuit to a
typed error replaying the recorded failure — same canonical bytes as
an executed failure, at zero worker cost.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from .model import Request, Response, ServiceStats
from .policy import BackoffPolicy, CircuitBreaker
from .store import JournaledStore
from .workers import TaskFailed, WorkerPool, WorkerTransient

#: Ceiling on per-retry deadline escalation, as a multiple of the
#: pool's base ``task_timeout``.
DEADLINE_ESCALATION_MAX = 8


class _Batch:
    """One in-flight execution and the waiters coalesced onto it."""

    def __init__(self, key: str, request: Request) -> None:
        self.key = key
        self.request = request
        self.waiters: list[tuple[Request, Future[Response],
                                 float]] = []


class Scheduler:
    """Coalescing batch scheduler over a store and a worker pool."""

    def __init__(self, store: JournaledStore, pool: WorkerPool, *,
                 backoff: BackoffPolicy | None = None,
                 seed: int = 0) -> None:
        self.store = store
        self.pool = pool
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = CircuitBreaker()
        self.stats = ServiceStats()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._active: dict[str, _Batch] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, pool.jobs * 2),
            thread_name_prefix="svc-batch")

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------ submit

    def submit(self, request: Request) -> Future[Response]:
        """Schedule one request; resolves to its :class:`Response`."""
        key = self.store.result_key(request)
        started = time.monotonic()
        future: Future[Response] = Future()
        with self._lock:
            self.stats.requests += 1
            batch = self._active.get(key)
            if batch is not None:
                # Coalesce: ride the in-flight execution.
                self.stats.coalesced += 1
                batch.waiters.append((request, future, started))
                return future
        cached = self.store.get(key)
        if cached is not None:
            with self._lock:
                self.stats.cache_hits += 1
            future.set_result(self._respond(
                request, started, ok=True, payload=cached, cached=True))
            return future
        if not self.breaker.allow(key):
            # Open breaker: degrade to the recorded failure without
            # touching a worker.  Canonically identical to executing
            # the failing cell again.
            with self._lock:
                self.stats.breaker_short_circuits += 1
            future.set_result(self._respond(
                request, started, ok=False,
                error=self.breaker.last_error(key), breaker_open=True))
            return future
        with self._lock:
            batch = self._active.get(key)
            if batch is not None:
                self.stats.coalesced += 1
                batch.waiters.append((request, future, started))
                return future
            batch = _Batch(key, request)
            batch.waiters.append((request, future, started))
            self._active[key] = batch
            self.stats.batches += 1
        self._executor.submit(self._run_batch, batch)
        return future

    def execute(self, requests: list[Request]) -> list[Response]:
        """Submit a request stream and wait for all (order preserved)."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------- batch

    def _run_batch(self, batch: _Batch) -> None:
        request = batch.request
        key = batch.key
        attempts = 0
        backoff_total = 0.0
        payload: dict[str, Any] | None = None
        error: dict[str, Any] | None = None
        try:
            self.store.begin(key, request)
            escalation = 1
            while True:
                attempts += 1
                try:
                    payload = self.pool.run_task(
                        request,
                        timeout=self.pool.task_timeout * escalation)
                    break
                except WorkerTransient as exc:
                    if exc.kind == "timeout":
                        escalation = min(escalation * 2,
                                         DEADLINE_ESCALATION_MAX)
                    if attempts >= self.backoff.max_attempts:
                        error = {"kind": exc.kind,
                                 "message": exc.detail,
                                 "transient": True}
                        break
                    with self._lock:
                        self.stats.retries += 1
                    delay = self.backoff.delay(attempts, self._rng)
                    backoff_total += delay
                    time.sleep(delay)
                except TaskFailed as exc:
                    error = {"kind": "task", "type": exc.exc_type,
                             "message": exc.message}
                    break
            if payload is not None:
                self.store.commit(key, payload)
                self.breaker.record_success(key)
            else:
                assert error is not None
                self.store.abort(key, str(error.get("kind", "error")))
                with self._lock:
                    self.stats.failures += 1
                if not error.get("transient"):
                    self.breaker.record_failure(
                        key, {"kind": str(error.get("kind", "error")),
                              "message":
                                  str(error.get("message", ""))})
        except BaseException as exc:  # pragma: no cover - last resort
            error = {"kind": "internal", "type": type(exc).__name__,
                     "message": str(exc)}
            payload = None
        finally:
            with self._lock:
                self._active.pop(key, None)
            self._resolve(batch, payload, error, attempts, backoff_total)

    def _resolve(self, batch: _Batch, payload: dict[str, Any] | None,
                 error: dict[str, Any] | None, attempts: int,
                 backoff_total: float) -> None:
        for index, (request, future, started) in \
                enumerate(batch.waiters):
            if future.done():  # pragma: no cover - cancelled waiter
                continue
            future.set_result(self._respond(
                request, started, ok=payload is not None,
                payload=payload, error=error, attempts=attempts,
                backoff_total_s=backoff_total, coalesced=index > 0))

    # ---------------------------------------------------------- helpers

    def _respond(self, request: Request, started: float, *, ok: bool,
                 payload: dict[str, Any] | None = None,
                 error: dict[str, Any] | None = None, attempts: int = 1,
                 backoff_total_s: float = 0.0,
                 breaker_open: bool = False, cached: bool = False,
                 coalesced: bool = False) -> Response:
        return Response(
            id=request.id, kind=request.kind, bench=request.bench,
            target=request.target, ok=ok, payload=payload, error=error,
            attempts=attempts, backoff_total_s=backoff_total_s,
            breaker_open=breaker_open, cached=cached,
            coalesced=coalesced,
            latency_s=time.monotonic() - started)

    def snapshot(self) -> dict[str, Any]:
        """Current aggregate counters (includes pool restart count)."""
        with self._lock:
            stats = self.stats.to_dict()
        stats["worker_restarts"] = self.pool.restarts
        stats["breaker_open_cells"] = self.breaker.open_cells()
        return stats
