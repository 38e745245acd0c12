"""Simulation service: model, policy, store, scheduler, pool, wire.

Scheduler-level behavior (coalescing, retries, breaker, journal
recovery) is tested against stub worker pools so failures are exact
and instant; a small set of tests exercises the real spawn-based pool
and the asyncio front end end-to-end.
"""

import json
import threading
import time

import pytest

from repro.service import (BackoffPolicy, CircuitBreaker, JournaledStore,
                           Request, Scheduler, SimulationService,
                           TaskFailed, WorkerPool, WorkerTransient,
                           generate_requests, is_lost, percentile)
from repro.service.policy import BREAKER_COOLDOWN, BREAKER_THRESHOLD

RUN_REQ = Request(kind="run", bench="ackermann", target="d16", id="a")

#: Instant retries for stub-pool tests.
FAST = BackoffPolicy(base_s=0.0005, max_s=0.002, max_attempts=3)


class FixedRandom:
    """A jitter source that always draws ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def fail(breaker, key, times, message="m"):
    for _ in range(times):
        breaker.record_failure(key, {"kind": "task", "message": message})


class StubPool:
    """Deterministic worker-pool stand-in for scheduler tests."""

    def __init__(self, script=None):
        # script: list of exceptions/None consumed per run_task call;
        # None (or exhaustion) means success.
        self.script = list(script or [])
        self.jobs = 2
        self.task_timeout = 4.0
        self.restarts = 0
        self.calls = 0
        self.deadlines = []
        self.gate = None          # optional Event: block until set

    def run_task(self, request, timeout=None):
        self.calls += 1
        self.deadlines.append(timeout)
        if self.gate is not None:
            assert self.gate.wait(timeout=10)
        action = self.script.pop(0) if self.script else None
        if action is not None:
            raise action
        return {"bench": request.bench, "kind": request.kind,
                "value": 42}


@pytest.fixture
def store(tmp_path):
    return JournaledStore(tmp_path / "svc")


def scheduler_for(store, pool, **kwargs):
    kwargs.setdefault("backoff", FAST)
    return Scheduler(store, pool, **kwargs)


class TestRequestModel:
    def test_material_excludes_correlation_id(self):
        a = Request(kind="run", bench="b", target="t", id="x")
        b = Request(kind="run", bench="b", target="t", id="y")
        assert a.material() == b.material()

    def test_fault_fields_keyed_only_for_fault_campaigns(self):
        run_a = Request(kind="run", bench="b", target="t", seed=1)
        run_b = Request(kind="run", bench="b", target="t", seed=9)
        assert run_a.material() == run_b.material()
        f_a = Request(kind="faults", bench="b", target="t", seed=1)
        f_b = Request(kind="faults", bench="b", target="t", seed=9)
        assert f_a.material() != f_b.material()

    def test_round_trip(self):
        req = Request(kind="faults", bench="b", target="t", faults=8,
                      seed=3, id="r1")
        assert Request.from_dict(req.to_dict()) == req

    def test_canonical_strips_volatile_diagnostics(self):
        from repro.service import Response

        r = Response(id="x", kind="run", bench="b", target="t", ok=True,
                     payload={"v": 1}, attempts=4, backoff_total_s=1.2,
                     cached=True, coalesced=True, latency_s=9.9)
        canon = r.canonical()
        assert canon == {"id": "x", "kind": "run", "bench": "b",
                         "target": "t", "ok": True, "payload": {"v": 1}}
        # ...but the wire view keeps them for diagnosability.
        assert r.to_dict()["attempts"] == 4
        assert r.to_dict()["cached"] is True

    def test_canonical_error_reduces_to_kind_and_message(self):
        from repro.service import Response

        r = Response(id="x", kind="run", bench="b", target="t",
                     ok=False, error={"kind": "task", "message": "m",
                                      "type": "ValueError",
                                      "transient": False})
        assert r.canonical()["error"] == {"kind": "task", "message": "m"}


class TestBackoffPolicy:
    def test_delays_grow_geometrically_and_cap(self):
        policy = BackoffPolicy(base_s=0.1, max_s=0.5, max_attempts=9)
        no_jitter = FixedRandom(0.0)
        delays = [policy.delay(n, no_jitter) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_only_shortens(self):
        import random

        policy = BackoffPolicy(base_s=0.1, max_s=0.1, max_attempts=9)
        rng = random.Random(7)
        for attempt in range(1, 20):
            delay = policy.delay(attempt, rng)
            assert 0.05 <= delay <= 0.1
        # The most a draw can shed is half the delay.
        assert policy.delay(1, FixedRandom(1.0)) == 0.05

    def test_attempt_must_be_positive(self):
        import random

        with pytest.raises(ValueError):
            BackoffPolicy().delay(0, random.Random(0))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        assert (BREAKER_THRESHOLD, BREAKER_COOLDOWN) == (3, 8)
        breaker = CircuitBreaker()
        fail(breaker, "k", BREAKER_THRESHOLD - 1)
        assert breaker.allow("k") and breaker.open_cells() == 0
        fail(breaker, "k", 1)
        assert breaker.open_cells() == 1
        assert not breaker.allow("k")

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker()
        fail(breaker, "k", BREAKER_THRESHOLD - 1)
        breaker.record_success("k")
        fail(breaker, "k", BREAKER_THRESHOLD - 1)
        assert breaker.allow("k")

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker()
        fail(breaker, "k", BREAKER_THRESHOLD)
        blocked = [breaker.allow("k") for _ in range(BREAKER_COOLDOWN)]
        assert blocked == [False] * BREAKER_COOLDOWN
        assert breaker.allow("k")          # the half-open probe
        breaker.record_success("k")
        assert breaker.allow("k") and breaker.open_cells() == 0

    def test_failing_probe_reopens_for_a_full_window(self):
        breaker = CircuitBreaker()
        fail(breaker, "k", BREAKER_THRESHOLD)
        window = [False] * BREAKER_COOLDOWN
        assert [breaker.allow("k") for _ in window] == window
        assert breaker.allow("k")
        fail(breaker, "k", 1, message="m2")
        assert [breaker.allow("k") for _ in window] == window
        assert breaker.last_error("k")["message"] == "m2"

    def test_cells_fail_independently(self):
        breaker = CircuitBreaker()
        fail(breaker, "a", BREAKER_THRESHOLD)
        assert not breaker.allow("a")
        assert breaker.allow("b")
        assert breaker.open_cells() == 1


class TestJournaledStore:
    def test_commit_closes_the_intent(self, store):
        key = store.result_key(RUN_REQ)
        store.begin(key, RUN_REQ)
        assert [r.material() for r in store.pending()] == \
            [RUN_REQ.material()]
        store.commit(key, {"v": 1})
        assert store.pending() == []
        assert store.get(key) == {"v": 1}

    def test_abort_closes_the_intent_without_caching(self, store):
        key = store.result_key(RUN_REQ)
        store.begin(key, RUN_REQ)
        store.abort(key, "task")
        assert store.pending() == []
        assert store.get(key) is None

    def test_result_key_ignores_correlation_id(self, store):
        a = Request(kind="run", bench="b", target="t", id="1")
        b = Request(kind="run", bench="b", target="t", id="2")
        assert store.result_key(a) == store.result_key(b)

    def test_torn_tail_is_tolerated(self, store):
        key = store.result_key(RUN_REQ)
        store.begin(key, RUN_REQ)
        with open(store.journal_path, "a") as handle:
            handle.write('{"type": "commit", "key": "' + key)  # torn
        assert [r.material() for r in store.pending()] == \
            [RUN_REQ.material()]

    def test_compact_keeps_only_open_intents(self, store):
        done = Request(kind="run", bench="b", target="t")
        open_req = Request(kind="lint", bench="b", target="t")
        store.begin(store.result_key(done), done)
        store.commit(store.result_key(done), {"v": 1})
        store.begin(store.result_key(open_req), open_req)
        dropped = store.compact()
        assert dropped == 2                # intent + commit for `done`
        assert [r.material() for r in store.pending()] == \
            [open_req.material()]
        # Compaction is idempotent.
        assert store.compact() == 0


class TestScheduler:
    def test_success_is_committed_and_cached(self, store):
        pool = StubPool()
        sched = scheduler_for(store, pool)
        first = sched.submit(RUN_REQ).result(timeout=10)
        assert first.ok and not first.cached
        assert first.payload["value"] == 42
        second = sched.submit(RUN_REQ).result(timeout=10)
        assert second.ok and second.cached
        assert pool.calls == 1
        assert store.pending() == []
        sched.close()

    def test_identical_inflight_requests_coalesce(self, store):
        pool = StubPool()
        pool.gate = threading.Event()
        sched = scheduler_for(store, pool)
        futures = [sched.submit(Request(kind="run", bench="ackermann",
                                        target="d16", id=f"r{i}"))
                   for i in range(4)]
        pool.gate.set()
        responses = [f.result(timeout=10) for f in futures]
        assert all(r.ok for r in responses)
        assert pool.calls == 1
        assert sched.stats.batches == 1
        assert sched.stats.coalesced == 3
        assert sorted(r.id for r in responses) == \
            ["r0", "r1", "r2", "r3"]
        assert [r.canonical()["payload"] for r in responses] == \
            [responses[0].canonical()["payload"]] * 4
        sched.close()

    def test_transient_failures_retry_with_backoff(self, store):
        pool = StubPool(script=[WorkerTransient("worker-lost", "died"),
                                WorkerTransient("timeout", "hung")])
        sched = scheduler_for(store, pool)
        response = sched.submit(RUN_REQ).result(timeout=10)
        assert response.ok
        assert response.attempts == 3
        assert response.backoff_total_s > 0
        assert sched.stats.retries == 2
        sched.close()

    def test_timeout_retries_escalate_the_deadline(self, store):
        # A hang is cut fast at the base deadline, but a retry after a
        # timeout gets double the time (capped), so a slow-but-healthy
        # task eventually completes instead of dying identically on
        # every attempt.
        pool = StubPool(script=[WorkerTransient("timeout", "hung"),
                                WorkerTransient("timeout", "hung"),
                                WorkerTransient("worker-lost", "died")])
        sched = scheduler_for(
            store, pool, backoff=BackoffPolicy(base_s=0.0005,
                                               max_s=0.002,
                                               max_attempts=6))
        response = sched.submit(RUN_REQ).result(timeout=10)
        assert response.ok
        base = pool.task_timeout
        # Crash retries reuse the current deadline; only timeouts
        # escalate it.
        assert pool.deadlines == [base, base * 2, base * 4, base * 4]
        sched.close()

    def test_exhausted_transients_surface_as_lost(self, store):
        pool = StubPool(script=[WorkerTransient("worker-lost", "died")] * 9)
        sched = scheduler_for(store, pool)
        response = sched.submit(RUN_REQ).result(timeout=10)
        assert not response.ok
        assert response.error["transient"] is True
        assert is_lost(response)
        # Infrastructure failures are never cached and never trip the
        # per-cell breaker (the cell itself is fine).
        assert store.get(store.result_key(RUN_REQ)) is None
        assert sched.breaker.open_cells() == 0
        sched.close()

    def test_deterministic_failure_is_not_retried(self, store):
        pool = StubPool(script=[TaskFailed("ValueError", "bad cell")])
        sched = scheduler_for(store, pool)
        response = sched.submit(RUN_REQ).result(timeout=10)
        assert not response.ok
        assert response.attempts == 1
        assert not is_lost(response)       # an answer, not a loss
        assert response.error["kind"] == "task"
        assert pool.calls == 1
        assert store.pending() == []       # intent closed by abort
        sched.close()

    def test_breaker_short_circuits_repeated_failures(self, store):
        pool = StubPool(script=[TaskFailed("ValueError", "bad")] * 10)
        sched = scheduler_for(store, pool)
        for _ in range(BREAKER_THRESHOLD):
            sched.submit(RUN_REQ).result(timeout=10)
        executed = pool.calls
        degraded = sched.submit(RUN_REQ).result(timeout=10)
        assert pool.calls == executed      # no worker touched
        assert degraded.breaker_open
        assert not degraded.ok
        assert sched.stats.breaker_short_circuits == 1
        # Canonically identical to an executed failure.
        ran = sched.submit(Request(kind="run", bench="ackermann",
                                   target="d16", id="a"))
        assert degraded.canonical()["error"]["message"] == "bad"
        ran.result(timeout=10)
        sched.close()

    def test_journal_recovery_re_executes_open_intents(self, tmp_path):
        # A "crashed" service: intent journaled, no commit.
        crashed = JournaledStore(tmp_path / "svc")
        key = crashed.result_key(RUN_REQ)
        crashed.begin(key, RUN_REQ)
        # Restarted store over the same root re-executes it.
        store = JournaledStore(tmp_path / "svc")
        pool = StubPool()
        sched = scheduler_for(store, pool)
        pending = store.pending()
        assert len(pending) == 1
        responses = sched.execute(pending)
        assert responses[0].ok
        assert store.get(key) is not None
        store.compact()
        assert store.pending() == []
        sched.close()


class TestWorkerPoolReal:
    """Spawn-based pool with real worker processes (slower)."""

    def test_executes_and_restarts_after_chaos_kill(self, tmp_path):
        class KillFirst:
            def __init__(self):
                self.sent = 0

            def directive(self, dispatch):
                if dispatch == 1:
                    return {"action": "kill"}
                return None

        with WorkerPool(jobs=1, cache_root=tmp_path / "store",
                        task_timeout=60.0, chaos=KillFirst()) as pool:
            with pytest.raises(WorkerTransient) as info:
                pool.run_task(RUN_REQ)
            assert info.value.kind == "worker-lost"
            assert pool.restarts == 1
            payload = pool.run_task(RUN_REQ)
            assert payload["exit_code"] == 0
            assert payload["instructions"] > 0

    def test_hang_is_cut_by_the_task_deadline(self, tmp_path):
        class HangFirst:
            def directive(self, dispatch):
                if dispatch == 1:
                    return {"action": "hang", "sleep_s": 60.0}
                return None

        with WorkerPool(jobs=1, cache_root=tmp_path / "store",
                        task_timeout=2.0, chaos=HangFirst()) as pool:
            started = time.monotonic()
            with pytest.raises(WorkerTransient) as info:
                pool.run_task(RUN_REQ)
            assert info.value.kind == "timeout"
            assert time.monotonic() - started < 30
            assert pool.restarts == 1
            assert pool.run_task(RUN_REQ)["exit_code"] == 0

    def test_deterministic_payloads_across_workers(self, tmp_path):
        request = Request(kind="compile", bench="ackermann",
                          target="d16")
        with WorkerPool(jobs=1, cache_root=tmp_path / "a") as pool_a:
            one = pool_a.run_task(request)
        with WorkerPool(jobs=1, cache_root=tmp_path / "b") as pool_b:
            two = pool_b.run_task(request)
        assert one == two

    def test_unknown_benchmark_is_a_task_failure(self, tmp_path):
        with WorkerPool(jobs=1, cache_root=tmp_path / "store") as pool:
            with pytest.raises(TaskFailed):
                pool.run_task(Request(kind="run", bench="nope",
                                      target="d16"))


class TestFaultsRequest:
    """A ``faults`` request runs the campaign's cell code in the
    worker's Lab."""

    def test_payload_equals_the_campaign_outcomes(self, lab):
        # queens on d16, seed 1 plans a cache-fault site among its four.
        from repro.faults.campaign import FaultCampaign
        from repro.service.workers import execute_request

        payload = execute_request(lab, Request(
            kind="faults", bench="queens", target="d16", faults=4, seed=1))
        report = FaultCampaign(benchmarks=("queens",), targets=("d16",),
                               faults=4, seed=1).run()
        cell, = report["cells"]
        assert "cache" in {fault["kind"] for fault in cell["faults"]}
        assert payload == {
            "faults": 4, "seed": 1,
            "outcomes": {outcome: count for outcome, count
                         in sorted(cell["outcomes"].items()) if count}}

    def test_golden_run_failure_raises(self):
        from repro.bench import Benchmark, register_benchmark
        from repro.experiments import Lab
        from repro.experiments.runner import ExperimentError
        from repro.service.workers import execute_request

        register_benchmark(Benchmark(
            "svc-wrong-output", "prints 5, expects 6", ("6",),
            inline_source="int main() { puti(5); return 0; }"))
        with pytest.raises(ExperimentError, match="unexpected output"):
            execute_request(Lab(cache=False), Request(
                kind="faults", bench="svc-wrong-output", target="d16",
                faults=2, seed=1))


class TestServiceEndToEnd:
    def test_mixed_stream_with_recovery_and_wire(self, tmp_path):
        import asyncio

        root = tmp_path / "svc"
        requests = generate_requests(5, 12)
        with SimulationService(root, jobs=2, seed=5,
                               backoff=FAST) as service:
            responses = service.execute(requests)
            assert len(responses) == 12
            assert all(r.ok for r in responses)
            assert sum(1 for r in responses if is_lost(r)) == 0
            stats = service.stats()
            assert stats["requests"] == 12

        # Crash simulation: journal an intent the "dead" service never
        # finished; a restarted service recovers and commits it.
        crashed = JournaledStore(root)
        extra = Request(kind="compile", bench="towers", target="dlxe")
        crashed.begin(crashed.result_key(extra), extra)
        with SimulationService(root, jobs=1, seed=5,
                               backoff=FAST) as service:
            assert service.scheduler.stats.recovered == 1
            assert service.store.pending() == []
            # The recovered result is served from cache.
            again = service.submit(extra)
            assert again.ok and again.cached

            # Wire front end: ping, stats, submit over TCP.
            async def wire():
                server = await asyncio.start_server(
                    service.handle, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                out = []
                for message in (
                        {"op": "ping"},
                        {"op": "stats"},
                        {"op": "submit",
                         "request": {"kind": "compile",
                                     "bench": "towers",
                                     "target": "dlxe", "id": "w1"}},
                        {"op": "submit", "request": {"kind": "nope",
                                                     "bench": "x",
                                                     "target": "y"}}):
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    out.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return out

            ping, stat, submit, bad = asyncio.run(wire())
            assert ping == {"ok": True}
            assert stat["ok"] and "requests" in stat["stats"]
            assert submit["ok"] and submit["cached"]
            assert submit["id"] == "w1"
            assert not bad["ok"] and bad["error"]["kind"] == "protocol"


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 51.0
    assert percentile(values, 0.99) == 99.0
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
