"""Health-checked worker-process pool for the simulation service.

Each worker is one OS process running :func:`_worker_main`: it owns a
private :class:`~repro.experiments.Lab` (sharing the on-disk artifact
cache with every sibling) and executes one task at a time received over
a duplex pipe.  The parent side (:class:`WorkerPool`) is the service's
*executor* and enforces the robustness contract:

* **dispatch-time health check** — a worker found dead while idle is
  respawned before it is ever handed a task;
* **crash detection** — a worker that dies mid-task (pipe EOF, process
  exit) is respawned immediately and the task is surfaced as a
  retryable :class:`WorkerTransient` to the scheduler, so no request is
  ever lost with the worker;
* **hang detection** — a task that produces no result within
  ``task_timeout`` seconds gets its worker killed and respawned, again
  surfacing a retryable :class:`WorkerTransient`;
* **deterministic failures** — an exception raised *by the task* inside
  a healthy worker is returned as :class:`TaskFailed` and is never
  retried (it would fail identically again).

Workers are started with the ``spawn`` method: the pool respawns
workers from scheduler threads, and forking a multi-threaded parent can
deadlock the child on inherited lock state.  Side effects are safe to
retry by construction — workers only write the content-addressed cache,
whose entries are atomic and byte-identical for identical keys.

The pool also carries the chaos harness's injection point: an optional
directive source is consulted per dispatch and shipped to the worker
with the task, so seeded kills/hangs/slowdowns land exactly where a
real fault would — inside the worker, mid-task.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import Any, Protocol

from .model import Request

#: Exit code a chaos-killed worker dies with (distinguishable in logs).
CHAOS_EXIT = 43

#: Default per-task wall-clock deadline before a worker counts as hung.
DEFAULT_TASK_TIMEOUT = 60.0


class WorkerTransient(Exception):
    """Retryable executor failure: the worker crashed or hung."""

    def __init__(self, kind: str, detail: str) -> None:
        self.kind = kind          # "worker-lost" | "timeout"
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


class TaskFailed(Exception):
    """Deterministic in-task failure (never retried)."""

    def __init__(self, exc_type: str, message: str) -> None:
        self.exc_type = exc_type
        self.message = message
        super().__init__(f"{exc_type}: {message}")


class DirectiveSource(Protocol):
    """Chaos hook: a directive for the n-th dispatched task (or None)."""

    def directive(self, dispatch: int) -> dict[str, Any] | None:
        ...  # pragma: no cover - protocol


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def execute_request(lab: Any, request: Request) -> dict[str, Any]:
    """Run one request against a Lab; returns a deterministic payload.

    Payloads contain only stable quantities (counts, sizes, digests):
    two executions of the same request must produce identical payloads,
    which is what makes results cacheable, coalescible, and chaos-run
    byte-comparable.
    """
    kind = request.kind
    if kind == "compile":
        exe = lab.executable(request.bench, request.target)
        return {"binary_size": int(exe.binary_size),
                "text_size": int(exe.text_size),
                "text_sha256": _sha256(bytes(exe.text))}
    if kind == "run":
        run = lab.run(request.bench, request.target)
        stats = run.stats
        return {"instructions": int(stats.instructions),
                "loads": int(stats.loads),
                "stores": int(stats.stores),
                "interlocks": int(stats.interlocks),
                "ifetch_words": int(stats.ifetch_words),
                "exit_code": int(stats.exit_code),
                "output_sha256": _sha256(stats.output.encode()),
                "binary_size": int(run.binary_size),
                "text_size": int(run.text_size)}
    if kind == "trace":
        trace = lab.trace(request.bench, request.target)
        return {"instructions": int(trace.run.stats.instructions),
                "itrace_len": len(trace.itrace),
                "dtrace_len": len(trace.dtrace),
                "itrace_sha256": _sha256(trace.itrace.tobytes()),
                "dtrace_sha256": _sha256(trace.dtrace.tobytes())}
    if kind == "lint":
        from ..analysis import Severity, lint_program, summarize
        from ..bench import get_benchmark
        from ..cc import get_target

        bench = get_benchmark(request.bench)
        summary = summarize(lint_program(bench.source,
                                         get_target(request.target)))
        return {"findings": summary["total"],
                "errors": summary["by_severity"].get(
                    Severity.ERROR.value, 0),
                "by_rule": summary["by_rule"]}
    if kind == "faults":
        from ..experiments.runner import ExperimentError
        from ..faults.campaign import run_cell
        from ..faults.model import FAULT_KINDS

        cell = run_cell(lab, request.bench, request.target,
                        faults=max(1, request.faults), seed=request.seed,
                        kinds=FAULT_KINDS, prune=False)
        if cell.error:
            raise ExperimentError(cell.error)
        outcomes = {outcome: count for outcome, count
                    in sorted(cell.outcome_counts().items()) if count}
        return {"faults": len(cell.results), "seed": request.seed,
                "outcomes": outcomes}
    raise ValueError(f"unknown request kind {kind!r}")


def _worker_main(conn: Connection, cache_root: str) -> None:
    """Worker process entry: execute tasks until told to stop."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from ..experiments import Lab
    from ..labcache import ArtifactCache

    lab = Lab(cache=ArtifactCache(cache_root))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _tag, seq, raw, directive = message
        if directive is not None:
            action = directive.get("action")
            if action == "kill":
                os._exit(CHAOS_EXIT)
            sleep_s = float(directive.get("sleep_s", 0.0))
            if sleep_s > 0.0:
                time.sleep(sleep_s)
        request = Request.from_dict(raw)
        try:
            payload = execute_request(lab, request)
        except BaseException as exc:  # noqa: B036 - typed over the pipe
            conn.send((seq, "error",
                       {"type": type(exc).__name__, "message": str(exc)}))
        else:
            conn.send((seq, "ok", payload))


class _Worker:
    """Parent-side record of one worker process."""

    def __init__(self, proc: Any, conn: Connection) -> None:
        self.proc = proc
        self.conn = conn
        self.busy = False


class WorkerPool:
    """Fixed-size pool of single-task workers with restart-on-failure."""

    def __init__(self, *, jobs: int = 2,
                 cache_root: str | os.PathLike[str],
                 task_timeout: float = DEFAULT_TASK_TIMEOUT,
                 chaos: DirectiveSource | None = None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache_root = str(cache_root)
        self.task_timeout = task_timeout
        self.chaos = chaos
        self.restarts = 0
        self.dispatches = 0
        self._ctx = get_context("spawn")
        self._workers: list[_Worker] = []
        self._cond = threading.Condition()
        self._closed = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> None:
        with self._cond:
            while len(self._workers) < self.jobs:
                self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.cache_root),
            daemon=True)
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            workers, self._workers = self._workers, []
            self._cond.notify_all()
        for worker in workers:
            try:
                if worker.proc.is_alive() and not worker.busy:
                    worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            worker.conn.close()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---------------------------------------------------------- dispatch

    def _acquire(self) -> _Worker:
        """An idle, *live* worker (dead idle workers are respawned)."""
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("worker pool is closed")
                for index, worker in enumerate(self._workers):
                    if worker.busy:
                        continue
                    if not worker.proc.is_alive():
                        # Dispatch-time health check: replace a worker
                        # that died while idle before using it.
                        worker.conn.close()
                        self._workers[index] = worker = self._spawn()
                        self.restarts += 1
                    worker.busy = True
                    return worker
                self._cond.wait()

    def _release(self, worker: _Worker, *, respawn: bool) -> None:
        with self._cond:
            if respawn:
                try:
                    index = self._workers.index(worker)
                except ValueError:
                    index = -1
                worker.conn.close()
                if worker.proc.is_alive():
                    worker.proc.kill()
                worker.proc.join(timeout=5.0)
                if index >= 0 and not self._closed:
                    self._workers[index] = self._spawn()
                self.restarts += 1
            else:
                worker.busy = False
            self._cond.notify()

    def run_task(self, request: Request,
                 timeout: float | None = None) -> dict[str, Any]:
        """Execute one request on a worker (blocking).

        Raises :class:`WorkerTransient` on crash/hang (retryable) and
        :class:`TaskFailed` on a deterministic in-task failure.
        """
        deadline = self.task_timeout if timeout is None else timeout
        worker = self._acquire()
        with self._cond:
            self.dispatches += 1
            seq = self.dispatches
        directive = self.chaos.directive(seq) if self.chaos else None
        try:
            worker.conn.send(("task", seq, request.to_dict(), directive))
            if not worker.conn.poll(deadline):
                self._release(worker, respawn=True)
                raise WorkerTransient(
                    "timeout",
                    f"no result within {deadline}s; worker killed "
                    f"and restarted")
            reply = worker.conn.recv()
        except WorkerTransient:
            raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._release(worker, respawn=True)
            raise WorkerTransient(
                "worker-lost",
                f"worker process died mid-task "
                f"({type(exc).__name__}); restarted") from exc
        self._release(worker, respawn=False)
        _seq, status, body = reply
        if status == "ok":
            result: dict[str, Any] = body
            return result
        raise TaskFailed(str(body.get("type", "Exception")),
                         str(body.get("message", "")))
