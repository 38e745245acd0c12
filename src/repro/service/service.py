"""The simulation service: store + pool + scheduler + asyncio front.

:class:`SimulationService` wires the three layers together over one
service *root* directory (journal + content-addressed store) and adds
the two pieces neither layer owns alone:

* **crash recovery** — on startup, :meth:`recover` replays the journal,
  re-executes every intent that was in flight when the previous
  process died, and compacts the journal.  Committed batches are not
  recomputed (their results are already content-addressed), so
  recovery costs exactly one execution per genuinely unfinished batch.
* **the wire front end** — :meth:`serve` runs an asyncio JSON-lines
  TCP server (one JSON object per line in, one per line out) so
  clients can submit requests, read aggregate stats, and ping for
  liveness.  Blocking scheduler futures are bridged onto the event
  loop with ``run_in_executor``-free ``asyncio.wrap_future``.

Protocol (one JSON object per line)::

    {"op": "submit", "request": {"kind": "run", "bench": ..., ...}}
      -> the Response dict (diagnostics included)
    {"op": "stats"}  -> aggregate counters
    {"op": "ping"}   -> {"ok": true}
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any

from .model import KINDS, Request, Response
from .policy import BackoffPolicy
from .scheduler import Scheduler
from .store import JournaledStore
from .workers import DirectiveSource, WorkerPool


class SimulationService:
    """A fault-tolerant batch lab over one service root directory."""

    def __init__(self, root: str | os.PathLike[str], *, jobs: int = 2,
                 task_timeout: float = 60.0,
                 backoff: BackoffPolicy | None = None,
                 seed: int = 0,
                 chaos: DirectiveSource | None = None) -> None:
        self.store = JournaledStore(root)
        self.pool = WorkerPool(
            jobs=jobs, cache_root=self.store.cache.root,
            task_timeout=task_timeout, chaos=chaos)
        self.scheduler = Scheduler(
            self.store, self.pool, backoff=backoff, seed=seed)
        self._started = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> int:
        """Start workers and recover in-flight work; returns the
        number of batches recovered from the journal."""
        if self._started:
            return 0
        self.pool.start()
        self._started = True
        return self.recover()

    def close(self) -> None:
        self.scheduler.close()
        self.pool.close()
        self._started = False

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---------------------------------------------------------- recovery

    def recover(self) -> int:
        """Finish batches left in flight by a crashed predecessor."""
        pending = self.store.pending()
        if pending:
            # Re-executing through the scheduler re-journals each
            # batch, commits its result, and warms the cache for the
            # requests that will retry against us.
            self.scheduler.execute(pending)
            self.scheduler.stats.recovered += len(pending)
        self.store.compact()
        return len(pending)

    # ----------------------------------------------------------- client

    def submit(self, request: Request) -> Response:
        """Blocking convenience wrapper around the scheduler."""
        return self.scheduler.submit(request).result()

    def execute(self, requests: list[Request]) -> list[Response]:
        return self.scheduler.execute(requests)

    def stats(self) -> dict[str, Any]:
        return self.scheduler.snapshot()

    # ------------------------------------------------------------- wire

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One client connection: JSON lines in, JSON lines out."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    reply = await self._dispatch(line)
                except Exception as exc:
                    reply = {"ok": False,
                             "error": {"kind": "protocol",
                                       "message": str(exc)}}
                writer.write(json.dumps(reply, sort_keys=True)
                             .encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,  # pragma: no cover
                    asyncio.CancelledError):
                # CancelledError: the server is shutting down with this
                # connection mid-close; the socket is gone either way.
                pass

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        message = json.loads(line)
        if not isinstance(message, dict):
            raise ValueError("expected a JSON object")
        op = message.get("op", "submit")
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "submit":
            raw = message.get("request")
            if not isinstance(raw, dict):
                raise ValueError("submit needs a 'request' object")
            request = Request.from_dict(raw)
            if request.kind not in KINDS:
                raise ValueError(
                    f"unknown kind {request.kind!r}; "
                    f"expected one of {', '.join(KINDS)}")
            response = await asyncio.wrap_future(
                self.scheduler.submit(request))
            return response.to_dict()
        raise ValueError(f"unknown op {op!r}")

    async def serve(self, host: str = "127.0.0.1",
                    port: int = 8642) -> None:
        """Run the TCP front end until cancelled."""
        server = await asyncio.start_server(self.handle, host, port)
        async with server:
            await server.serve_forever()
