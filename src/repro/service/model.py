"""Typed requests and responses for the simulation service.

A :class:`Request` names one unit of work the service knows how to
perform — compile, run, trace, or lint one (benchmark, target) cell,
or execute a small seeded fault campaign against it.  Requests are
*content-addressed*: every field that can change the result is folded
into :meth:`Request.material`, which the store hashes into the batch
key, so identical requests coalesce into one execution and repeat
requests are served from the SHA-256 artifact store.

A :class:`Response` carries the result plus the robustness diagnostics
(attempts, accumulated backoff, breaker state, cache/coalesce flags).
:meth:`Response.canonical` strips every volatile field, leaving exactly
the bytes-per-request view the chaos harness compares between a clean
and a fault-injected run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Work kinds the service accepts (the lab's expensive artifact kinds
#: plus static analysis and seeded fault campaigns).
KINDS = ("compile", "run", "trace", "lint", "faults")


@dataclass(frozen=True)
class Request:
    """One unit of service work, keyed by everything that matters."""

    kind: str                 # one of KINDS
    bench: str                # benchmark name (repro.bench suite)
    target: str               # compiler configuration name
    faults: int = 0           # campaign size        (kind == "faults")
    seed: int = 1             # campaign seed        (kind == "faults")
    id: str = ""              # caller correlation id (not keyed)

    def material(self) -> dict[str, Any]:
        """Every keyed field, for the store's content address."""
        out: dict[str, Any] = {"kind": self.kind, "bench": self.bench,
                               "target": self.target}
        if self.kind == "faults":
            out["faults"] = self.faults
            out["seed"] = self.seed
        return out

    def to_dict(self) -> dict[str, Any]:
        out = self.material()
        if self.id:
            out["id"] = self.id
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Request":
        return cls(kind=str(raw.get("kind", "")),
                   bench=str(raw.get("bench", "")),
                   target=str(raw.get("target", "")),
                   faults=int(raw.get("faults", 0)),
                   seed=int(raw.get("seed", 1)),
                   id=str(raw.get("id", "")))


@dataclass
class Response:
    """Result of one request, with robustness diagnostics attached."""

    id: str
    kind: str
    bench: str
    target: str
    ok: bool
    payload: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    attempts: int = 1
    backoff_total_s: float = 0.0
    breaker_open: bool = False
    cached: bool = False
    coalesced: bool = False
    latency_s: float = 0.0

    def canonical(self) -> dict[str, Any]:
        """The deterministic result view (volatile fields stripped).

        Two service runs over the same request stream must produce
        identical canonical views per request id, no matter how many
        workers crashed, hung, or how many cache entries rotted along
        the way — this is the chaos harness's byte-compare contract.
        """
        out: dict[str, Any] = {"id": self.id, "kind": self.kind,
                               "bench": self.bench,
                               "target": self.target, "ok": self.ok}
        if self.payload is not None:
            out["payload"] = self.payload
        if self.error is not None:
            out["error"] = {"kind": self.error.get("kind", ""),
                            "message": self.error.get("message", "")}
        return out

    def to_dict(self) -> dict[str, Any]:
        out = self.canonical()
        out.update(attempts=self.attempts,
                   backoff_total_s=round(self.backoff_total_s, 6),
                   breaker_open=self.breaker_open, cached=self.cached,
                   coalesced=self.coalesced,
                   latency_s=round(self.latency_s, 6))
        if self.error is not None:
            out["error"] = dict(self.error)
        return out


@dataclass
class ServiceStats:
    """Aggregate counters the service exposes over the wire."""

    requests: int = 0
    batches: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    breaker_short_circuits: int = 0
    recovered: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests, "batches": self.batches,
            "coalesced": self.coalesced, "cache_hits": self.cache_hits,
            "retries": self.retries, "failures": self.failures,
            "breaker_short_circuits": self.breaker_short_circuits,
            "recovered": self.recovered}
