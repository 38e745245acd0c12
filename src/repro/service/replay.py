"""Request-replay load generation for the chaos harness.

:func:`generate_requests` produces a seeded, mixed stream of service
requests — run-heavy, with compile/trace/lint traffic and a sprinkle
of small fault campaigns — over a set of quick benchmarks, imitating
the query mix a study driver sends the service.  The stream is fully
deterministic in its seed, which is what lets the chaos harness replay
the *same* traffic against a clean and a fault-injected service and
demand byte-identical answers.

A *lost* request (:func:`is_lost`) is one that got no answer or a
transient-infrastructure error; a deterministic task failure is an
answer, not a loss.
"""

from __future__ import annotations

import random

from .model import KINDS, Request, Response
from .service import SimulationService

#: Quick cells: every benchmark here runs in well under a second per
#: target, so thousand-request replays stay inside the CI budget.
QUICK_BENCHMARKS = ("ackermann", "bubblesort", "queens", "towers")
QUICK_TARGETS = ("d16", "dlxe")

#: Traffic mix (kind -> weight); run-heavy like a real study driver.
MIX = {"run": 10, "compile": 4, "trace": 2, "lint": 3, "faults": 1}

#: Sequential waves a replayed stream is split into.
WAVES = 10


def generate_requests(seed: int, count: int) -> list[Request]:
    """A deterministic mixed request stream of ``count`` requests."""
    rng = random.Random(seed)
    kinds = [k for k in KINDS for _ in range(MIX[k])]
    out: list[Request] = []
    for index in range(count):
        kind = rng.choice(kinds)
        bench = rng.choice(QUICK_BENCHMARKS)
        target = rng.choice(QUICK_TARGETS)
        faults = 4 if kind == "faults" else 0
        fseed = rng.randrange(1, 4) if kind == "faults" else 1
        out.append(Request(kind=kind, bench=bench, target=target,
                           faults=faults, seed=fseed,
                           id=f"r{index:05d}"))
    return out


def execute_in_waves(service: SimulationService,
                     requests: list[Request]) -> list[Response]:
    """Execute a stream in :data:`WAVES` sequential waves (parallel
    within each).

    Waves model a study driver issuing query batches over time: a
    request repeated in a *later* wave exercises the store's read path
    (cache hit, digest verification, corruption recovery) instead of
    coalescing onto an in-flight batch the way a single all-at-once
    submission would.
    """
    size = max(1, -(-len(requests) // WAVES))
    responses: list[Response] = []
    for start in range(0, len(requests), size):
        responses.extend(service.execute(requests[start:start + size]))
    return responses


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def is_lost(response: Response | None) -> bool:
    """True when the service failed to *answer* the request."""
    if response is None:
        return True
    return (not response.ok and response.error is not None
            and bool(response.error.get("transient")))
