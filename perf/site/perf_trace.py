"""Spans around calls into the program's layers, for traced benchmark runs.

The benchmark measures every layer from outside the program.  It wraps
the functions and methods named in :data:`SPANS` and records one span
per call: name, start, end, parent span, pid, thread, a key (cell,
request id or cache outcome) and a work count (instructions, addresses).
A wrapper is bound where callers look the name up: ``from x import f``
copies the binding into the importing module, so a function imported
by four modules needs four entries.  Methods are wrapped on their class,
which every caller shares.

Spans stay in memory.  A process appends its spans to
``<dir>/spans-<pid>.jsonl`` when its outermost span closes, because
forked pool workers leave through ``os._exit`` and never run ``atexit``.

:func:`install` patches modules already imported and adds an import
hook that patches the rest as they load, timing each ``repro`` import
as an ``import`` span.  ``sitecustomize.py`` beside this file calls
:func:`install_from_env` so that subprocesses and spawned service
workers are traced too.
"""

from __future__ import annotations

import atexit
import contextvars
import fnmatch
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Environment variable naming the directory traced processes write to.
ENV_DIR = "PERF_TRACE_DIR"

#: Every module that binds its own reference to the compiler passes.
_COMPILER_SITES = ("repro.cc.driver", "repro.analysis.driver",
                   "repro.analysis.xisa", "repro.analysis.equiv")
_COMPILER_PASSES = (("parse", "cc.parse"), ("lower_program", "cc.irgen"),
                    ("optimize_module", "cc.opt"),
                    ("generate_assembly", "cc.codegen"),
                    ("link", "asm.link"))

#: (module, attribute, span name).  ``Class.method`` wraps a method on
#: its class; a trailing ``*`` wraps every matching function.  The
#: span's layer is the part of its name before the first dot.
SPANS: tuple[tuple[str, str, str], ...] = (
    *((site, attr, span) for site in _COMPILER_SITES
      for attr, span in _COMPILER_PASSES),
    ("repro.asm.assembler", "Assembler.assemble", "asm.assemble"),
    ("repro.machine.cpu", "Machine.run", "machine.run"),
    ("repro.machine.cpu", "compile_block", "machine.block_compile"),
    ("repro.experiments.cacheperf", "simulate_caches_grid", "cache.grid"),
    ("repro.cache.vector", "replay_reads", "cache.replay"),
    ("repro.cache.vector", "replay_tagged", "cache.replay"),
    ("repro.cache.cache", "Cache.run_reads", "cache.replay"),
    ("repro.labcache", "ArtifactCache.get", "labcache.get"),
    ("repro.labcache", "ArtifactCache.put", "labcache.put"),
    ("repro.experiments.runner", "Lab.runs", "experiments.grid"),
    ("repro.experiments.runner", "_grid_cell_worker", "experiments.cell"),
    ("repro.experiments.runner", "Lab.run", "experiments.lab"),
    ("repro.experiments.runner", "Lab.trace", "experiments.lab"),
    ("repro.experiments.runner", "Lab.executable", "experiments.lab"),
    ("repro.experiments", "run_*", "experiments.tables"),
    ("repro.experiments", "format_*", "experiments.tables"),
    ("repro.analysis", "lint_suite", "analysis.lint"),
    ("repro.analysis", "timing_suite", "analysis.timing"),
    ("repro.analysis", "wcet_suite", "analysis.wcet"),
    ("repro.analysis", "icache_suite", "analysis.icache"),
    ("repro.analysis", "density_suite", "analysis.density"),
    ("repro.analysis", "vuln_suite", "analysis.vuln"),
    ("repro.analysis", "tv_suite", "analysis.tv"),
    ("repro.analysis.vuln", "build_oracle", "analysis.oracle"),
    ("repro.analysis.xisa", "analyze_source", "analysis.xisa"),
    ("repro.faults.campaign", "FaultCampaign.run", "faults.campaign"),
    ("repro.faults.campaign", "_campaign_cell", "faults.cell"),
    ("repro.faults.campaign", "plan_cell", "faults.plan"),
    ("repro.faults.campaign", "run_fault", "faults.inject"),
    ("repro.faults.campaign", "run_cache_fault", "faults.inject"),
    ("repro.faults.inject", "FunctionMap.for_source", "faults.attribute"),
    ("repro.service.scheduler", "Scheduler.submit", "service.submit"),
    ("repro.service.scheduler", "Scheduler._run_batch", "service.batch"),
    ("repro.service.store", "JournaledStore.get", "service.store_get"),
    ("repro.service.store", "JournaledStore.commit",
     "service.store_commit"),
    ("repro.service.workers", "WorkerPool.run_task", "service.dispatch"),
    ("repro.service.workers", "execute_request", "service.execute"),
    ("repro.cli", "cmd_faults", "cli.faults"),
    ("repro.cli", "cmd_lint", "cli.lint"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ------------------------------------------------------------ meters
#
# A meter reads the key and work count of one call from its arguments
# and result; ``_enter`` captures what must be read before the call.

def _enter(name: str, args: tuple) -> Any:
    if name == "machine.run":
        machine = args[0]
        return machine.instructions_executed, machine.itrace is not None
    if name == "service.batch":
        # Seconds the batch sat in the executor queue since its first
        # waiter submitted it (the scheduler's own monotonic stamp).
        return time.monotonic() - args[1].waiters[0][2]
    return None


def _describe(name: str, args: tuple, result: Any,
              entered: Any) -> tuple[str, float]:
    if name == "machine.run":
        before, traced = entered
        return ("traced" if traced else "",
                args[0].instructions_executed - before)
    if name == "labcache.get":
        return ("miss" if result is None else "hit"), 0
    if name == "cache.replay":
        try:
            return "", len(args[1])
        except TypeError:
            return "", 0
    if name in ("service.submit", "service.dispatch", "service.execute"):
        return args[1].id, 0
    if name == "service.batch":
        return args[1].request.id, entered
    if name == "faults.inject":
        return f"{args[1].bench}/{args[1].target}", 0
    if name == "faults.cell":
        return f"{args[0]}/{args[1]}", 0
    if name == "experiments.cell":
        return f"{args[0][0]}/{args[0][1]}", 0
    return "", 0


# ------------------------------------------------------------ tracer

class Tracer:
    """Records spans for one process; forked children start empty."""

    def __init__(self, out_dir: str | os.PathLike[str] | None = None, *,
                 flush_on_root: bool = True) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.flush_on_root = flush_on_root
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perf_span", default=None)
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)
        atexit.register(self.flush)

    def _after_fork(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._current.set(None)

    def record(self, name: str, start: float, end: float, sid: int,
               parent: int | None, key: str = "", n: float = 0) -> None:
        self.spans.append({
            "name": name, "start": start, "end": end, "id": sid,
            "parent": parent, "pid": os.getpid(),
            "tid": threading.get_ident(), "key": key, "n": n})
        if parent is None and self.flush_on_root:
            self.flush()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = _enter(name, args)
            result = None
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span.key, span.n = _describe(name, args, result,
                                                 entered)

        traced.__perf_span__ = name  # type: ignore[attr-defined]
        return traced

    def span(self, name: str, key: str = "") -> "_Span":
        return _Span(self, name, key)

    def close(self) -> None:
        """Write what is buffered and record nothing more."""
        self.flush()
        self.out_dir = None
        self.spans = []

    def flush(self) -> None:
        """Append this process's buffered spans to its span file."""
        if self.out_dir is None or not self.spans:
            return
        with self._lock:
            spans, self.spans = self.spans, []
            path = self.out_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as out:
                for span in spans:
                    out.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, key: str) -> None:
        self.tracer, self.name, self.key = tracer, name, key
        self.n: float = 0

    def __enter__(self) -> "_Span":
        self.parent = self.tracer._current.get()
        self.sid = next(self.tracer._ids)
        self.token = self.tracer._current.set(self.sid)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.monotonic()
        self.tracer._current.reset(self.token)
        self.tracer.record(self.name, self.start, end, self.sid,
                           self.parent, self.key, self.n)


# ------------------------------------------------------------ install

def resolve(module: Any, attribute: str) -> list[tuple[Any, str, Any]]:
    """(owner, name, raw attribute) for every target of one entry."""
    owner = module
    name = attribute
    if "." in attribute:
        class_name, name = attribute.split(".", 1)
        owner = getattr(module, class_name)
    namespace = vars(owner)
    names = (sorted(n for n in fnmatch.filter(namespace, name)
                    if callable(namespace[n]))
             if "*" in name else [name])
    return [(owner, n, namespace[n]) for n in names if n in namespace]


def patch_module(tracer: Tracer, module: Any) -> None:
    """Wrap the table's entries for ``module``."""
    for module_name, attribute, span in SPANS:
        if module_name != module.__name__:
            continue
        for owner, name, raw in resolve(module, attribute):
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if getattr(fn, "__perf_span__", None):
                continue
            new = tracer.wrap(fn, span)
            setattr(owner, name,
                    classmethod(new) if isinstance(raw, classmethod)
                    else new)


class _ImportHook(importlib.abc.MetaPathFinder):
    """Times ``repro`` imports and patches each module once loaded."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname: str, path: Any, target: Any = None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if finder is self or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = getattr(loader, "exec_module", None)
        if exec_module is None:
            return spec
        tracer = self.tracer

        def traced_exec(module: Any) -> None:
            with tracer.span("import", key=fullname):
                exec_module(module)
            patch_module(tracer, module)

        loader.exec_module = traced_exec
        return spec


def install(tracer: Tracer) -> None:
    """Patch loaded ``repro`` modules and hook the ones still to load."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            patch_module(tracer, module)
    sys.meta_path.insert(0, _ImportHook(tracer))


def install_from_env() -> Tracer | None:
    """Trace this process when the benchmark asked for it."""
    out_dir = os.environ.get(ENV_DIR)
    if not out_dir:
        return None
    tracer = Tracer(out_dir)
    install(tracer)
    return tracer


# ------------------------------------------------------------ analysis

def load_spans(out_dir: str | os.PathLike[str]) -> list[dict[str, Any]]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part its children cover.

    A child runs in its parent's thread, inside the parent's interval,
    and siblings do not overlap, so the covered part is the sum of the
    children's durations.
    """
    index = {(s["pid"], s["id"]): i for i, s in enumerate(spans)}
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        parent = index.get((span["pid"], span["parent"]))
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return [max(0.0, t) for t in own]


def by_name(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, total seconds, work count."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0, "n": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span["end"] - span["start"]
        row["n"] += span["n"]
    return out
