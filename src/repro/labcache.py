"""Persistent, content-addressed artifact cache for the experiment lab.

Compiling and simulating the 15-program x 5-target grid dominates the
wall-clock cost of reproducing the paper, yet the inputs rarely change
between runs.  This module memoizes the five expensive artifact kinds
across *processes*:

* ``exe``   -- linked :class:`~repro.asm.objfile.Executable` images,
* ``run``   -- :class:`~repro.machine.stats.RunStats` plus binary sizes,
* ``trace`` -- run stats together with zlib-compressed address traces,
* ``checkpoints`` -- a golden run's :class:`~repro.machine.cpu.Snapshot`
  list, which fault campaigns restore instead of simulating the prefix
  before each fault site,
* ``study`` -- a traced run's stats and sizes with its cache-study miss
  rates for one ordered list of cache geometries, so a warm cache study
  replays no trace.

Every artifact is stored under a SHA-256 key derived from *all* inputs
that can change the result: the benchmark source text, the full
:class:`~repro.cc.target.TargetSpec` fingerprint (ISA, register-file
size, two/three-address, immediate width), the pipeline latency
parameters, the cache geometries of a ``study``, and the toolchain
version.  Changing any of these yields a different key, so stale
entries are never served -- they are simply orphaned and reclaimed by
``python -m repro cache clear``.  The toolchain version stands for the
code: a change to what the compiler emits, to what a stored artifact
holds or to the cache replay's results must bump ``repro.__version__``.

Layout on disk (``.repro-cache/`` by default, override with
``REPRO_CACHE_DIR``; set ``REPRO_CACHE=off`` to disable)::

    .repro-cache/
      v2/                     <- schema version; bumping orphans everything
        ab/abcdef....bin      <- sha256(body) || body,
                                 body = zlib(pickle(payload))

Writes are atomic (temp file + ``os.replace``) so concurrent writers --
the ``jobs=N`` process pool -- can share one cache directory; both
writers produce identical bytes for identical keys, so the race is
benign.  Every entry carries a content digest that is verified on
load, so a flipped bit anywhere in the body is caught *before*
unpickling; corrupt, truncated, or unreadable entries are logged,
evicted, and treated as misses -- a damaged cache heals itself by
rebuilding instead of poisoning an experiment sweep.

Concurrent readers and evictors are safe against each other too:

* eviction is **tombstone-then-unlink** -- the damaged entry is
  atomically renamed aside before deletion, and if the rename is found
  to have captured a *freshly rebuilt* entry (a writer won the race
  between our corrupt read and the rename) the good entry is restored
  instead of destroyed;
* readers **retry once on miss** -- a ``FileNotFoundError`` may mean a
  sibling process evicted the entry a moment before our open, in which
  case the rebuild (or the tombstone restore) typically lands within
  the retry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from . import __version__

log = logging.getLogger("repro.labcache")

#: Bump to orphan every existing cache entry (on-disk format changes).
#: v2: 32-byte sha256 content digest prefixed to every entry.
SCHEMA_VERSION = "v2"

#: Length of the digest header on every on-disk entry.
DIGEST_BYTES = 32

#: Environment switches.
ENV_DIR = "REPRO_CACHE_DIR"
ENV_TOGGLE = "REPRO_CACHE"

DEFAULT_DIRNAME = ".repro-cache"


def toolchain_fingerprint() -> str:
    """Version string folded into every key (versioned invalidation;
    the module docstring says when to bump it)."""
    return f"repro-{__version__}"


def source_fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def target_fingerprint(target: Any) -> dict[str, Any]:
    """Every :class:`TargetSpec` knob that can change generated code."""
    return {
        "name": target.name,
        "isa": target.isa.name,
        "num_gregs": target.num_gregs,
        "num_fregs": target.num_fregs,
        "three_address": target.three_address,
        "wide_immediates": target.wide_immediates,
    }


def params_fingerprint(params: Any) -> dict[str, Any]:
    """Every :class:`PipelineParams` knob that can change run statistics."""
    return {
        "load_delay": params.load_delay,
        "math_latency": sorted(params.math_latency.items()),
    }


def cache_enabled() -> bool:
    return os.environ.get(ENV_TOGGLE, "").lower() not in (
        "off", "0", "no", "false")


def default_cache_root() -> Path:
    return Path(os.environ.get(ENV_DIR) or DEFAULT_DIRNAME)


@dataclass
class CacheStats:
    """What ``python -m repro cache stats`` reports."""

    root: str
    entries: int
    total_bytes: int
    hits: int = 0
    misses: int = 0


class ArtifactCache:
    """Content-addressed pickle store shared by every lab process."""

    def __init__(self, root: str | os.PathLike[str] | None = None, *,
                 enabled: bool = True) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keys

    def make_key(self, kind: str, material: dict[str, Any]) -> str:
        """Derive the content address for one artifact.

        ``material`` must contain every input that can change the
        artifact; the toolchain version and schema are always mixed in.
        """
        record = {
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "toolchain": toolchain_fingerprint(),
            **material,
        }
        blob = json.dumps(record, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / SCHEMA_VERSION / key[:2] / f"{key}.bin"

    def entry_path(self, key: str) -> Path:
        """On-disk location of ``key``'s entry (for tooling/tests)."""
        return self._path(key)

    # ------------------------------------------------------------ get/put

    def get(self, key: str) -> Any:
        """Load an artifact, or None on miss (never raises).

        The stored digest is verified before the body is unpickled, so
        on-disk corruption is caught deterministically; any damaged
        entry is evicted (see :meth:`_evict`) and reported as a miss,
        letting the caller rebuild it.

        A :class:`FileNotFoundError` is retried once: a concurrent
        evictor may have tombstoned the entry between our path lookup
        and open, and the rebuild (or the evictor's good-entry restore)
        frequently lands immediately after.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        for attempt in range(2):
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                if attempt == 0:
                    continue
                self.misses += 1
                return None
            except OSError:
                self.misses += 1
                return None
            try:
                body = self._verified_body(blob)
                payload = pickle.loads(zlib.decompress(body))
            except Exception as exc:
                # Corrupt/truncated/unpicklable entry: drop it, treat
                # as a miss.
                self.misses += 1
                self._evict(path, exc, observed=blob)
                return None
            self.hits += 1
            return payload
        return None  # pragma: no cover - loop always returns

    def _verified_body(self, blob: bytes) -> bytes:
        """The entry body iff the digest header checks out (raises)."""
        if len(blob) < DIGEST_BYTES:
            raise ValueError(f"entry shorter than its {DIGEST_BYTES}"
                             f"-byte digest header ({len(blob)} bytes)")
        digest, body = blob[:DIGEST_BYTES], blob[DIGEST_BYTES:]
        if hashlib.sha256(body).digest() != digest:
            raise ValueError("content digest mismatch")
        return body

    def _verify_blob(self, blob: bytes) -> bool:
        try:
            self._verified_body(blob)
        except ValueError:
            return False
        return True

    def _evict(self, path: Path, reason: Exception,
               observed: bytes | None = None) -> None:
        """Remove a damaged entry via tombstone-then-unlink.

        The entry is first renamed to a per-process tombstone -- an
        atomic step that takes it out of readers' way without a window
        where a *rebuilt* entry could be deleted by mistake.  If the
        tombstoned bytes turn out to differ from the corrupt bytes we
        observed *and* verify cleanly, a concurrent writer rebuilt the
        entry between our read and the rename -- restore it instead of
        unlinking.  Logged; never raises.
        """
        log.warning("evicting corrupt cache entry %s: %s", path, reason)
        tomb = path.with_name(f"{path.name}.tomb-{os.getpid()}")
        try:
            os.replace(path, tomb)
        except OSError:
            return  # already gone: someone else evicted or rebuilt it
        try:
            current = tomb.read_bytes()
        except OSError:
            current = None
        if (current is not None and observed is not None
                and current != observed and self._verify_blob(current)):
            # We grabbed a freshly rebuilt (good) entry: put it back.
            try:
                os.replace(tomb, path)
            except OSError:
                pass
            return
        try:
            tomb.unlink()
        except OSError:
            pass

    def put(self, key: str, payload: Any) -> None:
        """Store an artifact atomically (no-op when disabled)."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = zlib.compress(pickle.dumps(payload, protocol=4), 6)
        blob = hashlib.sha256(body).digest() + body
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -------------------------------------------------------- maintenance

    def _entries(self) -> Iterator[Path]:
        base = self.root / SCHEMA_VERSION
        if not base.is_dir():
            return
        for path in sorted(base.glob("*/*.bin")):
            yield path

    def _tombstones(self) -> Iterator[Path]:
        base = self.root / SCHEMA_VERSION
        if not base.is_dir():
            return
        for path in sorted(base.glob("*/*.bin.tomb-*")):
            yield path

    def stats(self) -> CacheStats:
        entries = total = 0
        for path in self._entries():
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(root=str(self.root), entries=entries,
                          total_bytes=total, hits=self.hits,
                          misses=self.misses)

    def clear(self) -> int:
        """Delete every entry (and stale tombstones); returns the
        number of entries removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self._tombstones():
            try:
                path.unlink()
            except OSError:
                pass
        return removed


def default_cache() -> ArtifactCache:
    """The process-default cache, honouring REPRO_CACHE/REPRO_CACHE_DIR."""
    return ArtifactCache(enabled=cache_enabled())

