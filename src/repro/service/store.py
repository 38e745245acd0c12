"""Crash-safe result store: content-addressed cache + WAL journal.

The store has two layers:

* the SHA-256 :class:`~repro.labcache.ArtifactCache` holds every
  completed result under a key derived from the full request material
  (so identical requests — across batches, restarts, and processes —
  are deduplicated by construction and every entry is digest-verified
  on read);
* a write-ahead **journal** (``journal.jsonl``) records batch
  lifecycle: an ``intent`` line is appended *and fsynced* before a
  batch starts executing, a ``commit`` line after its result landed in
  the cache, an ``abort`` line when it resolved to a deterministic
  error (errors are journaled but never cached — a transient
  environment failure must not become a sticky wrong answer).

Crash recovery reads the journal back: an intent without a matching
commit/abort was in flight when the service died, and
:meth:`JournaledStore.pending` returns its request so the restarted
service can finish it.  Committed work is *not* recomputed — its result
is already in the content-addressed cache, so recovery costs one cache
read per completed batch and one execution per genuinely unfinished
one.  :meth:`compact` rewrites the journal with only the still-pending
intents, bounding its growth across restarts.

Journal lines are self-delimiting JSON; a torn final line (the crash
happened mid-append) is ignored, which is safe because the only
consequence is re-executing one batch whose commit record was lost.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from ..labcache import ArtifactCache
from .model import Request

#: Journal file name inside the service root.
JOURNAL_NAME = "journal.jsonl"

#: Journal schema version, embedded in every record.
JOURNAL_SCHEMA = 1


class JournaledStore:
    """Content-addressed result store with a write-ahead journal."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache = ArtifactCache(self.root / "store")
        self.journal_path = self.root / JOURNAL_NAME
        self._lock = threading.Lock()

    # ------------------------------------------------------------- keys

    def result_key(self, request: Request) -> str:
        """Content address for one request's result."""
        return self.cache.make_key(f"svc-{request.kind}",
                                   request.material())

    # ------------------------------------------------------------ cache

    def get(self, key: str) -> dict[str, Any] | None:
        """Completed result for ``key``, or None (digest-verified)."""
        payload = self.cache.get(key)
        if payload is None or not isinstance(payload, dict):
            return None
        return payload

    def commit(self, key: str, payload: dict[str, Any]) -> None:
        """Persist a completed result, then journal the commit."""
        self.cache.put(key, payload)
        self._append({"type": "commit", "key": key})

    def begin(self, key: str, request: Request) -> None:
        """Journal the intent to execute ``request`` (fsynced)."""
        self._append({"type": "intent", "key": key,
                      "request": request.material()})

    def abort(self, key: str, reason: str) -> None:
        """Close an intent that resolved to a deterministic error."""
        self._append({"type": "abort", "key": key, "reason": reason})

    # ---------------------------------------------------------- journal

    def _append(self, record: dict[str, Any]) -> None:
        record = {"schema": JOURNAL_SCHEMA, **record}
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with open(self.journal_path, "a", encoding="utf-8") as out:
                out.write(line + "\n")
                out.flush()
                os.fsync(out.fileno())

    def _records(self) -> list[dict[str, Any]]:
        if not self.journal_path.exists():
            return []
        records: list[dict[str, Any]] = []
        with open(self.journal_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail write from a crash mid-append: the
                    # worst case is one lost commit record, i.e. one
                    # re-executed batch.  Everything after a torn line
                    # is untrusted too.
                    break
                if isinstance(record, dict):
                    records.append(record)
        return records

    @staticmethod
    def _open_intents(records: list[dict[str, Any]],
                      ) -> dict[str, dict[str, Any]]:
        """The last intent record of every key that no later commit or
        abort closed, in journal order of the keys' first open intent.
        An intent whose request is not a mapping opens nothing."""
        open_intents: dict[str, dict[str, Any]] = {}
        for record in records:
            key = str(record.get("key", ""))
            kind = record.get("type")
            if kind == "intent":
                if isinstance(record.get("request"), dict):
                    open_intents[key] = record
            elif kind in ("commit", "abort"):
                open_intents.pop(key, None)
        return open_intents

    def pending(self) -> list[Request]:
        """Requests whose intent was journaled but never closed."""
        return [Request.from_dict(record["request"]) for record
                in self._open_intents(self._records()).values()]

    def compact(self) -> int:
        """Rewrite the journal keeping only the open intents that
        :meth:`pending` reads.

        Returns the number of records dropped.  Atomic: the new journal
        is written beside the old one and swapped in with
        ``os.replace``, so a crash mid-compaction leaves the previous
        (larger but complete) journal in place.
        """
        with self._lock:
            # _records takes no lock itself, so it can re-read the
            # journal under the lock held here.
            records = self._records()
            kept = list(self._open_intents(records).values())
            tmp = self.journal_path.with_suffix(".jsonl.tmp")
            with open(tmp, "w", encoding="utf-8") as out:
                for record in kept:
                    out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.journal_path)
            return len(records) - len(kept)
