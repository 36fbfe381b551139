"""Content-addressed verdict cache.

Scans are deterministic per pipeline settings (seeded RNG end to end),
so the SHA-256 of the raw document bytes fully determines the verdict.
The cache exploits that twice:

* **in-memory LRU** — duplicate documents inside one batch run (a very
  common gateway pattern: the same attachment mailed to thousands of
  users) are scanned once;
* **optional on-disk JSON** — verdicts survive across runs
  (``repro batch --cache FILE``), so re-scanning a corpus after adding
  a few documents only pays for the new ones.

The disk format is versioned; a version or settings-fingerprint
mismatch silently discards the file rather than serving stale verdicts
from a different detector configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.batch.report import VerdictSummary

#: Bump when the on-disk payload shape changes.
CACHE_FORMAT_VERSION = 1


def content_digest(data: bytes) -> str:
    """The cache key for a document: hex SHA-256 of its raw bytes."""
    return hashlib.sha256(data).hexdigest()


class VerdictCache:
    """Bounded LRU of ``sha256 -> VerdictSummary`` with JSON persistence.

    Thread-safe: the batch orchestrator reads/writes it from the main
    thread, but nothing stops callers sharing one cache across
    scanners.  Only *successful* verdicts are stored — timeouts and
    worker errors must be retried next run, and ``errored`` parses are
    cheap enough to redo.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        path: Optional[Union[str, Path]] = None,
        fingerprint: str = "",
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        #: Distinguishes caches built under different pipeline settings.
        self.fingerprint = fingerprint
        self._entries: "OrderedDict[str, VerdictSummary]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if self.path is not None:
            self.load()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    # -- core --------------------------------------------------------------

    def get(self, digest: str) -> Optional[VerdictSummary]:
        """LRU lookup; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry

    def peek(self, digest: str) -> Optional[VerdictSummary]:
        """Lookup without touching LRU order or hit/miss counters."""
        with self._lock:
            return self._entries.get(digest)

    def put(self, digest: str, summary: VerdictSummary) -> None:
        if summary.errored:
            return  # never cache failures
        with self._lock:
            self._entries[digest] = summary
            self._entries.move_to_end(digest)
            self.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def flush(self) -> None:
        """Persist to ``self.path`` when configured; no-op otherwise."""
        if self.path is not None:
            self.save()

    def close(self) -> None:
        """Flush and release; the in-memory LRU has nothing else to free."""
        self.flush()

    # -- persistence -------------------------------------------------------

    def load(self) -> int:
        """Merge entries from ``self.path``; returns how many loaded.

        Corrupt, missing, wrong-version or wrong-fingerprint files are
        treated as an empty cache — a cache must never be able to stop
        a scan run.
        """
        if self.path is None or not self.path.exists():
            return 0
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict):
            return 0
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return 0
        if payload.get("fingerprint", "") != self.fingerprint:
            return 0
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return 0
        loaded = 0
        with self._lock:
            for digest, record in entries.items():
                try:
                    self._entries[digest] = VerdictSummary.from_dict(record)
                except (KeyError, TypeError, ValueError):
                    continue
                loaded += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return loaded

    def save(self) -> Optional[Path]:
        """Atomically write the cache to ``self.path`` (tmp + rename)."""
        if self.path is None:
            return None
        with self._lock:
            payload = {
                "version": CACHE_FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "entries": {
                    digest: summary.to_dict()
                    for digest, summary in self._entries.items()
                },
            }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return self.path
