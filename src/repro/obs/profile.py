"""Slow-scan exemplar capture for the scan service.

:class:`SlowScanBuffer` is a ring buffer that retains full detail (the
scan's span tree) only for scans slower than a fixed threshold or the
rolling p99 (``GET /debug/slow`` on the service).  Where a scan's time
went is read from those spans; see :func:`repro.obs.report.span_self_times`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional


class SlowScanBuffer:
    """Ring buffer of slow-scan exemplars (full detail, bounded memory).

    A scan is *slow* when its latency is at or above the fixed
    ``threshold_seconds``, or — when no threshold is configured — at or
    above the rolling p99 of the last ``window`` latencies (armed only
    once ``min_samples`` scans have been observed, so a cold service
    does not flag its first request).  Thread-safe.
    """

    def __init__(
        self,
        capacity: int = 32,
        threshold_seconds: Optional[float] = None,
        window: int = 512,
        min_samples: int = 30,
    ) -> None:
        import threading

        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.threshold_seconds = threshold_seconds
        self.min_samples = max(1, min_samples)
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._window: deque = deque(maxlen=max(window, self.min_samples))
        self._observed = 0
        self._retained = 0

    def _threshold_locked(self) -> Optional[float]:
        if self.threshold_seconds is not None:
            return self.threshold_seconds
        if len(self._window) < self.min_samples:
            return None
        ordered = sorted(self._window)
        rank = 0.99 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def observe(
        self,
        name: str,
        seconds: float,
        digest: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Record one scan latency; returns True when it was retained."""
        with self._lock:
            threshold = self._threshold_locked()
            self._window.append(seconds)
            self._observed += 1
            if threshold is None or seconds < threshold:
                return False
            self._retained += 1
            entry: Dict[str, Any] = {
                "name": name,
                "seconds": seconds,
                "threshold_seconds": threshold,
                "sequence": self._observed,
            }
            if digest:
                entry["sha256"] = digest
            if detail:
                entry.update(detail)
            self._entries.append(entry)
            return True

    def snapshot(self) -> Dict[str, Any]:
        """Current exemplars (newest first) plus buffer state."""
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "effective_threshold_seconds": self._threshold_locked(),
                "capacity": self.capacity,
                "observed": self._observed,
                "retained": self._retained,
                "entries": list(reversed(self._entries)),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._window.clear()
            self._observed = 0
            self._retained = 0
