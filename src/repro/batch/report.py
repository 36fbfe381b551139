"""Batch results: per-item records and the aggregated report.

A :class:`BatchItemResult` is what the scanner hands back for every
input document — including documents that were answered from the
verdict cache, that timed out, or whose worker raised.  The
:class:`BatchReport` aggregates them into the numbers an operator
actually watches on a gateway: verdict counts, cache hit rate, scan
latency percentiles and the error list.  Everything serialises to JSON
(``repro batch --json OUT``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram

#: Item statuses.  ``ok`` means a verdict was produced (possibly
#: "reader crashed" — that *is* a verdict in this system); ``errored``
#: means the worker raised; ``timeout`` means the per-document deadline
#: expired with no result after all retries.
STATUS_OK = "ok"
STATUS_ERRORED = "errored"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class VerdictSummary:
    """The cacheable, picklable core of an :class:`~repro.core.pipeline.OpenReport`.

    Workers (possibly in another process) return this instead of the
    full report: it carries everything the batch layer aggregates and
    nothing that drags simulator state across the pickle boundary.
    """

    malicious: bool
    malscore: float
    features: Tuple[str, ...] = ()
    crashed: bool = False
    inert: bool = False
    errored: bool = False
    error: Optional[str] = None
    #: Verdict synthesised by the benign-triage fast path (no reader
    #: session was opened for this document).
    triaged: bool = False
    #: Which resource budget aborted the scan (None unless the scan was
    #: budget-errored, e.g. ``"stream-bytes"`` for a decompression bomb).
    limit_kind: Optional[str] = None

    @classmethod
    def from_report(cls, report: Any) -> "VerdictSummary":
        """Summarise any OpenReport-shaped object (stubs included)."""
        verdict = report.verdict
        return cls(
            malicious=bool(verdict.malicious),
            malscore=float(verdict.malscore),
            features=tuple(verdict.features.fired_names()),
            crashed=bool(report.crashed),
            inert=bool(getattr(report, "did_nothing", False)),
            errored=bool(getattr(report, "errored", False)),
            error=getattr(report, "error", None),
            triaged=bool(getattr(report, "triaged", False)),
            limit_kind=getattr(report, "limit_kind", None),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "malicious": self.malicious,
            "malscore": self.malscore,
            "features": list(self.features),
            "crashed": self.crashed,
            "inert": self.inert,
            "errored": self.errored,
            "error": self.error,
            "triaged": self.triaged,
            "limit_kind": self.limit_kind,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VerdictSummary":
        return cls(
            malicious=bool(payload["malicious"]),
            malscore=float(payload["malscore"]),
            features=tuple(payload.get("features", ())),
            crashed=bool(payload.get("crashed", False)),
            inert=bool(payload.get("inert", False)),
            errored=bool(payload.get("errored", False)),
            error=payload.get("error"),
            triaged=bool(payload.get("triaged", False)),
            limit_kind=payload.get("limit_kind"),
        )


@dataclass
class BatchItemResult:
    """Outcome for one input document."""

    name: str
    sha256: str
    status: str  # STATUS_OK | STATUS_ERRORED | STATUS_TIMEOUT
    verdict: Optional[VerdictSummary] = None
    #: True when the verdict came from the cache (on-disk, in-memory,
    #: or a duplicate of another document in the same run).
    cached: bool = False
    #: Number of scan attempts actually launched for this document
    #: (0 for cache hits, >1 when retries fired).
    attempts: int = 0
    #: Seconds the successful scan took inside the worker (0 for cache
    #: hits; for timeouts, the configured deadline).
    seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def malicious(self) -> bool:
        return self.verdict is not None and self.verdict.malicious

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sha256": self.sha256,
            "status": self.status,
            "verdict": self.verdict.to_dict() if self.verdict else None,
            "cached": self.cached,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "error": self.error,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass
class BatchReport:
    """Aggregated outcome of one batch run."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1
    backend: str = "thread"
    timeout: Optional[float] = None
    retries: int = 0
    #: Scans actually executed by workers (deduplicated, post-cache).
    scans_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    timeouts: int = 0
    retries_used: int = 0

    # -- aggregates --------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        out = {"benign": 0, "malicious": 0, STATUS_ERRORED: 0, STATUS_TIMEOUT: 0}
        for item in self.items:
            if item.status != STATUS_OK:
                out[item.status] += 1
            elif item.verdict is not None and item.verdict.errored:
                out[STATUS_ERRORED] += 1
            elif item.malicious:
                out["malicious"] += 1
            else:
                out["benign"] += 1
        return out

    @property
    def errors(self) -> List[Dict[str, str]]:
        """Documents that failed: name + status + error text."""
        failures = []
        for item in self.items:
            if item.status != STATUS_OK:
                failures.append(
                    {"name": item.name, "status": item.status,
                     "error": item.error or ""}
                )
            elif item.verdict is not None and item.verdict.errored:
                failures.append(
                    {"name": item.name, "status": STATUS_ERRORED,
                     "error": item.verdict.error or ""}
                )
        return failures

    @property
    def limit_hits(self) -> Dict[str, int]:
        """Budget-aborted scans, grouped by the budget kind that fired."""
        out: Dict[str, int] = {}
        for item in self.items:
            if item.verdict is not None and item.verdict.limit_kind:
                kind = item.verdict.limit_kind
                out[kind] = out.get(kind, 0) + 1
        return out

    @property
    def triaged_count(self) -> int:
        """Documents answered by the benign-triage fast path."""
        return sum(
            1
            for item in self.items
            if item.verdict is not None and item.verdict.triaged
        )

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def scan_latencies(self) -> List[float]:
        """Worker-side seconds for scans that actually ran."""
        return [
            item.seconds
            for item in self.items
            if item.status == STATUS_OK and not item.cached
        ]

    def _latency_histogram(self) -> Optional[Histogram]:
        latencies = self.scan_latencies()
        if not latencies:
            return None
        histogram = Histogram(DEFAULT_BUCKETS)
        for value in latencies:
            histogram.observe(value)
        return histogram

    @property
    def p50_seconds(self) -> float:
        histogram = self._latency_histogram()
        return histogram.quantile(0.5) if histogram is not None else 0.0

    @property
    def p95_seconds(self) -> float:
        histogram = self._latency_histogram()
        return histogram.quantile(0.95) if histogram is not None else 0.0

    def verdict_multiset(self) -> List[Tuple[str, bool, float]]:
        """Sorted ``(name, malicious, malscore)`` triples — the
        order-independent equivalence the property tests assert against
        sequential scanning."""
        return sorted(
            (item.name, item.verdict.malicious, item.verdict.malscore)
            for item in self.items
            if item.verdict is not None
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": len(self.items),
            "counts": self.counts,
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "backend": self.backend,
            "timeout": self.timeout,
            "retries": self.retries,
            "scans_executed": self.scans_executed,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "latency": {
                "p50_seconds": self.p50_seconds,
                "p95_seconds": self.p95_seconds,
            },
            "timeouts": self.timeouts,
            "retries_used": self.retries_used,
            "triaged": self.triaged_count,
            "limit_hits": self.limit_hits,
            "errors": self.errors,
            "items": [item.to_dict() for item in self.items],
        }

    def summary(self) -> str:
        """Human-readable one-screen summary (``repro batch`` output)."""
        counts = self.counts
        lines = [
            f"scanned {len(self.items)} document(s) in {self.wall_seconds:.2f}s "
            f"({self.jobs} {self.backend} worker(s), "
            f"{self.scans_executed} scan(s) executed)",
            f"  benign    : {counts['benign']}",
            f"  malicious : {counts['malicious']}",
            f"  errored   : {counts[STATUS_ERRORED]}",
            f"  timed out : {counts[STATUS_TIMEOUT]}",
            f"  cache     : {self.cache_hits} hit(s) / {self.cache_misses} "
            f"miss(es) ({self.cache_hit_rate:.0%} hit rate)",
            f"  latency   : p50 {self.p50_seconds * 1000:.1f}ms, "
            f"p95 {self.p95_seconds * 1000:.1f}ms",
        ]
        if self.triaged_count:
            lines.insert(
                5, f"  triaged   : {self.triaged_count} (emulation skipped)"
            )
        limit_hits = self.limit_hits
        if limit_hits:
            detail = ", ".join(
                f"{kind}: {count}" for kind, count in sorted(limit_hits.items())
            )
            lines.append(f"  limits    : {detail}")
        for failure in self.errors:
            lines.append(
                f"  ! {failure['name']} [{failure['status']}] {failure['error']}"
            )
        return "\n".join(lines)
