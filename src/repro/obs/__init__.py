"""End-to-end tracing & metrics for both detection phases (``repro.obs``).

The subsystem has three pieces (see ``docs/OBSERVABILITY.md``):

* :class:`Tracer` — nestable spans over a monotonic clock, plus point
  events attached to the open span (one per hooked syscall, feature
  firing, context switch, confinement action).
* :class:`Metrics` — counters, gauges and fixed-bucket histograms
  (``docs_scanned``, ``syscalls{context=in_js}``, the ``malscore``
  distribution, …).
* Sinks — :class:`NullSink` (default, near-zero overhead),
  :class:`MemorySink` (tests/benchmarks), :class:`JSONLSink`
  (``repro scan --trace t.jsonl`` / ``repro report t.jsonl``) and
  :class:`StderrSink`.
* :class:`SlowScanBuffer` — slow-scan exemplar capture for
  ``GET /debug/slow``.  A scan explains its own time through its span
  tree: :func:`repro.obs.report.span_self_times` rolls spans up into
  per-name self time (``repro profile``, ``repro report``).

:class:`Observability` bundles one tracer + one metrics registry over a
shared sink; every phase-I/phase-II component accepts an ``obs``
parameter defaulting to the process-wide instance (:func:`get_default`,
reconfigured with :func:`configure`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, Metrics
from repro.obs.profile import SlowScanBuffer
from repro.obs.sinks import (
    JSONLSink,
    MemorySink,
    NULL_SINK,
    NullSink,
    Sink,
    StderrSink,
    TeeSink,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "JSONLSink",
    "MemorySink",
    "Metrics",
    "NULL_SINK",
    "NullSink",
    "Observability",
    "Sink",
    "SlowScanBuffer",
    "Span",
    "StderrSink",
    "TeeSink",
    "Tracer",
    "configure",
    "get_default",
    "set_default",
]


class Observability:
    """One tracer + one metrics registry sharing a sink."""

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self.sink = sink if sink is not None else NULL_SINK
        self.tracer = Tracer(self.sink)
        self.metrics = Metrics(self.sink)

    @property
    def enabled(self) -> bool:
        """The switch hot paths check before doing any telemetry work."""
        return self.sink.enabled

    def flush(self) -> None:
        """Emit the aggregated metrics to the sink."""
        self.metrics.flush()

    def close(self) -> None:
        """Flush metrics and close the sink (idempotent)."""
        self.flush()
        self.sink.close()

    # -- common configurations ------------------------------------------

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(NULL_SINK)

    @classmethod
    def in_memory(cls) -> "Observability":
        return cls(MemorySink())

    @classmethod
    def to_jsonl(cls, path: Union[str, "object"]) -> "Observability":
        return cls(JSONLSink(path))


#: Process-wide default: disabled until `configure()` installs a sink.
_default = Observability()


def get_default() -> Observability:
    """The process-wide :class:`Observability` (a no-op by default)."""
    return _default


def set_default(obs: Observability) -> Observability:
    """Install ``obs`` process-wide; returns the previous instance."""
    global _default
    previous = _default
    _default = obs
    return previous


def configure(sink: Optional[Sink] = None) -> Observability:
    """Build an :class:`Observability` over ``sink`` and install it as
    the process-wide default.  ``configure(None)`` restores the no-op
    default."""
    return_value = Observability(sink)
    set_default(return_value)
    return return_value
