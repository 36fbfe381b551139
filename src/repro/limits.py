"""Resource budgets for scanning hostile input (``repro.limits``).

The front-end parses *attacker-supplied* PDFs before any detection
happens, so every unbounded loop in the parse path is a denial of
service waiting to happen: a decompression bomb, a 100-level filter
cascade, an xref table claiming 2^31 entries, a cyclic reference
chain, or a page tree nested a few thousand dicts deep.  This module
centralises the budgets that bound that work:

* :class:`ScanLimits` — the immutable configuration: how much of each
  resource one document may consume (``None`` disables a budget).
* :class:`ScanBudget` — the per-scan runtime companion: tracks the
  wall-clock deadline and accumulated decompressed bytes, and raises
  :class:`ResourceLimitExceeded` the moment a budget is blown.
* :func:`activate` / :func:`active` — a :mod:`contextvars`-based scope
  so deeply nested code (``PDFStream.decoded_data`` called from
  anywhere) sees the budget of the scan it runs under without having
  the budget threaded through every signature.

The pipeline (:meth:`repro.core.pipeline.ProtectionPipeline.scan`)
activates one budget per document and converts any
:class:`ResourceLimitExceeded` into a structured *errored*
``OpenReport`` naming the blown budget — never a hang, OOM or bare
traceback.  See ``docs/HARDENING.md`` for each budget and its default.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, Optional


class ResourceLimitExceeded(Exception):
    """A scan blew one of its resource budgets.

    ``kind`` names the budget (``stream-bytes``, ``document-bytes``,
    ``filter-depth``, ``object-count``, ``nesting-depth``,
    ``deadline``, ``js-steps``); ``limit`` is the configured bound and
    ``detail`` optional free-text evidence.  The JS engine's historical
    ``resource`` attribute is kept as an alias.
    """

    def __init__(self, kind: str, limit: Any, detail: Optional[str] = None) -> None:
        text = f"{kind} limit exceeded (limit {limit}"
        if detail:
            text += f"; {detail}"
        text += ")"
        super().__init__(text)
        self.kind = kind
        self.limit = limit
        self.detail = detail

    @property
    def resource(self) -> str:
        return self.kind

    def evidence(self) -> Dict[str, Any]:
        """JSON-serialisable description for reports."""
        return {"kind": self.kind, "limit": self.limit, "detail": self.detail}


_SIZE_SUFFIXES = {"k": 1 << 10, "kb": 1 << 10, "m": 1 << 20, "mb": 1 << 20,
                  "g": 1 << 30, "gb": 1 << 30}

_UNLIMITED_WORDS = {"none", "off", "unlimited", "inf"}


def _parse_size(text: str) -> Optional[int]:
    text = text.strip().lower()
    if text in _UNLIMITED_WORDS:
        return None
    for suffix, factor in _SIZE_SUFFIXES.items():
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * factor)
    return int(text)


@dataclass(frozen=True)
class ScanLimits:
    """Per-document resource budgets (``None`` = that budget is off).

    The defaults are deliberately generous — orders of magnitude above
    anything a legitimate document in the corpus needs — so they only
    ever fire on hostile or pathological input.
    """

    #: Decompressed output bytes allowed for a single stream.
    max_stream_bytes: Optional[int] = 64 * 1024 * 1024
    #: Total decompressed bytes across all streams of one document.
    max_document_bytes: Optional[int] = 256 * 1024 * 1024
    #: Filters allowed in one stream's decode cascade.
    max_filter_depth: Optional[int] = 12
    #: Indirect objects one document may define (also clamps xref
    #: subsection entry counts claimed by the file).
    max_objects: Optional[int] = 250_000
    #: Reference-resolution hops before ``deep_resolve`` gives up and
    #: returns null (cyclic or absurdly long ``R`` chains).
    max_ref_hops: int = 64
    #: Container (dict/array) nesting depth while parsing values and
    #: walking the page tree.
    max_nesting_depth: Optional[int] = 120
    #: Wall-clock seconds one scan may spend (checked *inside* the
    #: parser loops, so a hung parse aborts itself even on a thread
    #: pool that cannot kill workers).
    deadline_seconds: Optional[float] = 30.0
    #: JS interpreter step budget (unifies the engine's ``max_steps``).
    max_js_steps: int = 20_000_000
    #: Abstract-interpretation step budget per script (the static
    #: triage proof tier; exhausted budgets fail open to the runtime).
    max_absint_steps: int = 200_000

    # -- construction ----------------------------------------------------

    @classmethod
    def unlimited(cls) -> "ScanLimits":
        """Every budget off (step budget kept: an infinite JS loop
        would otherwise hang even trusted-input workflows)."""
        return cls(
            max_stream_bytes=None,
            max_document_bytes=None,
            max_filter_depth=None,
            max_objects=None,
            max_nesting_depth=None,
            deadline_seconds=None,
        )

    #: CLI spelling -> field name (``repro scan --limits k=v,k=v``).
    ALIASES = {
        "stream-bytes": "max_stream_bytes",
        "document-bytes": "max_document_bytes",
        "filter-depth": "max_filter_depth",
        "objects": "max_objects",
        "ref-hops": "max_ref_hops",
        "nesting-depth": "max_nesting_depth",
        "deadline": "deadline_seconds",
        "js-steps": "max_js_steps",
        "absint-steps": "max_absint_steps",
    }

    @classmethod
    def parse(cls, spec: str, base: Optional["ScanLimits"] = None) -> "ScanLimits":
        """Parse ``key=value,key=value`` overrides onto ``base``.

        Keys use the CLI spellings (:attr:`ALIASES`); sizes accept
        ``kb``/``mb``/``gb`` suffixes; ``none``/``off`` disables a
        budget.  Example: ``stream-bytes=8mb,deadline=5``.
        """
        limits = base if base is not None else cls()
        overrides: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad limits override {part!r} (want key=value)")
            key, _, value = part.partition("=")
            field_name = cls.ALIASES.get(key.strip())
            if field_name is None:
                known = ", ".join(sorted(cls.ALIASES))
                raise ValueError(f"unknown limit {key.strip()!r} (known: {known})")
            if field_name == "deadline_seconds":
                text = value.strip().lower()
                overrides[field_name] = (
                    None if text in _UNLIMITED_WORDS else float(text)
                )
            elif field_name in (
                "max_ref_hops",
                "max_js_steps",
                "max_absint_steps",
            ):
                overrides[field_name] = int(float(value))
            else:
                overrides[field_name] = _parse_size(value)
        return replace(limits, **overrides)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScanLimits":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> str:
        """One-line human-readable rendering (CLI/report output)."""
        parts = []
        for alias, field_name in self.ALIASES.items():
            value = getattr(self, field_name)
            parts.append(f"{alias}={'off' if value is None else value}")
        return " ".join(parts)


#: The process-wide default budget configuration.
DEFAULT_LIMITS = ScanLimits()


def cap_deadline(limits: ScanLimits, seconds: Optional[float]) -> ScanLimits:
    """Return ``limits`` with its wall-clock deadline capped at ``seconds``.

    The batch scanner and the scan service both run scans on worker
    threads that cannot be killed, so any externally imposed deadline
    (per-attempt timeout, admission deadline) must be folded into the
    in-parser budget — a hung parse then aborts *itself* instead of
    squatting a pool slot.  ``seconds=None`` leaves ``limits``
    untouched; a tighter existing deadline is kept.
    """
    if seconds is None:
        return limits
    if limits.deadline_seconds is None or limits.deadline_seconds > seconds:
        return replace(limits, deadline_seconds=seconds)
    return limits


class ScanBudget:
    """Mutable per-scan state enforcing one :class:`ScanLimits`.

    One instance covers one document scan end to end (both phases);
    decompressed bytes are charged per *stream object* at its maximum
    observed size, so re-decoding the same stream twice is not counted
    twice.
    """

    __slots__ = ("limits", "_clock", "_deadline_at", "_stream_bytes",
                 "_total_bytes", "hits")

    def __init__(self, limits: Optional[ScanLimits] = None) -> None:
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._clock = time.monotonic
        self._deadline_at: Optional[float] = None
        if self.limits.deadline_seconds is not None:
            self._deadline_at = self._clock() + self.limits.deadline_seconds
        self._stream_bytes: Dict[int, int] = {}
        self._total_bytes = 0
        #: Budget kinds that raised under this budget (for reports).
        self.hits: list[str] = []

    # -- individual checks ----------------------------------------------

    def _blow(self, kind: str, limit: Any, detail: Optional[str] = None) -> None:
        self.hits.append(kind)
        raise ResourceLimitExceeded(kind, limit, detail)

    def check_deadline(self) -> None:
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            self._blow(
                "deadline", self.limits.deadline_seconds,
                "parse/scan wall-clock budget spent",
            )

    def check_filter_depth(self, depth: int) -> None:
        bound = self.limits.max_filter_depth
        if bound is not None and depth > bound:
            self._blow("filter-depth", bound, f"cascade declares {depth} filters")

    def check_object_count(self, count: int) -> None:
        bound = self.limits.max_objects
        if bound is not None and count > bound:
            self._blow("object-count", bound, f"document defines {count}+ objects")

    def check_nesting_depth(self, depth: int) -> None:
        bound = self.limits.max_nesting_depth
        if bound is not None and depth > bound:
            self._blow("nesting-depth", bound, "containers nested too deeply")

    def exhaust_ref_hops(self, hops: int) -> None:
        """A reference chain outran the hop budget (a cycle, usually)."""
        self._blow(
            "ref-hops", self.limits.max_ref_hops,
            f"reference chain still unresolved after {hops} hops (cycle?)",
        )

    @property
    def max_stream_output(self) -> Optional[int]:
        return self.limits.max_stream_bytes

    def charge_stream(self, key: int, nbytes: int) -> None:
        """Account ``nbytes`` of decompressed output for stream ``key``."""
        bound = self.limits.max_stream_bytes
        if bound is not None and nbytes > bound:
            self._blow("stream-bytes", bound, f"stream inflated to {nbytes} bytes")
        previous = self._stream_bytes.get(key, 0)
        if nbytes > previous:
            self._total_bytes += nbytes - previous
            self._stream_bytes[key] = nbytes
        doc_bound = self.limits.max_document_bytes
        if doc_bound is not None and self._total_bytes > doc_bound:
            self._blow(
                "document-bytes", doc_bound,
                f"document inflated to {self._total_bytes} bytes",
            )

    @property
    def total_decompressed(self) -> int:
        return self._total_bytes

    def remaining_seconds(self) -> Optional[float]:
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())


_active: contextvars.ContextVar[Optional[ScanBudget]] = contextvars.ContextVar(
    "repro_scan_budget", default=None
)


def active() -> Optional[ScanBudget]:
    """The budget of the enclosing :func:`activate` scope, if any."""
    return _active.get()


@contextlib.contextmanager
def activate(limits: Optional[ScanLimits] = None) -> Iterator[ScanBudget]:
    """Install a :class:`ScanBudget` for the duration of one scan.

    Re-entrant: when a budget is already active (e.g. an embedded PDF
    instrumented inside its host's scan), the enclosing budget keeps
    governing — deadline and byte totals stay document-wide.
    """
    existing = _active.get()
    if existing is not None:
        yield existing
        return
    budget = ScanBudget(limits)
    token = _active.set(budget)
    try:
        yield budget
    finally:
        _active.reset(token)


__all__ = [
    "DEFAULT_LIMITS",
    "ResourceLimitExceeded",
    "ScanBudget",
    "ScanLimits",
    "activate",
    "active",
    "cap_deadline",
]
