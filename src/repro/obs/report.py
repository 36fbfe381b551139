"""Trace aggregation: turn a JSONL trace into summary tables.

Backs the ``repro report FILE.jsonl`` command and the benchmark
helpers that read span data out of a :class:`~repro.obs.sinks.MemorySink`
instead of re-timing by hand.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

SpanRecord = Dict[str, Any]


def read_trace(path: Union[str, Path]) -> Dict[str, List[Dict[str, Any]]]:
    """Load a JSONL trace back into ``{"spans": [...], "events": [...],
    "metrics": [...]}`` (unknown record types are preserved under
    ``"other"``)."""
    out: Dict[str, List[Dict[str, Any]]] = {
        "spans": [], "events": [], "metrics": [], "other": [],
    }
    buckets = {"span": "spans", "event": "events", "metric": "metrics"}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        out[buckets.get(record.get("type"), "other")].append(record)
    return out


# -- span-tree helpers (also used by the benchmark suite) -----------------


def spans_named(spans: Iterable[SpanRecord], name: str) -> List[SpanRecord]:
    return [s for s in spans if s["name"] == name]


def children_of(spans: Iterable[SpanRecord], root: SpanRecord) -> List[SpanRecord]:
    """Direct children of ``root`` in a flat span list."""
    root_id = root["span_id"]
    return [s for s in spans if s.get("parent_id") == root_id]


def child_durations(spans: Iterable[SpanRecord], root: SpanRecord) -> Dict[str, float]:
    """Summed duration of ``root``'s direct children, grouped by name."""
    durations: Dict[str, float] = defaultdict(float)
    for child in children_of(spans, root):
        durations[child["name"]] += child["duration"]
    return dict(durations)


# -- aggregation -----------------------------------------------------------


def aggregate_spans(spans: Iterable[SpanRecord]) -> List[List[str]]:
    """Per-span-name latency rows: name, count, total/mean/max seconds."""
    totals: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        totals[span["name"]].append(span["duration"])
    rows = []
    for name in sorted(totals, key=lambda n: -sum(totals[n])):
        values = totals[name]
        rows.append(
            [
                name,
                str(len(values)),
                f"{sum(values):.4f}",
                f"{sum(values) / len(values):.4f}",
                f"{max(values):.4f}",
            ]
        )
    return rows


def aggregate_events(events: Iterable[Dict[str, Any]]) -> List[List[str]]:
    """Per-event-name counts; syscall/feature events keep their most
    informative tag (context / feature) as part of the key."""
    counts: Dict[str, int] = defaultdict(int)
    for event in events:
        tags = event.get("tags") or {}
        label = event["name"]
        if "context" in tags:
            label += f"{{context={tags['context']}}}"
        if "feature" in tags:
            label += f"{{feature={tags['feature']}}}"
        counts[label] += 1
    return [[label, str(count)] for label, count in sorted(counts.items())]


def aggregate_metrics(metrics: Iterable[Dict[str, Any]]) -> List[List[str]]:
    rows = []
    for record in metrics:
        if record.get("kind") == "histogram":
            value = (
                f"count={record.get('count')} mean={record.get('mean', 0):.4g} "
                f"max={record.get('max')}"
            )
        else:
            value = f"{record.get('value')}"
        rows.append([record.get("kind", "?"), record.get("key", record.get("name", "?")), value])
    return sorted(rows)


def aggregate_batch(spans: Iterable[SpanRecord]) -> List[List[str]]:
    """Per-status rows from ``batch.document`` spans (``repro batch
    --trace``): count, attempts and worker-side scan-time stats."""
    by_status: Dict[str, List[SpanRecord]] = defaultdict(list)
    for span in spans_named(spans, "batch.document"):
        by_status[span.get("tags", {}).get("status", "?")].append(span)
    rows = []
    for status in sorted(by_status):
        group = by_status[status]
        seconds = [s["tags"].get("scan_seconds", 0.0) for s in group]
        attempts = sum(s["tags"].get("attempts", 0) for s in group)
        rows.append(
            [
                status,
                str(len(group)),
                str(attempts),
                f"{sum(seconds):.4f}",
                f"{max(seconds):.4f}" if seconds else "-",
            ]
        )
    return rows


def aggregate_serve(spans: Iterable[SpanRecord]) -> List[List[str]]:
    """Service rows from ``serve.request`` spans (``repro serve
    --trace``): per-HTTP-status request counts, cache hits, queue wait
    and end-to-end latency."""
    by_status: Dict[str, List[SpanRecord]] = defaultdict(list)
    for span in spans_named(spans, "serve.request"):
        tags = span.get("tags", {})
        status = str(tags.get("status", "?"))
        reason = tags.get("shed_reason")
        if reason:
            status += f" ({reason})"
        by_status[status].append(span)
    all_spans = list(spans)
    rows = []
    for status in sorted(by_status):
        group = by_status[status]
        cached = sum(1 for s in group if s.get("tags", {}).get("cached"))
        waits = [
            child["duration"]
            for root in group
            for child in children_of(all_spans, root)
            if child["name"] == "serve.queue_wait"
        ]
        durations = [s["duration"] for s in group]
        rows.append(
            [
                status,
                str(len(group)),
                str(cached),
                f"{max(waits):.4f}" if waits else "-",
                f"{sum(durations) / len(durations):.4f}",
                f"{max(durations):.4f}",
            ]
        )
    return rows


def aggregate_slowest(
    spans: Iterable[SpanRecord], top: int = 5
) -> List[List[str]]:
    """The slowest individual scans/requests with a child breakdown.

    Ranks ``pipeline.scan`` and ``serve.request`` spans by duration and
    shows where each one spent its time (direct-child spans, busiest
    first) — the trace-file counterpart of the service's ``GET
    /debug/slow`` exemplar buffer.
    """
    all_spans = list(spans)
    roots = [
        s for s in all_spans if s["name"] in ("pipeline.scan", "serve.request")
    ]
    roots.sort(key=lambda s: -s["duration"])
    rows = []
    for root in roots[: max(0, top)]:
        tags = root.get("tags", {})
        label = str(
            tags.get("document") or tags.get("name") or root["name"]
        )
        # Span ids are per-process counters, so concatenated traces (or
        # process-backend workers) can alias them.  Require children to
        # fall inside the root's [start, end] window as well.
        start, end = root.get("start"), root.get("end")
        if start is not None and end is not None:
            candidates = [
                s
                for s in all_spans
                if s.get("start") is not None
                and s.get("end") is not None
                and s["start"] >= start - 1e-9
                and s["end"] <= end + 1e-9
            ]
        else:
            candidates = all_spans
        breakdown = sorted(
            child_durations(candidates, root).items(), key=lambda kv: -kv[1]
        )
        detail = ", ".join(
            f"{name} {seconds:.4f}s" for name, seconds in breakdown[:4]
        )
        rows.append(
            [
                root["name"],
                label,
                f"{root['duration']:.4f}",
                detail or "-",
            ]
        )
    return rows


def aggregate_jsast(spans: Iterable[SpanRecord]) -> List[List[str]]:
    """Static-analysis rows from ``jsast.analyze`` spans: per-outcome
    script counts and analysis latency."""
    groups: Dict[str, List[SpanRecord]] = defaultdict(list)
    for span in spans_named(spans, "jsast.analyze"):
        tags = span.get("tags", {})
        if tags.get("suspicious"):
            outcome = "suspicious"
        elif tags.get("eligible"):
            outcome = "clean (triage-eligible)"
        else:
            outcome = "clean (needs emulation)"
        groups[outcome].append(span)
    rows = []
    for outcome in sorted(groups):
        group = groups[outcome]
        findings = sum(s.get("tags", {}).get("findings", 0) for s in group)
        total = sum(s["duration"] for s in group)
        rows.append(
            [outcome, str(len(group)), str(findings), f"{total:.4f}"]
        )
    return rows


def aggregate_triage(metrics: Iterable[Dict[str, Any]]) -> List[List[str]]:
    """Rows for triage-outcome counters: how many scans the proof tier
    settled in each direction, and why the rest fell through."""
    rows = []
    for record in metrics:
        key = str(record.get("key", record.get("name", "")))
        base = key.split("{", 1)[0]
        if base == "triage_proven_benign":
            rows.append(["proven benign", "-", str(record.get("value"))])
        elif base == "triage_proven_malicious":
            rows.append(["proven malicious", "-", str(record.get("value"))])
        elif base == "triage_failed_open":
            reason = "?"
            if "reason=" in key:
                reason = key.split("reason=", 1)[1].rstrip("}")
            rows.append(["failed open", reason, str(record.get("value"))])
    return sorted(rows)


def aggregate_limits(metrics: Iterable[Dict[str, Any]]) -> List[List[str]]:
    """Rows for ``limits_hit{kind=...}`` counters: which resource
    budgets aborted scans, and how often."""
    rows = []
    for record in metrics:
        key = str(record.get("key", record.get("name", "")))
        if not key.startswith("limits_hit"):
            continue
        kind = "?"
        if "kind=" in key:
            kind = key.split("kind=", 1)[1].rstrip("}")
        rows.append([kind, str(record.get("value"))])
    return sorted(rows)


def render_report(path: Union[str, Path]) -> str:
    """The full ``repro report`` output for one JSONL trace."""
    from repro.analysis import format_table

    trace = read_trace(path)
    sections: List[str] = []

    batch_rows = aggregate_batch(trace["spans"])
    if batch_rows:
        sections.append(
            "Batch documents (by status)\n"
            + format_table(
                ["status", "documents", "attempts", "scan total (s)",
                 "scan max (s)"],
                batch_rows,
            )
        )
    serve_rows = aggregate_serve(trace["spans"])
    if serve_rows:
        sections.append(
            "Service requests (serve.request spans)\n"
            + format_table(
                ["status", "requests", "cached", "queue max (s)",
                 "latency mean (s)", "latency max (s)"],
                serve_rows,
            )
        )
    jsast_rows = aggregate_jsast(trace["spans"])
    if jsast_rows:
        sections.append(
            "Static JS analysis (jsast.analyze spans)\n"
            + format_table(
                ["outcome", "scripts", "findings", "total (s)"], jsast_rows
            )
        )
    slow_rows = aggregate_slowest(trace["spans"])
    if slow_rows:
        sections.append(
            "Slowest scans\n"
            + format_table(
                ["span", "document", "seconds", "breakdown"], slow_rows
            )
        )
    span_rows = aggregate_spans(trace["spans"])
    if span_rows:
        sections.append(
            "Per-phase latency (spans)\n"
            + format_table(
                ["span", "count", "total (s)", "mean (s)", "max (s)"], span_rows
            )
        )
    triage_rows = aggregate_triage(trace["metrics"])
    if triage_rows:
        sections.append(
            "Triage outcomes\n"
            + format_table(["outcome", "reason", "scans"], triage_rows)
        )
    limit_rows = aggregate_limits(trace["metrics"])
    if limit_rows:
        sections.append(
            "Resource limits hit\n"
            + format_table(["limit kind", "scans aborted"], limit_rows)
        )
    event_rows = aggregate_events(trace["events"])
    if event_rows:
        sections.append(
            "Event counts\n" + format_table(["event", "count"], event_rows)
        )
    metric_rows = aggregate_metrics(trace["metrics"])
    if metric_rows:
        sections.append(
            "Metrics\n" + format_table(["kind", "metric", "value"], metric_rows)
        )
    if not sections:
        return f"(no records in {path})"
    return "\n\n".join(sections)
