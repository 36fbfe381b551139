"""Outside-in layer tracer for the traced benchmark run.

Wraps the public entry point of every layer with a timing wrapper,
from the benchmark's own code: nothing under ``src/`` changes, and the
JS engine stays the bytecode VM (``profile=True`` is never set, because
profiled scans fall back to the tree-walker).

Each name is patched where its caller looks it up.  A function that a
module imports by name (``analyze_document`` in ``repro.core.instrument``)
is patched in that module; a method or classmethod is patched on its
class.  ``PDFDocument.from_bytes`` counts as ``reader.parse`` when the
reader calls it from inside ``Reader.open`` and as ``pdf.parse``
otherwise.

Wrappers keep a stack of open layers, so every ``*_s`` figure is self
time: a layer's wall time minus the time of the wrapped layers it
called.  ``ProtectionPipeline.scan`` is wrapped as the root layer
``other``; its self time is the scan's wall time that no other wrapped
layer claims.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Layer names in report order; ``other`` is the unclaimed rest of a scan.
LAYERS = (
    "pdf.parse",
    "reader.parse",
    "pdf.decode",
    "pdf.serialize",
    "core.chains",
    "core.static_features",
    "jsast.analyze",
    "jsast.fold",
    "jsast.js_parse",
    "jsast.absint",
    "core.instrument",
    "core.session",
    "reader.open",
    "reader.pump",
    "reader.close",
    "js.compile",
    "js.run",
    "core.monitor",
    "other",
)

LayerName = Union[str, Callable[[List[str]], str]]


def _parse_layer(open_layers: List[str]) -> str:
    return "reader.parse" if "reader.open" in open_layers else "pdf.parse"


def _decoded_bytes(tracer: "LayerTracer", result: bytes) -> None:
    tracer.counts["pdf.decoded_bytes"] += len(result)


def _scan_counts(tracer: "LayerTracer", report: Any) -> None:
    """Work counts read from a scan's report: JS steps from its
    interpreter, and whether triage skipped a rewritten document."""
    counts = tracer.counts
    counts["scans"] += 1
    triaged = bool(getattr(report, "triaged", False))
    counts["triaged"] += triaged
    interpreter = getattr(getattr(report.outcome, "handle", None), "interpreter", None)
    if interpreter is not None:
        counts["js.steps"] += interpreter.steps
    if report.protected is not None:
        result = report.protected.instrumentation
        if result.instrumented_scripts or result.embedded:
            counts["rewrites"] += 1
            counts["rewrites_unused"] += triaged


def patch_table() -> List[Tuple[Any, str, LayerName, Optional[Callable]]]:
    """``(owner, attribute, layer, on_result)`` for every wrapped callable."""
    from repro.core import instrument, pipeline, runtime_monitor
    from repro.js import interpreter, vm
    from repro.jsast import analyzer, rules_absint
    from repro.pdf import document, objects, writer
    from repro.reader import reader

    return [
        (pipeline.ProtectionPipeline, "scan", "other", _scan_counts),
        (document.PDFDocument, "from_bytes", _parse_layer, None),
        (objects.PDFStream, "decoded_data", "pdf.decode", _decoded_bytes),
        (document.PDFDocument, "to_bytes", "pdf.serialize", None),
        (writer, "write_incremental_update", "pdf.serialize", None),
        (instrument, "analyze_chains", "core.chains", None),
        (instrument, "extract_static_features", "core.static_features", None),
        (instrument, "analyze_document", "jsast.analyze", None),
        (analyzer, "build_context", "jsast.fold", None),
        (analyzer, "parse", "jsast.js_parse", None),
        (rules_absint, "run_absint", "jsast.absint", None),
        (instrument.Instrumenter, "instrument", "core.instrument", None),
        (pipeline.MonitoredSession, "__init__", "core.session", None),
        (reader.Reader, "open", "reader.open", None),
        (reader.Reader, "pump", "reader.pump", None),
        (reader.Reader, "close", "reader.close", None),
        (reader.Reader, "close_all", "reader.close", None),
        (vm, "compile_source", "js.compile", None),
        (interpreter.Interpreter, "run", "js.run", None),
        (vm.BytecodeInterpreter, "run", "js.run", None),
        (runtime_monitor.RuntimeMonitor, "verdict_for", "core.monitor", None),
    ]


class LayerTracer:
    """Self time, call counts and work counts per layer (one thread)."""

    def __init__(self, inject: Optional[Tuple[str, float]] = None) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``(layer, seconds)``: spin that long inside every call of the
        #: layer (the benchmark self-test's fixed slowdown).  A busy
        #: wait, not a sleep: an idle CPU would also slow the layers
        #: that run next.
        self.inject = inject
        self._children: List[float] = []
        self._open: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def install(self, only: Optional[str] = None) -> "LayerTracer":
        """Wrap every layer, or with ``only`` just that layer's callables.

        ``only`` must name a layer that owns its callables: the parse
        layers share ``from_bytes`` and are told apart by the open
        ``reader.open`` layer, which is not wrapped then.
        """
        table = patch_table()
        if only is not None and only not in [layer for _, _, layer, _ in table]:
            raise ValueError(f"cannot wrap {only!r} on its own")
        for owner, attr, layer, on_result in table:
            if only is not None and layer != only:
                continue
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(self._wrap(raw.__func__, layer, on_result))
                self._undo.append((owner, attr, raw))
            else:
                original = getattr(owner, attr)
                replacement = self._wrap(original, layer, on_result)
                self._undo.append((owner, attr, raw if raw is not None else original))
            setattr(owner, attr, replacement)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(
        self, fn: Callable, layer: LayerName, on_result: Optional[Callable]
    ) -> Callable:
        children = self._children
        open_layers = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer(open_layers) if callable(layer) else layer
            start = clock()
            children.append(0.0)
            open_layers.append(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                if self.inject is not None and self.inject[0] == name:
                    until = clock() + self.inject[1]
                    while clock() < until:
                        pass
                return result
            finally:
                elapsed = clock() - start
                child = children.pop()
                open_layers.pop()
                self.self_s[name] += elapsed - child
                self.calls[name] += 1
                if children:
                    children[-1] += elapsed

        return wrapper

    # -- results ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        """Atomically write :meth:`snapshot` as JSON to ``path``."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def merge(snapshots: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several :meth:`LayerTracer.snapshot` results."""
    total: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for section, values in snap.items():
            bucket = total[section]
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return total
