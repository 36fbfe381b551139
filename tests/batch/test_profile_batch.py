"""Batch-layer tracing: worker spans parent to the submitting batch.run."""

from repro.batch import BatchScanner
from repro.core.pipeline import PipelineSettings
from repro.obs import MemorySink, Observability
from repro.pdf.builder import DocumentBuilder

SEED = 99


def _docs(count=3):
    items = []
    for index in range(count):
        builder = DocumentBuilder()
        builder.add_page(f"doc {index}")
        builder.add_javascript(f"var v{index} = {index} + 1; v{index} * 3;")
        items.append((f"doc{index}.pdf", builder.to_bytes()))
    return items


class TestWorkerTraceParentage:
    def test_thread_worker_spans_connect_to_batch_run(self):
        """pipeline.scan spans emitted on worker threads must chain up
        to the submitting batch.run span (trace context propagation)."""
        sink = MemorySink()
        scanner = BatchScanner(
            jobs=2,
            backend="thread",
            settings=PipelineSettings(seed=SEED),
            cache=False,
            obs=Observability(sink),
        )
        scanner.scan_items(_docs())

        by_id = {span["span_id"]: span for span in sink.spans}
        (run_span,) = sink.spans_named("batch.run")
        scan_spans = sink.spans_named("pipeline.scan")
        assert scan_spans, "no worker scan spans captured"

        def reaches_run(span):
            seen = set()
            while span is not None and span["span_id"] not in seen:
                seen.add(span["span_id"])
                if span["span_id"] == run_span["span_id"]:
                    return True
                parent = span.get("parent_id")
                span = by_id.get(parent) if parent is not None else None
            return False

        for span in scan_spans:
            assert reaches_run(span), (
                f"span {span['name']}#{span['span_id']} does not chain to "
                f"batch.run"
            )
