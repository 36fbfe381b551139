"""`ProtectionPipeline.scan` must survive malformed/truncated input.

The front-end runs on untrusted downloads; raw parser exceptions must
come back as a structured ``errored`` report, never escape ``scan``
(ISSUE 2 satellite fix).
"""

import json

import pytest

from repro.core.pipeline import OpenReport, PipelineSettings, ProtectionPipeline
from repro.obs import MemorySink, Observability
from repro.pdf.builder import DocumentBuilder


@pytest.fixture()
def obs_pipeline():
    obs = Observability(MemorySink())
    return ProtectionPipeline(seed=11, obs=obs), obs


class TestErroredScan:
    def test_garbage_bytes_do_not_raise(self, pipeline):
        report = pipeline.scan(b"\x00\x01garbage, definitely not a pdf", "junk.pdf")
        assert report.errored
        assert report.error is not None and "PDFParseError" in report.error
        assert not report.verdict.malicious
        assert report.verdict.document == "junk.pdf"

    def test_truncated_pdf_do_not_raise(self, pipeline, js_doc_bytes):
        report = pipeline.scan(js_doc_bytes[: len(js_doc_bytes) // 8], "cut.pdf")
        assert isinstance(report, OpenReport)
        # either parses enough to scan, or errors cleanly — never raises
        if report.errored:
            assert report.error

    def test_empty_bytes(self, pipeline):
        report = pipeline.scan(b"", "empty.pdf")
        assert report.errored

    def test_errored_report_shape(self, pipeline):
        report = pipeline.scan(b"nope", "junk.pdf")
        assert report.protected is None
        assert report.outcome is None
        assert not report.crashed
        assert not report.did_nothing
        assert report.alerts == []
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["errored"] is True
        assert payload["document"] == "junk.pdf"
        assert payload["key"] is None
        assert payload["crash_reason"] is None

    def test_valid_document_not_errored(self, pipeline, js_doc_bytes):
        report = pipeline.scan(js_doc_bytes, "ok.pdf")
        assert not report.errored
        assert report.error is None
        assert report.to_dict()["errored"] is False

    def test_error_metric_incremented(self, obs_pipeline):
        pipeline, obs = obs_pipeline
        pipeline.scan(b"garbage", "junk.pdf")
        assert obs.metrics.counter_value("scan_errors") == 1
        assert obs.metrics.counter_value("docs_scanned") == 1
        # no verdict counted for an errored scan
        assert obs.metrics.counter_value("verdicts", malicious=False) == 0

    def test_span_tagged_errored(self, obs_pipeline):
        pipeline, obs = obs_pipeline
        pipeline.scan(b"garbage", "junk.pdf")
        (span,) = obs.sink.spans_named("pipeline.scan")
        assert span["tags"].get("errored") is True


def _js_document(script: str) -> bytes:
    builder = DocumentBuilder()
    builder.add_page("JS")
    builder.add_javascript(script)
    return builder.to_bytes()


@pytest.mark.parametrize("triage", [False, True], ids=["full", "triage"])
def test_non_ascii_digit_scans_like_any_syntax_error(triage):
    """``²`` is no JS digit: the lexer rejects it as it does ``(;``,
    on both scan paths, where ``float('²')`` used to raise out of scan."""
    pipeline = PipelineSettings(triage=triage).build()
    digit, syntax = (
        pipeline.scan(_js_document(script), "doc.pdf")
        for script in ("var a = ²;", "var a = (;")
    )
    for report in (digit, syntax):
        assert isinstance(report, OpenReport)
    assert (digit.verdict.malicious, digit.errored) == (syntax.verdict.malicious, syntax.errored)
    assert digit.verdict.malscore == syntax.verdict.malscore
