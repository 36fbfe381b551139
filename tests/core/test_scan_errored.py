"""`ProtectionPipeline.scan` must survive malformed/truncated input.

The front-end runs on untrusted downloads; raw parser exceptions must
come back as a structured ``errored`` report, never escape ``scan``
(ISSUE 2 satellite fix).
"""

import json
import random

import pytest

from repro.core.pipeline import OpenReport, PipelineSettings, ProtectionPipeline
from repro.corpus import js_snippets as js
from repro.obs import MemorySink, Observability
from repro.pdf.builder import DocumentBuilder
from repro.reader.exploits import CVE
from repro.reader.payload import Payload


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


@pytest.mark.parametrize("triage", [False, True], ids=["full", "triage"])
@pytest.mark.parametrize(
    "script",
    ["var a = []; a[-1] = 5;", "var a = [1, 2]; var b = a['²'];"],
    ids=["negative-index-store", "superscript-index-read"],
)
def test_array_keys_that_are_not_indices_scan(triage, script):
    """``-1`` and ``²`` name plain properties, not elements: storing
    ``a[-1]`` on an empty array raised IndexError and reading ``a['²']``
    raised ValueError out of the full path's scan."""
    report = PipelineSettings(triage=triage).build().scan(_js_document(script), "doc.pdf")
    assert isinstance(report, OpenReport)
    assert not report.errored
    assert not report.verdict.malicious


@pytest.mark.parametrize("triage", [False, True], ids=["full", "triage"])
@pytest.mark.parametrize(
    "script",
    [
        "var n = 0x" + "f" * 300 + ";",
        "var n = +('0x' + new Array(300).join('f'));",
        "var n = parseInt('0x' + new Array(300).join('f'));",
        "var n = parseInt('12', 37) + parseInt('12', NaN) + parseInt('12', Infinity);",
    ],
    ids=["hex-literal", "to-number", "parse-int-overflow", "parse-int-radix"],
)
def test_number_conversions_scan(triage, script):
    """Numbers of 2**1024 and up are Infinity and a bad radix is NaN.
    Each of these raised OverflowError or ValueError out of the full
    path's scan, and the hex literal out of the triage path's too."""
    report = PipelineSettings(triage=triage).build().scan(_js_document(script), "doc.pdf")
    assert isinstance(report, OpenReport)
    assert not report.errored
    assert not report.verdict.malicious


@pytest.mark.parametrize("triage", [False, True], ids=["full", "triage"])
@pytest.mark.parametrize(
    "script",
    [
        "var x = Math.floor(1/0);",
        "try { var x = Math.round(NaN); } catch (e) {}",
        "var x = 'abc'.substr(NaN);",
        "var x = String.fromCharCode(NaN);",
        "var x = new Array(NaN);",
        "var x = [1, 2, 3].slice(Infinity);",
        "var x = (255).toString(Infinity);",
        "var x = (1).toFixed(-1);",
        "var x = Math.pow(10, 400);",
        "var x = Math.pow(-8, 1/3);",
        "var a = [1, 2]; a.length = NaN;",
        "var a = [1, 2]; a.length = Infinity;",
        "var a = [1, 2]; a.length = 'x';",
        "app.clearTimeOut(NaN);",
        "util.printf('%d', Infinity);",
        "var x = util.byteToChar(NaN);",
    ],
)
def test_nan_and_infinity_integer_arguments_scan(triage, script):
    """NaN and ±Infinity where a builtin takes an integer give ES5's
    value or a catchable RangeError.  Each of these raised OverflowError,
    ValueError or TypeError out of the full path's scan."""
    report = PipelineSettings(triage=triage).build().scan(_js_document(script), "doc.pdf")
    assert isinstance(report, OpenReport)
    assert not report.errored
    assert not report.verdict.malicious


@pytest.mark.parametrize("triage", [False, True], ids=["full", "triage"])
@pytest.mark.parametrize("launch, launches", [("1e400", True), ("2", True), ("0/0", False)])
def test_export_launch_takes_to_integer(triage, launch, launches):
    """``nLaunch`` is ToInteger clamped to 0..2: +Infinity launches like
    2, NaN never does (the drop alone is malicious).  ``1e400`` raised
    OverflowError on both paths, and the proof tier lost its proof to
    ``absint-error``."""
    script = f"this.exportDataObject({{cName: 'a.exe', nLaunch: {launch}}});"
    report = PipelineSettings(triage=triage).build().scan(_js_document(script), "doc.pdf")
    assert not report.errored
    assert report.verdict.malicious
    assert ("process creation (in-JS)" in report.verdict.reasons) is launches
    proofs = [finding.rule for finding in report.js_analysis.proof_findings()]
    assert proofs == (["absint-export-launch"] if launches else [])
    assert report.triaged is (triage and launches)


def _heap_spray_dropper() -> str:
    rng = random.Random(5)
    return js.spray_script(
        150,
        Payload.dropper(),
        rng=rng,
        exploit_call=js.exploit_call_for(CVE.COLLAB_GET_ICON, rng),
    )


@pytest.mark.parametrize(
    "tail",
    ["var a = []; a[0] = a; a.join();", "function f(n) { return f(n + 1); } f(0);"],
    ids=["cyclic-join", "unbounded-recursion"],
)
def test_stack_overflow_keeps_the_sessions_verdict(tail):
    """A cyclic array joins to ``''`` and unbounded recursion ends in a
    RangeError, so the script dies like any script that throws and the
    scan keeps what the session observed.  Both tails raised Python's
    RecursionError out of the engine, and scan reported the detected
    dropper errored and benign (malscore 0)."""
    pipeline = ProtectionPipeline()
    dropper = _heap_spray_dropper()
    plain = pipeline.scan(_js_document(dropper), "doc.pdf")
    tailed = pipeline.scan(_js_document(dropper + "\n" + tail), "doc.pdf")
    assert plain.verdict.malicious
    assert not tailed.errored
    assert (tailed.verdict.malicious, tailed.verdict.malscore) == (
        plain.verdict.malicious,
        plain.verdict.malscore,
    )


def _titled_document(script: str, title: str) -> bytes:
    builder = DocumentBuilder()
    builder.add_page("JS")
    builder.set_info(Title=title)
    builder.add_javascript(script)
    return builder.to_bytes()


def test_host_strings_from_pdf_text_are_code_units():
    """``this.info.Title`` reaches JS as UTF-16 code units, as a reader
    hands it over: a UTF-16BE Title of U+1F600 has length 2.  Gated on
    the length 1 the emulator used to give it, the spray no longer
    fires; gated on 2 it does."""
    pipeline = ProtectionPipeline()
    dropper = _heap_spray_dropper()
    for length, fires in ((1, False), (2, True)):
        script = f"if (this.info.Title.length == {length}) {{\n{dropper}\n}}"
        report = pipeline.scan(_titled_document(script, "\U0001f600"), "titled.pdf")
        assert not report.errored
        assert report.verdict.malicious is fires, length
