"""The scan's front-end → reader handoff.

``ProtectionPipeline.scan`` consults triage between the front end's
analyse and rewrite steps, and hands the reader the rewritten document
in memory instead of bytes to re-parse.  ``open_protected(protect())``
keeps the byte path, so it is the reference here: with triage off, both
must produce the same report for every document.  A document triage
decides is never rewritten, yet leaves the key store exactly as a
rewrite would.
"""

from __future__ import annotations

import pytest

from repro import limits as limits_mod
from repro.core.pipeline import PARSE_ERRORS, OpenReport, ProtectionPipeline
from repro.corpus import build_dataset, dataset_items
from repro.corpus.obfuscated import obfuscated_corpus
from repro.corpus.sized import table_x_js_documents
from repro.limits import ResourceLimitExceeded, ScanLimits
from repro.obs import MemorySink, Observability
from repro.pdf import encryption
from repro.pdf.builder import DocumentBuilder
from repro.pdf.document import PDFDocument
from repro.reader.exploits import CVE
from tests.batch.golden import GOLDEN_CONFIG
from tests.conftest import spray_js
from tests.core.test_limit_reports import TIGHT
from tests.data import malformed

SEED = 1301


def _byte_path(pipe: ProtectionPipeline, data: bytes, name: str) -> OpenReport:
    """``scan`` as it was before the handoff: protect, then let the
    reader parse the protected bytes, under one scan budget."""
    try:
        with limits_mod.activate(pipe.limits):
            return pipe.open_protected(pipe.protect(data, name))
    except ResourceLimitExceeded as error:
        return OpenReport.limit_report(name, error)
    except PARSE_ERRORS as error:
        return OpenReport.errored_report(name, f"{type(error).__name__}: {error}")


def _assert_same_reports(docs, limits=None):
    handoff = ProtectionPipeline(seed=SEED, limits=limits)
    reference = ProtectionPipeline(seed=SEED, limits=limits)
    for name, data in docs:
        scanned = handoff.scan(data, name)
        expected = _byte_path(reference, data, name)
        assert scanned.to_dict() == expected.to_dict(), name
        if expected.protected is not None:
            assert scanned.protected.data == expected.protected.data, name


@pytest.mark.slow
class TestHandoffMatchesBytePath:
    def test_golden_corpus(self):
        _assert_same_reports(dataset_items(build_dataset(GOLDEN_CONFIG)))

    @pytest.mark.parametrize("limits", [None, TIGHT], ids=["default", "tight"])
    def test_malformed_corpus(self, limits):
        _assert_same_reports(malformed.corpus(), limits)

    def test_obfuscated_corpus(self):
        _assert_same_reports(obfuscated_corpus(6, 6))

    def test_table_x_js_documents(self):
        _assert_same_reports(table_x_js_documents())


def _plain(text: str) -> bytes:
    builder = DocumentBuilder()
    builder.add_page(text)
    return builder.to_bytes()


def _clean_js() -> bytes:
    builder = DocumentBuilder()
    builder.add_page("clean")
    builder.add_javascript("var x = 2 + 2; app.alert('x=' + x);")
    return builder.to_bytes()


def _spray() -> bytes:
    builder = DocumentBuilder()
    builder.add_page("")
    builder.add_javascript(spray_js())
    return builder.to_bytes()


def _spray_with_embedded_pdf() -> bytes:
    """Statically proven malicious, carrying a scripted PDF attachment
    the rewrite would instrument (and issue a key for)."""
    inner = DocumentBuilder()
    inner.add_page("inner")
    inner.add_javascript("app.alert('inner');")
    builder = DocumentBuilder()
    builder.add_page("")
    builder.add_javascript(spray_js())
    builder.add_embedded_file("inner.pdf", inner.to_bytes())
    return builder.to_bytes()


def _soap() -> bytes:
    from repro.corpus import js_snippets as js

    builder = DocumentBuilder()
    builder.add_page("soap client")
    builder.add_javascript(js.benign_soap_script())
    return builder.to_bytes()


#: Triaged benign, triaged malicious (one with an attachment) and opened
#: documents interleaved, so every triaged scan is followed by others.
SEQUENCE = [
    ("clean.pdf", _clean_js()),
    ("spray.pdf", _spray()),
    ("soap.pdf", _soap()),
    ("host.pdf", _spray_with_embedded_pdf()),
    ("plain.pdf", _plain("plain")),
    ("clean-again.pdf", _clean_js()),
    ("after.pdf", _soap()),
]


class TestTriagedScans:
    def test_triaged_scan_skips_the_rewrite(self, monkeypatch):
        serialised = []
        original = PDFDocument.to_bytes

        def counting_to_bytes(document):
            serialised.append(document)
            return original(document)

        docs = [("clean.pdf", _clean_js()), ("spray.pdf", _spray()),
                ("host.pdf", _spray_with_embedded_pdf())]
        monkeypatch.setattr(PDFDocument, "to_bytes", counting_to_bytes)
        for name, data in docs:
            observability = Observability(MemorySink())
            pipe = ProtectionPipeline(seed=SEED, triage=True, obs=observability)
            report = pipe.scan(data, name)
            observability.flush()
            assert report.triaged, name
            assert serialised == [], name
            names = [span["name"] for span in observability.sink.spans]
            assert "instrument.document" in names
            assert "instrument.rewrite" not in names, name
            assert report.protected.data == data
            assert report.protected.instrumentation.instrumented_scripts == 0
            assert report.protected.spec.entries == []

    def test_keys_match_the_untriaged_scan(self):
        triaged = ProtectionPipeline(seed=SEED, triage=True)
        full = ProtectionPipeline(seed=SEED)
        outcomes = []
        for name, data in SEQUENCE:
            fast = triaged.scan(data, name)
            slow = full.scan(data, name)
            outcomes.append(fast.triaged)
            assert fast.to_dict()["key"] == slow.to_dict()["key"], name
        assert outcomes == [True, True, False, True, True, True, False]

    def test_opened_scan_keeps_span_tree(self):
        observability = Observability(MemorySink())
        pipe = ProtectionPipeline(seed=SEED, triage=True, obs=observability)
        report = pipe.scan(_soap(), "soap.pdf")
        observability.flush()
        assert not report.triaged
        spans = observability.sink.spans
        by_id = {span["span_id"]: span["name"] for span in spans}
        parents = {span["name"]: by_id.get(span["parent_id"]) for span in spans}
        for phase in ("instrument.parse", "instrument.features",
                      "instrument.jsast", "instrument.rewrite"):
            assert parents[phase] == "instrument.document", phase


def _render_exploit_doc(encrypted: bool) -> bytes:
    """No JavaScript; a Flash render exploit the front end leaves alone."""
    builder = DocumentBuilder()
    builder.add_page("media")
    builder.add_render_exploit(CVE.FLASH, "Flash")
    document = builder.build()
    if encrypted:
        encryption.encrypt_document(document, "owner-secret", "")
    return document.to_bytes()


class TestEncryptedDocumentReachesReaderDecrypted:
    def test_encrypted_twin_crashes_like_the_plain_one(self):
        plain = ProtectionPipeline(seed=SEED).scan(_render_exploit_doc(False), "m.pdf")
        locked = ProtectionPipeline(seed=SEED).scan(_render_exploit_doc(True), "m.pdf")
        assert locked.protected.instrumentation.was_encrypted
        assert locked.protected.instrumentation.instrumented_scripts == 0
        assert plain.crashed
        assert locked.crashed
        assert locked.to_dict()["crash_reason"] == plain.to_dict()["crash_reason"]
        assert "render:Flash" in plain.to_dict()["crash_reason"]


def _big_script_doc() -> bytes:
    """One 200 KB FlateDecode script: its wrapped form decodes to ~1 MB."""
    builder = DocumentBuilder()
    builder.add_page("big script")
    builder.add_javascript(
        "var pad = '" + "a" * (200 * 1024) + "'; app.alert(pad.length);",
        encoding_levels=1,
    )
    return builder.to_bytes()


class TestRewrittenStreamChargedOnce:
    def test_document_budget_counts_the_wrapped_script_once(self):
        # The wrapped script replaces the original in the same stream
        # object, so the budget charges it once at its larger size,
        # about 1.2 MB.  A reader re-parse would charge the wrapped copy
        # again as a new stream, about 1.4 MB, and blow this limit.
        limits = ScanLimits.parse("document-bytes=1300kb")
        pipe = ProtectionPipeline(seed=SEED, limits=limits)
        with limits_mod.activate(limits) as budget:
            report = pipe.scan(_big_script_doc(), "big.pdf")
        assert not report.errored, report.error
        assert report.outcome is not None
        assert 1_100_000 < budget.total_decompressed < 1_300_000
