"""Pipeline-level hostile-input tests: every bomb in the malformed
corpus must come back as a structured, budget-attributed errored
report — never a hang, OOM or bare traceback."""

from __future__ import annotations

import time

import pytest

from repro.core.pipeline import OpenReport, ProtectionPipeline
from repro.js.compiler import clear_code_cache
from repro.limits import ResourceLimitExceeded, ScanLimits
from repro.obs import MemorySink, Observability
from repro.pdf.builder import DocumentBuilder
from tests.data import malformed

#: Budgets tight enough that every corpus bomb trips within seconds.
TIGHT = ScanLimits(
    max_stream_bytes=256 * 1024,
    max_document_bytes=1024 * 1024,
    max_filter_depth=8,
    max_objects=2000,
    deadline_seconds=10.0,
)


@pytest.fixture()
def pipeline_tight():
    return ProtectionPipeline(limits=TIGHT)


class TestBombReports:
    @pytest.mark.parametrize(
        "builder, expected_kinds",
        [
            ("decompression_bomb", {"stream-bytes", "document-bytes"}),
            ("filter_cascade_bomb", {"filter-depth"}),
            ("cyclic_reference", {"ref-hops"}),
            ("deep_page_tree", {"nesting-depth"}),
            ("object_flood", {"object-count"}),
        ],
    )
    def test_bomb_yields_attributed_errored_report(
        self, pipeline_tight, builder, expected_kinds
    ):
        data = malformed.BUILDERS[builder]()
        start = time.monotonic()
        report = pipeline_tight.scan(data, f"{builder}.pdf")
        elapsed = time.monotonic() - start
        assert report.errored
        assert report.limit_kind in expected_kinds
        assert not report.verdict.malicious
        # evidence names the blown budget
        assert any("resource limit" in r for r in report.verdict.reasons)
        assert report.limit_kind in report.verdict.reasons[0]
        # within the configured deadline (plus slack for slow machines)
        assert elapsed < TIGHT.deadline_seconds + 5

    def test_huge_xref_is_clamped_not_errored(self, pipeline_tight):
        report = pipeline_tight.scan(
            malformed.huge_xref_count(50_000_000), "huge-xref.pdf"
        )
        # The clamp satellite: the claimed count is a lie about the
        # file, not real work — the scan completes normally.
        assert not report.errored

    def test_truncated_stream_scans(self, pipeline_tight):
        report = pipeline_tight.scan(
            malformed.truncated_stream(), "truncated.pdf"
        )
        assert not report.errored

    def test_benign_doc_unaffected_by_tight_limits(
        self, pipeline_tight, simple_doc_bytes
    ):
        report = pipeline_tight.scan(simple_doc_bytes, "benign.pdf")
        assert not report.errored
        assert not report.verdict.malicious
        assert report.limit_kind is None

    def test_deadline_aborts_hung_parse(self):
        pipeline = ProtectionPipeline(
            limits=ScanLimits(deadline_seconds=0.0)
        )
        report = pipeline.scan(
            malformed.decompression_bomb(512 * 1024), "deadline.pdf"
        )
        assert report.errored
        # any budget may fire first under a zero deadline, but the
        # deadline must be among the possibilities and nothing hangs
        assert report.limit_kind is not None


def _eval_loops_document(copies: int = 200) -> bytes:
    """A script that ``eval``s ``copies`` fresh texts of 255
    instructions, each a loop inside the translator's window that runs
    twice: compiling each text and generating each loop's source at its
    second back-edge, neither charged to the step budget, are most of
    its cost (about 5 us a step)."""
    body = " ".join(f"n = n + k * {j};" for j in range(34))
    script = (
        f"var n = 0; for (var c = 0; c < {copies}; c++) {{"
        f" eval('var k = ' + c + '; for (var i = 0; i < 2; i++) {{ {body} }}'); }}"
    )
    builder = DocumentBuilder()
    builder.add_page("eval loops")
    builder.add_javascript(script)
    return builder.to_bytes()


class TestScriptDeadline:
    """The deadline bounds JS work the step budget does not charge."""

    def test_deadline_ends_a_script_of_unbudgeted_work(self):
        data = _eval_loops_document()
        clear_code_cache()
        pipeline = ProtectionPipeline(limits=ScanLimits(deadline_seconds=0.05))
        start = time.monotonic()
        report = pipeline.scan(data, "eval-loops.pdf")
        elapsed = time.monotonic() - start
        assert report.errored
        assert report.limit_kind == "deadline"
        assert "deadline" in report.verdict.reasons[0]
        assert elapsed < 0.5

    def test_default_limits_run_it_to_the_end(self):
        clear_code_cache()
        report = ProtectionPipeline().scan(_eval_loops_document(), "eval-loops.pdf")
        assert not report.errored
        assert report.limit_kind is None
        assert not report.verdict.malicious
        handle = report.outcome.handle
        assert handle.executed_scripts >= 1
        assert handle.script_errors == []


class TestLimitReportShape:
    def test_limit_report_to_dict(self):
        exc = ResourceLimitExceeded("stream-bytes", 1024, "inflated")
        report = OpenReport.limit_report("doc.pdf", exc)
        payload = report.to_dict()
        assert payload["errored"] is True
        assert payload["limit_kind"] == "stream-bytes"
        assert "stream-bytes" in payload["reasons"][0]

    def test_obs_counter_emitted(self):
        obs = Observability(MemorySink())
        pipeline = ProtectionPipeline(limits=TIGHT, obs=obs)
        pipeline.scan(malformed.decompression_bomb(2 * 1024 * 1024), "bomb.pdf")
        rendered = obs.metrics.render()
        assert "limits_hit" in rendered
        assert "kind=stream-bytes" in rendered

    def test_render_report_limits_section(self, tmp_path):
        from repro.obs import JSONLSink
        from repro.obs.report import render_report

        trace = tmp_path / "trace.jsonl"
        obs = Observability(JSONLSink(trace))
        pipeline = ProtectionPipeline(limits=TIGHT, obs=obs)
        pipeline.scan(malformed.decompression_bomb(2 * 1024 * 1024), "bomb.pdf")
        obs.close()
        text = render_report(trace)
        assert "Resource limits hit" in text
        assert "stream-bytes" in text
