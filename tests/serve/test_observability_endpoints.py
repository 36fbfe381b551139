"""Prometheus exposition and slow-scan exemplars on the scan service.

``GET /metrics?format=prometheus`` must emit valid text exposition
format 0.0.4 (validated by an actual parser, including the
``_bucket``/``_sum``/``_count`` histogram grammar) and ``GET
/debug/slow`` must return the exemplars retained by the service's
:class:`~repro.obs.profile.SlowScanBuffer`.
"""

import urllib.request

import pytest

from repro.core.pipeline import PipelineSettings
from repro.obs import MemorySink, Observability
from repro.serve import AdmissionConfig, ScanService, start_server
from tests.obs.test_metrics import _parse_prometheus
from tests.serve.conftest import SEED, http_get, service_settings

pytestmark = pytest.mark.serve


def http_get_text(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            dict(response.headers),
        )


class TestPrometheusEndpoint:
    def test_exposition_parses_and_has_service_gauges(self, http_server):
        status, text, headers = http_get_text(
            f"{http_server.url}/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        types, samples = _parse_prometheus(text)
        # Live admission gauges are present even with obs disabled.
        for gauge in (
            "repro_serve_admission_queue_depth",
            "repro_serve_admission_in_flight",
            "repro_serve_admission_draining",
            "repro_serve_uptime_seconds",
            "repro_serve_slow_scans_retained",
        ):
            assert types.get(gauge) == "gauge", gauge

    def test_histogram_grammar_after_scans(self, corpus_docs):
        """With obs enabled, request latency renders as a histogram."""
        service = ScanService(
            settings=service_settings(),
            jobs=1,
            cache=False,
            admission=AdmissionConfig(max_in_flight=1, deadline_seconds=30.0),
            obs=Observability(MemorySink()),
        )
        handle = start_server(service)
        try:
            from tests.serve.conftest import http_post

            for _ in range(2):
                status, _, _ = http_post(
                    f"{handle.url}/scan?name=benign.pdf",
                    corpus_docs["benign.pdf"],
                )
                assert status == 200
            status, text, _ = http_get_text(
                f"{handle.url}/metrics?format=prometheus"
            )
        finally:
            handle.stop()
        assert status == 200
        types, samples = _parse_prometheus(text)
        histograms = [n for n, kind in types.items() if kind == "histogram"]
        assert histograms, f"no histograms in exposition:\n{text}"
        name = histograms[0]
        sample_names = {n for n, _ in samples}
        assert f"{name}_bucket" in sample_names
        assert f"{name}_sum" in sample_names
        assert f"{name}_count" in sample_names
        # Cumulative bucket monotonicity, closed by +Inf.
        buckets = [
            line for n, line in samples if n == f"{name}_bucket"
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]

    def test_json_metrics_unchanged_without_format(self, http_server):
        status, payload, headers = http_get(f"{http_server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert "admission" in payload


class TestDebugSlowEndpoint:
    def test_empty_buffer_over_http(self, http_server):
        status, payload, _ = http_get(f"{http_server.url}/debug/slow")
        assert status == 200
        assert payload["entries"] == []
        assert payload["capacity"] >= 1
        assert payload["observed"] >= 0

    def test_threshold_zero_retains_exemplars_with_detail(self, corpus_docs):
        """slow_threshold=0 retains every scan, each exemplar with the
        scan's span tree down to its per-script ``reader.script`` span."""
        service = ScanService(
            settings=PipelineSettings(seed=SEED),
            jobs=1,
            cache=False,
            admission=AdmissionConfig(max_in_flight=1, deadline_seconds=30.0),
            slow_threshold=0.0,
        ).start()
        try:
            result = service.handle_scan(corpus_docs["benign.pdf"], "benign.pdf")
            assert result.status == 200
            snap = service.debug_slow()
        finally:
            service.drain(timeout=30.0)
        assert snap.status == 200
        (entry,) = snap.payload["entries"]
        assert entry["name"] == "benign.pdf"
        assert entry["seconds"] > 0.0
        assert entry["sha256"]
        assert "profile" not in entry
        assert entry["spans"], "worker span tree missing from exemplar"
        span_names = {span["name"] for span in entry["spans"]}
        assert "pipeline.scan" in span_names
        (script,) = [s for s in entry["spans"] if s["name"] == "reader.script"]
        assert script["duration"] > 0.0
        assert script["tags"]["steps"] > 0

    def test_cached_results_are_not_exemplars(self, corpus_docs):
        service = ScanService(
            settings=service_settings(),
            jobs=1,
            admission=AdmissionConfig(max_in_flight=1, deadline_seconds=30.0),
            slow_threshold=0.0,
        ).start()
        try:
            service.handle_scan(corpus_docs["plain.pdf"], "plain.pdf")
            service.handle_scan(corpus_docs["plain.pdf"], "plain.pdf")
            snap = service.debug_slow()
        finally:
            service.drain(timeout=30.0)
        # Two requests, one actual scan: the cache hit adds no exemplar.
        assert len(snap.payload["entries"]) == 1
