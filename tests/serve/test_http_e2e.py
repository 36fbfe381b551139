"""End-to-end tests over a live HTTP server on an ephemeral port.

Satellite 1 of the serve PR: ``POST /scan`` verdicts must match
``pipeline.scan`` exactly for a benign, a malicious, and a malformed
(limit-hit) corpus document, and ``/healthz`` / ``/metrics`` must keep
responding while scans are in flight.
"""

import base64
import concurrent.futures as cf
import json
import time

import pytest

from repro.serve import AdmissionConfig, ScanService, start_server

from tests.serve.conftest import (
    BOMB_LIMITS_SPEC,
    assert_verdict_matches,
    http_get,
    http_post,
    scan_url,
    service_settings,
)

pytestmark = pytest.mark.serve


class TestScanEndpoint:
    @pytest.mark.parametrize("name", ["benign.pdf", "malicious.pdf"])
    def test_verdict_matches_pipeline_scan(
        self, http_server, corpus_docs, expected_verdicts, name
    ):
        status, payload, _ = http_post(
            scan_url(http_server, name), corpus_docs[name]
        )
        assert status == 200
        assert_verdict_matches(payload, expected_verdicts[name], name)
        assert payload["name"] == name
        assert len(payload["sha256"]) == 64

    def test_malformed_limit_hit_document(self, http_server, corpus_docs):
        status, payload, _ = http_post(
            scan_url(http_server, "bomb.pdf", limits=BOMB_LIMITS_SPEC),
            corpus_docs["bomb.pdf"],
        )
        assert status == 200
        assert payload["verdict"]["errored"] is True
        assert payload["verdict"]["limit_kind"] == "stream-bytes"

    def test_repeat_scan_is_cache_hit(self, http_server, corpus_docs):
        url = scan_url(http_server, "plain.pdf")
        http_post(url, corpus_docs["plain.pdf"])
        status, payload, _ = http_post(url, corpus_docs["plain.pdf"])
        assert status == 200
        assert payload["cached"] is True

    def test_empty_body_is_400(self, http_server):
        status, payload, _ = http_post(scan_url(http_server, "empty.pdf"), b"")
        assert status == 400
        assert "error" in payload

    def test_bad_limits_spec_is_400(self, http_server, corpus_docs):
        status, _, _ = http_post(
            scan_url(http_server, "benign.pdf", limits="not-a-spec"),
            corpus_docs["benign.pdf"],
        )
        assert status == 400

    def test_unknown_route_is_404(self, http_server):
        status, _, _ = http_get(f"{http_server.url}/nope")
        assert status == 404


class TestHealthAndMetricsUnderLoad:
    def test_healthz_and_metrics_respond_during_scans(
        self, http_server, corpus_docs
    ):
        """Fire scans from worker threads and poll the control endpoints
        concurrently — both must answer while the data plane is busy."""
        docs = [
            ("benign.pdf", corpus_docs["benign.pdf"]),
            ("malicious.pdf", corpus_docs["malicious.pdf"]),
            ("plain.pdf", corpus_docs["plain.pdf"]),
        ] * 3
        with cf.ThreadPoolExecutor(max_workers=6) as pool:
            scans = [
                pool.submit(http_post, scan_url(http_server, name), data)
                for name, data in docs
            ]
            control = []
            while not all(f.done() for f in scans):
                control.append(http_get(f"{http_server.url}/healthz"))
                control.append(http_get(f"{http_server.url}/metrics"))
                time.sleep(0.01)
        assert control, "scans finished before any control-plane poll"
        for status, payload, _ in control:
            assert status == 200
            assert payload  # valid JSON body every time
        for future in scans:
            status, payload, _ = future.result()
            assert status == 200

    def test_metrics_expose_admission_and_cache(self, http_server, corpus_docs):
        http_post(scan_url(http_server, "benign.pdf"), corpus_docs["benign.pdf"])
        status, payload, _ = http_get(f"{http_server.url}/metrics")
        assert status == 200
        assert payload["admission"]["admitted"] >= 1
        assert "peak_queue_depth" in payload["admission"]
        assert "cache" in payload
        assert "jobs" in payload


class TestAsyncAndBatch:
    def test_async_job_flow(self, http_server, corpus_docs, expected_verdicts):
        status, payload, _ = http_post(
            scan_url(http_server, "benign.pdf", mode="async"),
            corpus_docs["benign.pdf"],
        )
        assert status == 202
        poll = f"{http_server.url}{payload['poll']}"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, job, _ = http_get(poll)
            assert status == 200
            if job["state"] in ("done", "shed"):
                break
            time.sleep(0.02)
        assert job["state"] == "done"
        assert_verdict_matches(job["result"], expected_verdicts["benign.pdf"])

    def test_unknown_job_is_404(self, http_server):
        status, _, _ = http_get(f"{http_server.url}/jobs/ffffffffffffffff")
        assert status == 404

    def test_batch_endpoint(self, http_server, corpus_docs, expected_verdicts):
        body = json.dumps({
            "items": [
                {"name": name,
                 "data_b64": base64.b64encode(corpus_docs[name]).decode()}
                for name in ("benign.pdf", "malicious.pdf")
            ]
        }).encode()
        status, payload, _ = http_post(f"{http_server.url}/batch", body)
        assert status == 200
        assert payload["counts"]["ok"] == 2
        by_name = {entry["name"]: entry for entry in payload["items"]}
        for name in ("benign.pdf", "malicious.pdf"):
            assert_verdict_matches(by_name[name], expected_verdicts[name], name)

    def test_batch_rejects_malformed_json(self, http_server):
        status, _, _ = http_post(f"{http_server.url}/batch", b"{not json")
        assert status == 400

    def test_batch_rejects_missing_items(self, http_server):
        status, _, _ = http_post(f"{http_server.url}/batch", b'{"items": "x"}')
        assert status == 400


class TestBodyLimitAndDrain:
    def test_oversized_body_is_413(self, corpus_docs):
        service = ScanService(settings=service_settings(), jobs=1)
        handle = start_server(service, max_body_bytes=1024)
        try:
            status, payload, _ = http_post(
                f"{handle.url}/scan?name=big.pdf", b"x" * 4096
            )
            assert status == 413
        finally:
            handle.stop()

    def test_draining_server_sheds_and_reports_unhealthy(self, corpus_docs):
        service = ScanService(
            settings=service_settings(),
            jobs=1,
            admission=AdmissionConfig(max_in_flight=1, deadline_seconds=10.0),
        )
        handle = start_server(service)
        try:
            service.admission.start_drain()
            status, payload, _ = http_get(f"{handle.url}/healthz")
            assert status == 503
            assert payload["status"] == "draining"
            status, payload, headers = http_post(
                f"{handle.url}/scan?name=late.pdf", corpus_docs["benign.pdf"]
            )
            assert status == 503
            assert payload["reason"] == "draining"
            assert "Retry-After" in headers
        finally:
            handle.stop()
