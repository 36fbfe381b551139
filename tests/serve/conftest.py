"""Fixtures for the scan-service tests.

The corpus mirrors the batch property tests: a benign JS document, a
malicious spray document, and a malformed (limit-hit) document, all
deterministic under ``SEED``.  ``expected_verdicts`` scans each once
through a plain ``pipeline.scan`` so every service test asserts verdict
identity against the one-shot path.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.core.pipeline import PipelineSettings, ProtectionPipeline
from repro.pdf.builder import DocumentBuilder
from repro.serve import AdmissionConfig, ScanService, start_server
from tests.data import malformed

SEED = 77

#: A stream budget the decompression bomb blows but real docs never hit.
BOMB_LIMITS_SPEC = "stream-bytes=64kb"


def service_settings() -> PipelineSettings:
    return PipelineSettings(seed=SEED)


@pytest.fixture(scope="session")
def corpus_docs() -> Dict[str, bytes]:
    from tests.conftest import spray_js

    benign = DocumentBuilder()
    benign.add_page("benign js")
    benign.add_javascript("var x = 2 + 2; app.alert('x=' + x);")

    plain = DocumentBuilder()
    plain.add_page("no javascript at all")

    malicious = DocumentBuilder()
    malicious.add_page("")
    malicious.add_javascript(spray_js())

    return {
        "benign.pdf": benign.to_bytes(),
        "plain.pdf": plain.to_bytes(),
        "malicious.pdf": malicious.to_bytes(),
        "garbage.pdf": b"%PDF-1.4 truncated nonsense without objects",
        "bomb.pdf": malformed.decompression_bomb(1024 * 1024),
    }


@pytest.fixture(scope="session")
def expected_verdicts(corpus_docs) -> Dict[str, Tuple[bool, float, bool]]:
    """``name -> (malicious, malscore, errored)`` from one-shot scans."""
    pipeline = ProtectionPipeline(seed=SEED)
    out = {}
    for name, data in corpus_docs.items():
        if name == "bomb.pdf":
            continue  # scanned only under per-request limits
        report = pipeline.scan(data, name)
        out[name] = (
            report.verdict.malicious,
            report.verdict.malscore,
            report.errored,
        )
    return out


@pytest.fixture()
def service():
    """A started in-process service; drained at teardown."""
    svc = ScanService(
        settings=service_settings(),
        jobs=2,
        admission=AdmissionConfig(max_in_flight=2, deadline_seconds=30.0),
    ).start()
    yield svc
    svc.drain(timeout=30.0)


@pytest.fixture(scope="module")
def http_server():
    """A live HTTP server on an ephemeral port (module-scoped: boots
    once, every e2e test talks to the same daemon)."""
    svc = ScanService(
        settings=service_settings(),
        jobs=2,
        admission=AdmissionConfig(
            max_in_flight=2, max_queue_depth=16, deadline_seconds=30.0
        ),
    )
    handle = start_server(svc)
    yield handle
    handle.stop()


def scan_url(server, name: str, **query: str) -> str:
    """``POST /scan`` URL on ``server`` for document ``name``."""
    query["name"] = name
    return f"{server.url}/scan?{urllib.parse.urlencode(query)}"


def http_post(
    url: str,
    data: bytes,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """POST raw bytes; returns (status, json payload, headers) without
    raising on 4xx/5xx."""
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8"))
        return error.code, body, dict(error.headers)


def http_get(
    url: str, timeout: float = 30.0
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8"))
        return error.code, body, dict(error.headers)


def assert_verdict_matches(
    payload: Dict[str, Any],
    expected: Tuple[bool, float, bool],
    name: Optional[str] = None,
) -> None:
    verdict = payload["verdict"]
    assert verdict["malicious"] == expected[0], name
    assert verdict["malscore"] == pytest.approx(expected[1]), name
    assert verdict["errored"] == expected[2], name
