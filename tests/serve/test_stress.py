"""Concurrency stress + soak harness for the scan service (satellite 2).

Marked ``slow``: the fast lane deselects these with ``-m 'not slow'``.
The soak test watches ``/proc/self`` (fd count, thread count, RSS)
instead of psutil, which is not available in this environment.
"""

import concurrent.futures as cf
import os
import time
import urllib.parse

import pytest

from repro.serve import AdmissionConfig, ScanService, start_server

from tests.serve.conftest import (
    assert_verdict_matches,
    http_get,
    http_post,
    scan_url,
    service_settings,
)

pytestmark = [pytest.mark.serve, pytest.mark.slow]

PROC = "/proc/self"
HAS_PROC = os.path.isdir(PROC)


def fd_count():
    return len(os.listdir(f"{PROC}/fd"))


def thread_count():
    return len(os.listdir(f"{PROC}/task"))


def rss_kb():
    with open(f"{PROC}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


class TestConcurrentMixedLoad:
    def test_no_deadlock_every_request_terminal(self, corpus_docs, expected_verdicts):
        """N client threads hammer a service with a mixed corpus: every
        request must reach a terminal status, verdicts must stay correct,
        and the queue must never exceed its configured bound."""
        config = AdmissionConfig(
            max_queue_depth=8, max_in_flight=2, deadline_seconds=60.0
        )
        service = ScanService(
            settings=service_settings(), jobs=2, admission=config
        ).start()
        names = ["benign.pdf", "plain.pdf", "malicious.pdf", "garbage.pdf"]
        requests = [names[i % len(names)] for i in range(40)]
        try:
            with cf.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(service.handle_scan, corpus_docs[name], name)
                    for name in requests
                ]
                results = [f.result(timeout=120.0) for f in futures]
        finally:
            assert service.drain(timeout=30.0) is True

        statuses = [r.status for r in results]
        assert all(s in (200, 429, 503) for s in statuses), statuses
        served = [r for r, name in zip(results, requests) if r.status == 200]
        assert served, "overload shed every single request"
        for result, name in zip(results, requests):
            if result.status == 200:
                assert_verdict_matches(
                    result.payload, expected_verdicts[name], name
                )
        snap = service.admission.snapshot()
        assert snap["peak_queue_depth"] <= config.max_queue_depth
        assert snap["peak_in_flight"] <= config.max_in_flight
        assert snap["queue_depth"] == 0
        assert snap["in_flight"] == 0
        terminal = snap["completed"] + sum(snap["shed"].values())
        assert terminal == snap["admitted"] + sum(snap["shed"].values())

    def test_load_within_capacity_is_served_in_full(
        self, corpus_docs, expected_verdicts
    ):
        """Steady state: clients that never hold more requests open than
        the queue admits get 200 on every request, each with its
        one-shot verdict; only true excess is shed."""
        config = AdmissionConfig(
            max_in_flight=2, max_queue_depth=4, deadline_seconds=60.0
        )
        service = ScanService(
            settings=service_settings(), jobs=2, cache=False, admission=config
        )
        handle = start_server(service)
        names = ["benign.pdf", "plain.pdf", "malicious.pdf", "garbage.pdf"] * 3
        try:
            with cf.ThreadPoolExecutor(max_workers=config.max_queue_depth) as clients:
                results = list(clients.map(
                    lambda name: http_post(scan_url(handle, name), corpus_docs[name]),
                    names,
                ))
        finally:
            handle.stop()
        assert [status for status, _, _ in results] == [200] * len(names)
        for (_, payload, _), name in zip(results, names):
            assert_verdict_matches(payload, expected_verdicts[name], name)

    def test_overloaded_http_server_sheds_with_429_and_retry_after(
        self, corpus_docs
    ):
        """2x overload against a deliberately tiny service: some requests
        are served, the excess is shed with 429 + Retry-After, nothing
        hangs."""
        service = ScanService(
            settings=service_settings(),
            jobs=1,
            admission=AdmissionConfig(
                max_queue_depth=1, max_in_flight=1, deadline_seconds=30.0
            ),
        )
        handle = start_server(service)
        url = f"{handle.url}/scan?" + urllib.parse.urlencode(
            {"name": "malicious.pdf"}
        )
        # Custom limits bypass the verdict cache, so every request scans.
        burst_url = url + "&limits=deadline=20"
        try:
            with cf.ThreadPoolExecutor(max_workers=12) as pool:
                futures = [
                    pool.submit(
                        http_post, burst_url, corpus_docs["malicious.pdf"]
                    )
                    for _ in range(12)
                ]
                results = [f.result(timeout=120.0) for f in futures]
        finally:
            handle.stop()
        statuses = [status for status, _, _ in results]
        assert statuses.count(200) >= 1
        shed = [(s, p, h) for s, p, h in results if s in (429, 503)]
        assert shed, f"12 concurrent requests on a depth-1 queue never shed: {statuses}"
        for status, payload, headers in shed:
            assert "Retry-After" in headers
            assert payload["reason"] in ("queue-full", "draining", "queue-deadline")
        assert any(status == 429 for status, _, _ in results), statuses


@pytest.mark.skipif(not HAS_PROC, reason="requires /proc/self")
class TestSoak:
    def test_sustained_load_leaks_nothing(self, corpus_docs):
        """Several waves of requests against one long-lived server: fd
        count, thread count and RSS must plateau (no per-request leak)."""
        service = ScanService(
            settings=service_settings(),
            jobs=2,
            admission=AdmissionConfig(
                max_queue_depth=16, max_in_flight=2, deadline_seconds=60.0
            ),
        )
        handle = start_server(service)
        url = f"{handle.url}/scan?name=plain.pdf"
        health_url = f"{handle.url}/healthz"
        try:
            # Warm-up wave lets lazy pools/threads come up before baseline.
            with cf.ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(
                    lambda _: http_post(url, corpus_docs["plain.pdf"]),
                    range(8),
                ))
            baseline_fds = fd_count()
            baseline_threads = thread_count()
            baseline_rss = rss_kb()

            total = 0
            for _ in range(5):
                with cf.ThreadPoolExecutor(max_workers=4) as pool:
                    statuses = list(pool.map(
                        lambda _: http_post(url, corpus_docs["plain.pdf"])[0],
                        range(12),
                    ))
                total += len(statuses)
                assert all(s in (200, 429, 503) for s in statuses)
                assert http_get(health_url)[0] == 200

            # Transient sockets may still be in teardown; small slack only.
            assert fd_count() <= baseline_fds + 16
            assert thread_count() <= baseline_threads + 8
            assert rss_kb() <= baseline_rss + 64 * 1024  # +64 MB hard cap
            assert total == 60
        finally:
            handle.stop()
        snap = service.admission.snapshot()
        assert snap["in_flight"] == 0
        assert snap["queue_depth"] == 0
