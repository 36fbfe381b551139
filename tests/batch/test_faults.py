"""Fault injection: hanging and crashing documents must stay isolated.

A stub pipeline factory hangs or raises for chosen document names; the
scanner must finish every other item, record the offenders in
``BatchReport.errors`` and count retries/timeouts in the obs metrics.
Thread backend throughout (factories do not cross process boundaries).
"""

import threading
import time
import types

import pytest

from repro.batch import (
    STATUS_ERRORED,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchScanner,
)
from repro.obs import MemorySink, Observability

pytestmark = pytest.mark.batch

#: Finite so pytest's process exit never waits long on abandoned threads.
HANG_SECONDS = 0.8
TIMEOUT = 0.15


def stub_report(name, malicious=False):
    return types.SimpleNamespace(
        verdict=types.SimpleNamespace(
            malicious=malicious,
            malscore=15.0 if malicious else 0.0,
            features=types.SimpleNamespace(fired_names=lambda: []),
        ),
        crashed=False,
        did_nothing=not malicious,
        errored=False,
        error=None,
        to_dict=lambda: {},
    )


class FaultyPipeline:
    """Hangs on ``hang*``, raises on ``boom*``, else answers instantly."""

    def scan(self, data, name):
        if name.startswith("hang"):
            time.sleep(HANG_SECONDS)
        if name.startswith("boom"):
            raise RuntimeError("injected crash")
        return stub_report(name, malicious=name.startswith("mal"))


class SlowPipeline:
    """Every scan takes 50 ms."""

    def scan(self, data, name):
        time.sleep(0.05)
        return stub_report(name)


class FlakyPipeline:
    """Raises on the first attempt for each name, succeeds after."""

    attempts_lock = threading.Lock()
    attempts = {}

    def scan(self, data, name):
        with self.attempts_lock:
            n = self.attempts.get(name, 0) + 1
            self.attempts[name] = n
        if n == 1:
            raise RuntimeError("transient failure")
        return stub_report(name)


@pytest.fixture()
def obs():
    return Observability(MemorySink())


def make_scanner(obs, **kwargs):
    defaults = dict(
        jobs=4,
        backend="thread",
        timeout=TIMEOUT,
        retries=1,
        backoff=0.01,
        pipeline_factory=FaultyPipeline,
        cache=False,
        obs=obs,
    )
    defaults.update(kwargs)
    return BatchScanner(**defaults)


class TestIsolation:
    def test_hang_and_crash_do_not_kill_the_run(self, obs):
        items = [
            ("ok1.pdf", b"a"), ("hang.pdf", b"b"),
            ("boom.pdf", b"c"), ("mal.pdf", b"d"),
        ]
        report = make_scanner(obs).scan_items(items)
        by_name = {item.name: item for item in report.items}
        assert by_name["ok1.pdf"].status == STATUS_OK
        assert by_name["mal.pdf"].status == STATUS_OK
        assert by_name["mal.pdf"].malicious
        assert by_name["hang.pdf"].status == STATUS_TIMEOUT
        assert by_name["boom.pdf"].status == STATUS_ERRORED
        assert "injected crash" in by_name["boom.pdf"].error

    def test_errors_recorded_in_report(self, obs):
        report = make_scanner(obs).scan_items(
            [("hang.pdf", b"x"), ("ok.pdf", b"y")]
        )
        (failure,) = report.errors
        assert failure["name"] == "hang.pdf"
        assert failure["status"] == STATUS_TIMEOUT
        assert "no result within" in failure["error"]
        assert report.timeouts == 1

    def test_attempt_counts(self, obs):
        report = make_scanner(obs, retries=2).scan_items([("boom.pdf", b"x")])
        (item,) = report.items
        assert item.status == STATUS_ERRORED
        assert item.attempts == 3  # initial + 2 retries

    def test_zero_retries(self, obs):
        report = make_scanner(obs, retries=0).scan_items([("boom.pdf", b"x")])
        (item,) = report.items
        assert item.attempts == 1
        assert report.retries_used == 0

    def test_timeout_starts_when_a_worker_takes_the_attempt(self, obs):
        """Ten 50 ms scans on one worker take 0.5 s, far past the 0.2 s
        timeout, but no single scan comes near it: none times out."""
        report = make_scanner(
            obs, jobs=1, timeout=0.2, pipeline_factory=SlowPipeline
        ).scan_items([(f"doc{k}.pdf", bytes([k])) for k in range(10)])
        assert [item.status for item in report.items] == [STATUS_OK] * 10
        assert report.retries_used == 0
        assert report.timeouts == 0


class TestRetries:
    def test_transient_failure_recovers(self, obs):
        FlakyPipeline.attempts = {}
        report = make_scanner(
            obs, pipeline_factory=FlakyPipeline, timeout=None
        ).scan_items([("flaky.pdf", b"x"), ("also.pdf", b"y")])
        assert all(item.status == STATUS_OK for item in report.items)
        assert all(item.attempts == 2 for item in report.items)
        assert report.retries_used == 2

    def test_backoff_is_bounded(self, obs):
        scanner = make_scanner(
            obs, retries=5, backoff=0.01, max_backoff=0.03,
            pipeline_factory=FaultyPipeline, timeout=None,
        )
        start = time.perf_counter()
        report = scanner.scan_items([("boom.pdf", b"x")])
        elapsed = time.perf_counter() - start
        (item,) = report.items
        assert item.attempts == 6
        # 5 backoffs, each capped at 0.03s (plus scheduling slack).
        assert elapsed < 2.0

    def test_backoff_holds_no_worker(self, obs):
        """The run holds a retry until its backoff has passed, so the
        only worker scans the third document meanwhile and the two
        one-second backoffs overlap instead of running back to back."""
        scanner = make_scanner(
            obs, jobs=1, retries=1, backoff=1.0, max_backoff=1.0,
            timeout=None,
        )
        start = time.perf_counter()
        report = scanner.scan_items(
            [("boom1.pdf", b"x"), ("boom2.pdf", b"y"), ("ok.pdf", b"z")]
        )
        elapsed = time.perf_counter() - start
        assert [item.attempts for item in report.items] == [2, 2, 1]
        assert elapsed < 1.8


class TestObsCounters:
    def test_retry_and_timeout_metrics(self, obs):
        make_scanner(obs).scan_items(
            [("hang.pdf", b"a"), ("boom.pdf", b"b"), ("ok.pdf", b"c")]
        )
        metrics = obs.metrics
        assert metrics.counter_value("batch_retries", reason="timeout") == 1
        assert metrics.counter_value("batch_retries", reason="errored") == 1
        # initial attempt + retry both time out
        assert metrics.counter_value("batch_timeouts") == 2
        assert metrics.counter_value("batch_docs", status="ok") == 1
        assert metrics.counter_value("batch_docs", status="timeout") == 1
        assert metrics.counter_value("batch_docs", status="errored") == 1

    def test_spans_per_document(self, obs):
        make_scanner(obs).scan_items([("ok1.pdf", b"a"), ("ok2.pdf", b"b")])
        sink = obs.sink
        assert len(sink.spans_named("batch.document")) == 2
        (run_span,) = sink.spans_named("batch.run")
        assert run_span["tags"]["items"] == 2
