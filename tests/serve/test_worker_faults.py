"""Worker faults on the process backend: a dead worker costs at most the
scans in flight when it died, never the service.

Every scenario asserts a structured answer *and* a bounded response
time — a killed worker must never turn into a hanging request or a
service that answers 503 forever.

* SIGKILL an idle worker: the next request gets a fresh pool and the
  one-shot verdict, and ``/healthz`` counts the respawn;
* SIGKILL a worker mid-scan: that request gets a 503 ``worker-failure``
  with ``Retry-After`` well inside its deadline, and the next request
  is served;
* an async job whose worker dies ends in a terminal 503 state instead
  of staying pending;
* many submitters that find the pool broken at once replace it exactly
  once, and a pool torn down by ``shutdown`` is never rebuilt;
* a batch run whose worker is killed replaces the pool the same way,
  counting the respawn, and retries the documents it lost.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from typing import Callable, Dict, List

import pytest

from repro.batch import STATUS_OK, BatchScanner
from repro.pdf.builder import DocumentBuilder
from repro.serve import AdmissionConfig, ScanService, start_server

from tests.serve.conftest import (
    assert_verdict_matches,
    http_get,
    http_post,
    scan_url,
    service_settings,
)

pytestmark = pytest.mark.serve

#: Any single fault-path request must resolve well inside this.
RESPONSE_BOUND_SECONDS = 20.0

#: Admission deadline of the servers under test (longer than the bound,
#: so a prompt 503 cannot be the deadline path in disguise).
DEADLINE_SECONDS = 30.0

#: How long a kill waits after the busy scan took its pool slot: well
#: short of the busy scan's run time, even on a much faster host.
MID_SCAN_DELAY = 0.1

#: Concurrent submitters racing to replace one broken pool (more than
#: the cores of a typical CI runner).
SUBMITTERS = 16


@pytest.fixture(scope="module")
def busy_doc() -> bytes:
    """About a second of script work on a 2-core host, so a kill shortly
    after submission lands while the worker is still scanning.  The
    loop holds a ``try``, which keeps it on the dispatch loop, so a
    faster hot-loop tier cannot shorten it."""
    builder = DocumentBuilder()
    builder.add_page("busy js document")
    builder.add_javascript(
        "var acc = 0; for (var i = 0; i < 100000; i++)"
        " { try { acc = (acc * 31 + i) % 65521; } catch (e) {} }",
        trigger="OpenAction",
    )
    return builder.to_bytes()


@pytest.fixture()
def make_server():
    """Start a process-backend server; stops every one at teardown."""
    handles = []

    def make(jobs: int):
        service = ScanService(
            settings=service_settings(),
            jobs=jobs,
            backend="process",
            admission=AdmissionConfig(
                max_in_flight=jobs, deadline_seconds=DEADLINE_SECONDS
            ),
        )
        handle = start_server(service)
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.stop(drain_timeout=10.0)


def started_workers(
    warm_up: Callable[[], None]
) -> List[multiprocessing.Process]:
    """Run ``warm_up`` (one scan) and return the pool workers it started."""
    before = {child.pid for child in multiprocessing.active_children()}
    warm_up()
    workers = [
        child for child in multiprocessing.active_children()
        if child.pid not in before
    ]
    assert workers, "the process pool started no workers"
    return workers


def start_pool(server, corpus_docs) -> List[multiprocessing.Process]:
    """Serve one request so the pool's workers exist; return them."""

    def warm_up() -> None:
        status, _, _ = http_post(
            scan_url(server, "plain.pdf"), corpus_docs["plain.pdf"]
        )
        assert status == 200

    return started_workers(warm_up)


def wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + RESPONSE_BOUND_SECONDS
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def kill_idle_worker(workers: List[multiprocessing.Process]) -> None:
    """SIGKILL one idle worker and wait until the pool has noticed.

    The pool only stops its surviving workers after marking itself
    broken, so once all of them are gone the break is recorded.
    """
    os.kill(workers[0].pid, signal.SIGKILL)
    wait_until(
        lambda: not any(worker.is_alive() for worker in workers),
        "the broken pool to stop its workers",
    )


def kill_mid_scan(server, worker: multiprocessing.Process) -> None:
    """SIGKILL ``worker`` once the busy request holds its pool slot."""
    wait_until(
        lambda: server.service.admission.snapshot()["in_flight"] == 1,
        "the busy scan to start",
    )
    time.sleep(MID_SCAN_DELAY)
    os.kill(worker.pid, signal.SIGKILL)


class TestWorkerKill:
    def test_idle_worker_kill_is_transparent(
        self, make_server, corpus_docs, expected_verdicts
    ):
        """A worker that died between requests broke the pool, but
        nothing was running on it: the next request rebuilds the pool
        and gets the one-shot verdict."""
        server = make_server(jobs=2)
        kill_idle_worker(start_pool(server, corpus_docs))

        started = time.monotonic()
        status, payload, _ = http_post(
            scan_url(server, "malicious.pdf"), corpus_docs["malicious.pdf"]
        )
        assert time.monotonic() - started < RESPONSE_BOUND_SECONDS
        assert status == 200, payload
        assert_verdict_matches(
            payload, expected_verdicts["malicious.pdf"], "malicious.pdf"
        )
        status, health, _ = http_get(f"{server.url}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["worker_respawns"] == 1
        _, metrics, _ = http_get(f"{server.url}/metrics")
        assert metrics["worker_respawns"] == 1

    def test_mid_scan_kill_is_a_structured_503(
        self, make_server, corpus_docs, expected_verdicts, busy_doc
    ):
        server = make_server(jobs=1)
        (worker,) = start_pool(server, corpus_docs)
        outcome: Dict[str, object] = {}

        def scan() -> None:
            outcome["response"] = http_post(
                scan_url(server, "busy.pdf", nocache="1"), busy_doc
            )

        client = threading.Thread(target=scan)
        started = time.monotonic()
        client.start()
        kill_mid_scan(server, worker)
        client.join(timeout=RESPONSE_BOUND_SECONDS)
        assert not client.is_alive(), "request hung after its worker died"
        assert time.monotonic() - started < RESPONSE_BOUND_SECONDS

        status, payload, headers = outcome["response"]
        assert status == 503
        assert payload["reason"] == "worker-failure"
        assert payload["name"] == "busy.pdf"
        assert len(payload["sha256"]) == 64
        assert "Retry-After" in headers

        status, payload, _ = http_post(
            scan_url(server, "benign.pdf"), corpus_docs["benign.pdf"]
        )
        assert status == 200, payload
        assert_verdict_matches(
            payload, expected_verdicts["benign.pdf"], "benign.pdf"
        )
        _, health, _ = http_get(f"{server.url}/healthz")
        assert health["worker_respawns"] == 1

    def test_async_job_on_a_dead_worker_ends_terminal(
        self, make_server, corpus_docs, busy_doc
    ):
        server = make_server(jobs=1)
        (worker,) = start_pool(server, corpus_docs)
        status, accepted, _ = http_post(
            scan_url(server, "busy-job.pdf", mode="async"), busy_doc
        )
        assert status == 202
        kill_mid_scan(server, worker)

        job: Dict[str, object] = {}

        def finished() -> bool:
            _, polled, _ = http_get(f"{server.url}{accepted['poll']}")
            job.update(polled)
            return polled["state"] not in ("queued", "running")

        wait_until(finished, "the job to leave the pending states")
        assert job["state"] == "shed"
        assert job["status"] == 503
        assert job["result"]["reason"] == "worker-failure"
        _, health, _ = http_get(f"{server.url}/healthz")
        assert health["pending_jobs"] == 0


class TestPoolReplacement:
    def test_concurrent_submitters_replace_a_broken_pool_once(
        self, corpus_docs, expected_verdicts
    ):
        scanner = BatchScanner(
            jobs=2, backend="process", settings=service_settings(),
            cache=False,
        ).start()
        try:
            kill_idle_worker(started_workers(
                lambda: scanner.scan_one(
                    "plain.pdf", corpus_docs["plain.pdf"],
                    wait_timeout=RESPONSE_BOUND_SECONDS,
                )
            ))
            barrier = threading.Barrier(SUBMITTERS)
            outcomes: List[object] = [None] * SUBMITTERS

            def submit(index: int) -> None:
                barrier.wait(timeout=RESPONSE_BOUND_SECONDS)
                outcomes[index] = scanner.scan_one(
                    f"benign-{index}.pdf", corpus_docs["benign.pdf"],
                    wait_timeout=RESPONSE_BOUND_SECONDS,
                )

            threads = [
                threading.Thread(target=submit, args=(index,))
                for index in range(SUBMITTERS)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=2 * RESPONSE_BOUND_SECONDS)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert scanner.worker_respawns == 1
            for outcome in outcomes:
                assert_verdict_matches(
                    {"verdict": outcome.summary.to_dict()},
                    expected_verdicts["benign.pdf"],
                )
        finally:
            scanner.shutdown()

    def test_batch_run_survives_a_killed_worker(self, busy_doc):
        """A batch run replaces a pool broken under it through the one
        replacement path, so the respawn is counted, and retries the
        documents the dead worker took down."""
        scanner = BatchScanner(
            jobs=1, backend="process", settings=service_settings()
        )
        # Two documents that differ by one byte, so both are scanned.
        items = [("busy-a.pdf", busy_doc), ("busy-b.pdf", busy_doc + b"\n")]
        before = {child.pid for child in multiprocessing.active_children()}

        def new_workers() -> List[multiprocessing.Process]:
            return [
                child for child in multiprocessing.active_children()
                if child.pid not in before
            ]

        reports: List[object] = []
        run = threading.Thread(
            target=lambda: reports.append(scanner.scan_items(items))
        )
        run.start()
        wait_until(lambda: bool(new_workers()), "the pool's worker to start")
        time.sleep(MID_SCAN_DELAY)
        os.kill(new_workers()[0].pid, signal.SIGKILL)
        run.join(timeout=2 * RESPONSE_BOUND_SECONDS)
        assert not run.is_alive(), "the batch run hung after its worker died"
        (report,) = reports
        assert [item.status for item in report.items] == [STATUS_OK, STATUS_OK]
        assert report.retries_used >= 1
        assert scanner.worker_respawns == 1

    def test_shut_down_pool_is_never_rebuilt(self):
        scanner = BatchScanner(
            jobs=1, settings=service_settings(), cache=False
        ).start()
        pool = scanner._service_executor
        scanner.shutdown()
        # A request that found the pool broken just as it was shut
        # down must not bring a new one up behind the shutdown.
        with pytest.raises(RuntimeError):
            scanner._replace_service_executor(pool)
        assert not scanner.started
        assert scanner.worker_respawns == 0
