"""The scan service core (``repro.serve``): transport-free request paths.

:class:`ScanService` is everything the daemon does *except* HTTP: it
owns a persistent :class:`~repro.batch.scanner.BatchScanner` worker
pool, an :class:`~repro.serve.admission.AdmissionController` in front
of it, and a :class:`~repro.serve.jobs.JobRegistry` for async
submissions.  The HTTP layer (``repro.serve.http``) only decodes
requests into these methods and encodes :class:`ServeResult` back —
which keeps every service semantic (admission, deadlines, shedding,
caching, drain) testable in-process without sockets.

Request flow for one ``POST /scan``::

    admit  ──429/503──▶ shed (Retry-After)
      │
    acquire worker slot (bounded queue; deadline keeps ticking)
      │
    scanner.submit_one(..., deadline_at=ticket.deadline_at)
      │            └── remaining time caps the in-scan resource budget
    verdict / structured limit report / errored report
    (worker died mid-scan: 503 worker-failure, Retry-After)
      │
    release slot, record metrics (serve.request span, counters)

Verdicts are byte-identical to one-shot ``pipeline.scan`` — the service
adds scheduling around the pipeline, never detection logic (asserted by
``tests/serve`` and the service property tests).
"""

from __future__ import annotations

import concurrent.futures as cf
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs as obs_mod
from repro.batch.cache import VerdictCache
from repro.batch.scanner import BatchScanner
from repro.core.pipeline import PipelineSettings
from repro.limits import ScanLimits
from repro.obs.metrics import Metrics
from repro.obs.profile import SlowScanBuffer
from repro.serve.admission import (
    SHED_ASYNC_BACKLOG,
    SHED_DRAINING,
    AdmissionConfig,
    AdmissionController,
    RequestShed,
)
from repro.serve.jobs import JOB_DONE, JOB_SHED, JobRegistry

#: Extra seconds past the request deadline we wait for a worker that
#: should have aborted itself (in-scan budget) before abandoning it.
HANG_GRACE_SECONDS = 2.0


@dataclass
class ServeResult:
    """One request's outcome, transport-agnostic.

    ``status`` uses HTTP codes as the shared vocabulary (200 verdict,
    202 job accepted, 400 bad request, 404 unknown job, 429/503 shed,
    500 internal); ``retry_after`` is set on shed responses.
    """

    status: int
    payload: Dict[str, Any]
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ScanService:
    """Long-running scan service over a persistent worker pool."""

    def __init__(
        self,
        settings: Optional[PipelineSettings] = None,
        jobs: int = 4,
        backend: str = "thread",
        timeout: Optional[float] = None,
        admission: Optional[AdmissionConfig] = None,
        cache: Union[VerdictCache, None, bool] = None,
        max_jobs: int = 1024,
        max_pending_async: Optional[int] = None,
        hang_grace: float = HANG_GRACE_SECONDS,
        slow_threshold: Optional[float] = None,
        slow_capacity: int = 32,
        obs: Optional[obs_mod.Observability] = None,
        scanner: Optional[BatchScanner] = None,
    ) -> None:
        self.obs = obs if obs is not None else obs_mod.get_default()
        if scanner is None:
            scanner = BatchScanner(
                jobs=jobs,
                backend=backend,
                timeout=timeout,
                settings=settings,
                cache=cache,
                obs=self.obs,
            )
        self.scanner = scanner
        if admission is None:
            admission = AdmissionConfig(max_in_flight=self.scanner.jobs)
        self.admission = AdmissionController(admission)
        self.jobs = JobRegistry(max_jobs=max_jobs)
        #: Async submissions allowed to be queued/running at once; the
        #: excess is shed with 429 *at submission time* so an async
        #: firehose cannot park unbounded request bodies on the job
        #: pool's work queue.  Defaults to the same backlog the sync
        #: path tolerates (queue depth + in-flight slots).
        if max_pending_async is None:
            max_pending_async = (
                self.admission.config.max_queue_depth
                + self.admission.config.max_in_flight
            )
        self.max_pending_async = max_pending_async
        self.hang_grace = hang_grace
        #: Slow-scan exemplars (full span trees) for
        #: ``GET /debug/slow``: fixed ``slow_threshold`` seconds, or the
        #: rolling p99 of recent scans when None.
        self.slow_scans = SlowScanBuffer(
            capacity=slow_capacity, threshold_seconds=slow_threshold
        )
        self.started_at = time.time()
        self._async_pool: Optional[cf.ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        #: Requests abandoned past deadline + grace whose workers are
        #: still occupying pool slots (hung scans the thread backend
        #: cannot kill) — true pool occupancy is in_flight + this.
        self._abandoned = 0
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ScanService":
        """Bring up the worker pool and the async-job runner.

        Raises ``RuntimeError`` on a drained service: drain is
        terminal (admission stays in draining mode), so resurrecting
        the pools would only accept work it then sheds.
        """
        with self._lock:
            if self._stopped:
                raise RuntimeError(
                    "service has been drained; build a new ScanService"
                )
        self.scanner.start()
        with self._lock:
            if self._async_pool is None:
                self._async_pool = cf.ThreadPoolExecutor(
                    max_workers=max(2, self.scanner.jobs),
                    thread_name_prefix="repro-serve-job",
                )
        return self

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful shutdown: shed new requests, finish admitted ones.

        Returns True when everything in flight finished inside
        ``timeout`` (False = somebody was abandoned).  Idempotent and
        terminal: requests arriving afterwards are shed with 503 and
        the torn-down pools are never rebuilt.
        """
        with self._lock:
            self._stopped = True
        self.admission.start_drain()
        idle = self.admission.wait_idle(timeout)
        with self._lock:
            pool, self._async_pool = self._async_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.scanner.shutdown(wait=False)
        return idle

    # -- the synchronous scan path -----------------------------------------

    def handle_scan(
        self,
        data: bytes,
        name: str = "document.pdf",
        limits_spec: Optional[str] = None,
        use_cache: bool = True,
    ) -> ServeResult:
        """Full admission-controlled scan of one document.

        ``use_cache=False`` (the ``nocache=1`` query parameter) forces
        a fresh scan — cache hits answer with the summarised verdict
        only (``"report": null``), so clients that need the full
        OpenReport payload opt out of the cache.
        """
        limits: Optional[ScanLimits] = None
        if limits_spec:
            try:
                # The exact parser behind ``repro scan --limits``.
                limits = ScanLimits.parse(limits_spec)
            except ValueError as error:
                return self._finish(ServeResult(
                    400, {"error": f"bad limits: {error}", "name": name},
                ))
        if not data:
            return self._finish(ServeResult(
                400, {"error": "empty request body", "name": name},
            ))

        start = time.perf_counter()
        with self.obs.tracer.span("serve.request", document=name) as span:
            try:
                ticket = self.admission.admit()
            except RequestShed as shed:
                return self._finish(self._shed_result(shed, name), span=span)
            try:
                try:
                    with self.obs.tracer.span("serve.queue_wait"):
                        self.admission.acquire(ticket)
                except RequestShed as shed:
                    return self._finish(self._shed_result(shed, name), span=span)
                if self.obs.enabled:
                    self.obs.metrics.observe(
                        "serve_queue_wait_seconds", ticket.queue_wait,
                        buckets=(0.001, 0.01, 0.1, 0.5, 1, 5, 30),
                    )
                result = self._run_admitted(
                    data, name, limits, ticket, span, use_cache
                )
            finally:
                self.admission.release(ticket)
            if self.obs.enabled:
                self.obs.metrics.observe(
                    "serve_latency_seconds", time.perf_counter() - start,
                    buckets=(0.01, 0.05, 0.1, 0.5, 1, 5, 30),
                )
            return self._finish(result, span=span)

    def _run_admitted(
        self, data, name, limits, ticket, span, use_cache=True
    ) -> ServeResult:
        """The in-slot part: submit to the pool and wait it out."""
        try:
            handle = self.scanner.submit_one(
                name, data, limits=limits, deadline_at=ticket.deadline_at,
                use_cache=use_cache,
            )
        except RuntimeError as error:  # pool torn down under us (drain race)
            return ServeResult(
                503, {"error": f"service stopping: {error}", "name": name},
                retry_after=self.admission.config.retry_after_seconds,
            )
        wait: Optional[float] = None
        if ticket.deadline_at is not None:
            # The in-scan budget aborts the worker at the deadline; the
            # grace covers budget-check granularity.  Past it, the
            # worker is presumed hung and the request abandoned.
            wait = ticket.remaining(time.monotonic()) + self.hang_grace
        try:
            outcome = handle.result(wait)
        except cf.TimeoutError:
            self._note_abandoned(handle)
            span.set_tag("abandoned", True)
            return ServeResult(
                503,
                {"error": "scan exceeded its deadline and was abandoned",
                 "name": name, "sha256": handle.digest},
                retry_after=self.admission.config.retry_after_seconds,
            )
        except cf.BrokenExecutor:
            # The worker process died mid-scan (OOM kill, SIGKILL) and
            # took the pool down; the next request gets a fresh pool.
            # Delivery is at-most-once: the client decides whether to
            # resend.
            return ServeResult(
                503,
                {"error": "scan worker died mid-scan",
                 "reason": "worker-failure",
                 "name": name, "sha256": handle.digest},
                retry_after=self.admission.config.retry_after_seconds,
            )
        except Exception as error:  # worker bug — never takes the daemon down
            return ServeResult(
                500,
                {"error": f"{type(error).__name__}: {error}", "name": name},
            )
        span.set_tag("cached", outcome.cached)
        span.set_tag("malicious", outcome.summary.malicious)
        if not outcome.cached:
            detail: Dict[str, Any] = {
                "queue_wait": ticket.queue_wait,
                "malicious": outcome.summary.malicious,
            }
            if outcome.spans:
                detail["spans"] = outcome.spans
            retained = self.slow_scans.observe(
                name, outcome.seconds, digest=handle.digest, detail=detail
            )
            if retained and self.obs.enabled:
                self.obs.metrics.inc("serve_slow_scans")
        payload: Dict[str, Any] = {
            "name": name,
            "sha256": handle.digest,
            "cached": outcome.cached,
            "seconds": outcome.seconds,
            "queue_wait": ticket.queue_wait,
            "verdict": outcome.summary.to_dict(),
            "report": outcome.report,
        }
        return ServeResult(200, payload)

    # -- batch + async -----------------------------------------------------

    def handle_batch(
        self,
        items: Sequence[Tuple[str, bytes]],
        limits_spec: Optional[str] = None,
    ) -> ServeResult:
        """Scan several documents; each passes admission individually.

        The response is multi-status: overall 200 with a per-item
        ``status`` (some may be 429/503 under overload).
        """
        pool = self._require_pool()
        if pool is None:
            return ServeResult(
                503, {"error": "service stopping"},
                retry_after=self.admission.config.retry_after_seconds,
            )
        futures = [
            pool.submit(self.handle_scan, data, name, limits_spec)
            for name, data in items
        ]
        entries: List[Dict[str, Any]] = []
        counts = {"ok": 0, "shed": 0, "failed": 0}
        for (name, _), future in zip(items, futures):
            result = future.result()
            entry = {"name": name, "status": result.status, **result.payload}
            entries.append(entry)
            if result.ok:
                counts["ok"] += 1
            elif result.status in (429, 503):
                counts["shed"] += 1
            else:
                counts["failed"] += 1
        return ServeResult(
            200, {"total": len(entries), "counts": counts, "items": entries}
        )

    def handle_async_submit(
        self,
        data: bytes,
        name: str = "document.pdf",
        limits_spec: Optional[str] = None,
        use_cache: bool = True,
    ) -> ServeResult:
        """Accept a scan for background execution; poll ``/jobs/<id>``.

        Acceptance is *not* unconditional: a submission arriving while
        ``max_pending_async`` jobs are still queued/running is shed
        with 429 right here — before its body is parked on the job
        pool's work queue — so an async firehose is bounded exactly
        like the synchronous path (admission still runs again when the
        job executes).
        """
        pool = self._require_pool()
        if pool is None:
            return ServeResult(
                503, {"error": "service stopping"},
                retry_after=self.admission.config.retry_after_seconds,
            )
        retry_after = self.admission.config.retry_after_seconds
        if self.admission.draining:
            self.admission.record_shed(SHED_DRAINING)
            return self._finish(
                self._shed_result(RequestShed(SHED_DRAINING, retry_after), name)
            )
        job = self.jobs.create(name, max_pending=self.max_pending_async)
        if job is None:
            self.admission.record_shed(SHED_ASYNC_BACKLOG)
            return self._finish(
                self._shed_result(
                    RequestShed(SHED_ASYNC_BACKLOG, retry_after), name
                )
            )

        def run() -> None:
            self.jobs.mark_running(job.id)
            result = self.handle_scan(data, name, limits_spec, use_cache)
            state = JOB_SHED if result.status in (429, 503) else JOB_DONE
            self.jobs.finish(job.id, state, result.status, result.payload)

        try:
            pool.submit(run)
        except RuntimeError:  # drained between _require_pool and submit
            # Close out the record so it never lingers as pending.
            self.jobs.finish(
                job.id, JOB_SHED, 503, {"error": "service stopping"}
            )
            return ServeResult(
                503, {"error": "service stopping"},
                retry_after=retry_after,
            )
        if self.obs.enabled:
            self.obs.metrics.inc("serve_jobs_submitted")
        return ServeResult(
            202, {"job": job.id, "state": job.state, "poll": f"/jobs/{job.id}"}
        )

    def handle_job_status(self, job_id: str) -> ServeResult:
        job = self.jobs.get(job_id)
        if job is None:
            return ServeResult(404, {"error": f"unknown job {job_id!r}"})
        return ServeResult(200, job.to_dict())

    # -- introspection -----------------------------------------------------

    def health(self) -> ServeResult:
        """``GET /healthz``: 200 while serving, 503 once draining (so a
        load balancer stops routing before the listener goes away)."""
        snap = self.admission.snapshot()
        payload = {
            "status": "draining" if snap["draining"] else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.scanner.jobs,
            "backend": self.scanner.backend,
            "queue_depth": snap["queue_depth"],
            "in_flight": snap["in_flight"],
            #: Hung workers still burning pool slots after their
            #: requests were abandoned; true occupancy is
            #: in_flight + abandoned_workers.
            "abandoned_workers": self.abandoned_workers,
            #: Worker pools replaced after a dead worker broke them.
            "worker_respawns": self.scanner.worker_respawns,
            "pending_jobs": self.jobs.pending_count(),
        }
        return ServeResult(503 if snap["draining"] else 200, payload)

    def metrics(self) -> ServeResult:
        """``GET /metrics``: admission/job/cache state + obs counters."""
        payload: Dict[str, Any] = {
            "admission": self.admission.snapshot(),
            "jobs": self.jobs.snapshot(),
            "abandoned_workers": self.abandoned_workers,
            "worker_respawns": self.scanner.worker_respawns,
        }
        if self.scanner.cache is not None:
            payload["cache"] = self.scanner.cache.stats
        if self.obs.enabled:
            payload["metrics"] = self.obs.metrics.snapshot()
            latency = self.obs.metrics.histogram("serve_latency_seconds")
            if latency is not None and latency.count:
                payload["latency"] = {
                    "p50_seconds": latency.quantile(0.5),
                    "p95_seconds": latency.quantile(0.95),
                }
        return ServeResult(200, payload)

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: text exposition 0.0.4.

        Renders every obs series plus the service's live admission /
        job / slow-scan state (as ``serve_*`` gauges) so a Prometheus
        scraper sees the whole picture from one endpoint — including on
        a service running with the default (disabled) sink.
        """
        snap = self.admission.snapshot()
        slow = self.slow_scans.snapshot()
        live = Metrics()
        live.set_gauge("serve_admission_queue_depth", snap["queue_depth"])
        live.set_gauge("serve_admission_in_flight", snap["in_flight"])
        live.set_gauge("serve_admission_draining", int(snap["draining"]))
        live.set_gauge("serve_abandoned_workers_live", self.abandoned_workers)
        live.set_gauge("serve_worker_respawns", self.scanner.worker_respawns)
        live.set_gauge("serve_pending_jobs", self.jobs.pending_count())
        live.set_gauge("serve_uptime_seconds", time.time() - self.started_at)
        live.set_gauge("serve_slow_scans_retained", slow["retained"])
        if self.scanner.cache is not None:
            stats = self.scanner.cache.stats
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    live.set_gauge(f"serve_cache_{key}", value)
        text = live.render_prometheus()
        if self.obs.enabled:
            text += self.obs.metrics.render_prometheus()
        return text

    def debug_slow(self) -> ServeResult:
        """``GET /debug/slow``: retained slow-scan exemplars."""
        return ServeResult(200, self.slow_scans.snapshot())

    # -- internals ---------------------------------------------------------

    def _require_pool(self) -> Optional[cf.ThreadPoolExecutor]:
        """The async-job pool, or None (503) once drained.

        Lazy-starts an un-started service but never resurrects a
        drained one — ``drain`` is terminal and only an explicit
        (pre-drain) :meth:`start` creates pools.
        """
        with self._lock:
            if self._stopped:
                return None
            pool = self._async_pool
        if pool is None:
            try:
                self.start()
            except RuntimeError:  # drained while we decided to start
                return None
            with self._lock:
                pool = self._async_pool
        return pool

    @property
    def abandoned_workers(self) -> int:
        """Abandoned requests whose workers still hold pool slots."""
        with self._lock:
            return self._abandoned

    def _note_abandoned(self, handle: Any) -> None:
        """Track a hung worker past its grace: the request is answered
        503, but the worker thread keeps its pool slot until the scan
        self-aborts — while it does, ``max_in_flight`` under-reports
        true pool occupancy, so the discrepancy is surfaced as a gauge
        and in ``/healthz`` for operators."""
        with self._lock:
            self._abandoned += 1
        if self.obs.enabled:
            self.obs.metrics.inc("serve_abandoned")
            self.obs.metrics.set_gauge(
                "serve_abandoned_workers", self.abandoned_workers
            )

        def _slot_returned() -> None:
            with self._lock:
                self._abandoned -= 1
            if self.obs.enabled:
                self.obs.metrics.set_gauge(
                    "serve_abandoned_workers", self.abandoned_workers
                )

        handle.add_done_callback(_slot_returned)

    def _shed_result(self, shed: RequestShed, name: str) -> ServeResult:
        if self.obs.enabled:
            self.obs.metrics.inc("serve_shed", reason=shed.reason)
        return ServeResult(
            shed.status,
            {"error": str(shed), "reason": shed.reason, "name": name},
            retry_after=shed.retry_after,
        )

    def _finish(self, result: ServeResult, span: Any = None) -> ServeResult:
        if span is not None:
            span.set_tag("status", result.status)
            if "reason" in result.payload:
                span.set_tag("shed_reason", result.payload["reason"])
        if self.obs.enabled:
            self.obs.metrics.inc("serve_requests", status=result.status)
            self.obs.metrics.set_gauge(
                "serve_queue_depth", self.admission.queue_depth
            )
            self.obs.metrics.set_gauge(
                "serve_in_flight", self.admission.in_flight
            )
        return result
