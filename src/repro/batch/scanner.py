"""Parallel corpus scanning over one persistent worker pool.

The paper deploys the detector as a gateway filter: every inbound PDF
is instrumented before delivery.  A gateway sees *corpora*, not single
files, so this module fans documents out over ``concurrent.futures``
workers while keeping the per-document pipeline semantics exactly
sequential:

* every worker owns a **forked pipeline**
  (:meth:`~repro.core.pipeline.ProtectionPipeline.fork`) — pipelines
  share mutable state and are not re-entrant, but verdicts are
  seed-determined, so a fork produces the same verdict the sequential
  pipeline would (asserted by ``tests/property/test_batch_properties``);
* duplicate documents (same SHA-256) are scanned **once** and answered
  from the :class:`~repro.batch.cache.VerdictCache`;
* a document that hangs or crashes its worker is **isolated**: it gets
  retried with bounded backoff and, if it keeps failing, is reported as
  ``timeout``/``errored`` in the :class:`~repro.batch.report.BatchReport`
  while every other document completes normally.

There is one pool, brought up by :meth:`BatchScanner.start`, and every
scan takes the same path onto it: one verdict-cache lookup (unless the
scan bypasses the cache), then a submission whose done-callback stores
the verdict, answered by a :class:`ScanHandle`.  The scan service submits one request at a time
(:meth:`BatchScanner.submit_one`); a batch run
(:meth:`BatchScanner.scan_items`) is a loop over handles that adds
in-run deduplication, per-attempt timeouts and retries.

Backends
--------
``thread``
    Cheap to start, shares memory; scans are pure-Python so the GIL
    serialises them — use for I/O-bound corpora, tests and stubs.  A
    timed-out scan cannot be killed, only abandoned (its thread keeps
    the pool slot until it finishes).
``process``
    Real CPU parallelism (the benchmark's >1.5x speedup comes from
    here).  Requires picklable work, which is why workers rebuild the
    pipeline from :class:`~repro.core.pipeline.PipelineSettings`.  A
    worker killed mid-scan breaks the whole pool and fails every scan
    in it; the next submission replaces the pool and counts a respawn
    (batch runs retry the lost documents, the scan service answers
    them 503).
"""

from __future__ import annotations

import concurrent.futures as cf
import functools
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import limits as limits_mod
from repro import obs as obs_mod
from repro.batch.cache import VerdictCache, content_digest
from repro.batch.report import (
    STATUS_ERRORED,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchItemResult,
    BatchReport,
    VerdictSummary,
)
from repro.core.pipeline import PipelineSettings, ProtectionPipeline
from repro.limits import ScanLimits, cap_deadline

#: Default worker backend — measured, not guessed.  ``benchmarks/
#: bench_batch_scan.py`` re-times thread vs process on unique and
#: duplicated corpora each run and records the winners in
#: BENCH_batch.json ("measured" block).  Post PR 7/9 per-scan speedups
#: the thread pool still wins both workloads on small-core hosts (no
#: fork/pickle tax, shared verdict cache); flip this constant when a
#: measurement says otherwise.
DEFAULT_BACKEND = "thread"

#: (name, data) pairs are the universal input shape.
BatchItem = Tuple[str, bytes]

#: Builds a fresh, worker-private pipeline-like object exposing
#: ``scan(data, name) -> OpenReport``.
PipelineFactory = Callable[[], Any]

#: What a worker returns: the verdict core, the JSON-ready report, the
#: scan's seconds and its span tree (None for pipelines without obs).
ScanResult = Tuple[VerdictSummary, Dict[str, Any], float, Optional[List[Dict[str, Any]]]]

_WAIT_SLACK = 0.005  # seconds added to waits so deadlines have passed


def _settings_fingerprint(settings: PipelineSettings) -> str:
    """Cache fingerprint: verdicts only transfer between identical setups.

    Incorporates the static-analysis rule-set version and the triage
    flag: editing a lint rule (or toggling triage) changes what the
    scanner may skip, so cached verdicts from other configurations are
    discarded.
    """
    from repro.jsast.rules import ruleset_version
    from repro.jsast.rules_absint import ABSINT_VERSION

    return (
        f"v{settings.reader_version}|seed{settings.seed}"
        f"|{settings.hook_mode.value}|{settings.config!r}"
        f"|jsast:{ruleset_version()}|triage:{int(settings.triage)}"
        f"|absint:{ABSINT_VERSION}"
        f"|limits:{settings.limits.describe()}"
    )


# -- worker functions --------------------------------------------------------

def _pipeline_tracer(pipeline: Any) -> Optional[Any]:
    """The pipeline's tracer, or None for stub pipelines without obs."""
    obs = getattr(pipeline, "obs", None)
    return getattr(obs, "tracer", None)


def _run_scan_report(
    pipeline: Any,
    name: str,
    data: bytes,
    limits: ScanLimits,
    deadline_at: Optional[float],
    parent_span_id: Optional[int] = None,
) -> ScanResult:
    """Scan one document in a worker and return its :data:`ScanResult`.

    ``limits`` is the scan's effective budget (already capped by the
    scanner's per-attempt timeout); ``deadline_at`` is a
    ``time.monotonic`` instant by which the *whole request* — queue
    wait included — must finish, so the remaining time further caps the
    in-scan deadline.  A request whose deadline passed while it queued
    aborts on the first budget check and comes back as a structured
    ``deadline`` limit report instead of burning a worker slot.

    The report comes back as ``OpenReport.to_dict()`` (a plain dict,
    so the process backend can pickle it), and the span tree as plain
    dicts, collected even with a disabled sink — the service's
    slow-scan buffer needs full span trees without paying for
    always-on emission.
    """
    if deadline_at is not None:
        limits = cap_deadline(limits, max(0.0, deadline_at - time.monotonic()))
    tracer = _pipeline_tracer(pipeline)
    spans: Optional[List[Dict[str, Any]]] = None
    start = time.perf_counter()
    # The outer activation wins over the pipeline's own (re-entrant
    # scope), so per-request overrides govern the whole scan; blown
    # budgets are still converted to limit reports by ``pipeline.scan``.
    with limits_mod.activate(limits):
        if tracer is not None:
            # Re-parent this worker thread's spans to the submitter's
            # span so the trace tree stays connected across the pool.
            with tracer.attach(parent_span_id), tracer.collect() as spans:
                report = pipeline.scan(data, name)
        else:
            report = pipeline.scan(data, name)
    seconds = time.perf_counter() - start
    return VerdictSummary.from_report(report), report.to_dict(), seconds, spans


class _ThreadWorker:
    """Thread-pool task target: one lazily-built pipeline per thread."""

    def __init__(self, factory: PipelineFactory) -> None:
        self._factory = factory
        self._local = threading.local()

    def __call__(
        self,
        name: str,
        data: bytes,
        limits: ScanLimits,
        deadline_at: Optional[float],
        parent_span_id: Optional[int] = None,
    ) -> ScanResult:
        pipeline = getattr(self._local, "pipeline", None)
        if pipeline is None:
            pipeline = self._local.pipeline = self._factory()
        return _run_scan_report(
            pipeline, name, data, limits, deadline_at, parent_span_id
        )


#: Per-process pipeline for the ``process`` backend (set by the pool
#: initializer, used by every task that lands in that process).
_process_pipeline: Optional[ProtectionPipeline] = None


def _process_initializer(settings: PipelineSettings) -> None:
    global _process_pipeline
    _process_pipeline = settings.build()


def _service_process_worker(
    name: str,
    data: bytes,
    limits: ScanLimits,
    deadline_at: Optional[float],
    parent_span_id: Optional[int] = None,
) -> ScanResult:
    # ``parent_span_id`` is accepted for signature parity but ignored:
    # span ids are per-process counters, so a parent id from the
    # orchestrator process would alias unrelated spans here.
    assert _process_pipeline is not None, "pool initializer did not run"
    return _run_scan_report(_process_pipeline, name, data, limits, deadline_at)


@dataclass(frozen=True)
class ScanOutcome:
    """What one scan produced.

    ``report`` is the JSON-ready ``OpenReport.to_dict()`` payload for
    scans that actually ran; cache answers carry only the ``summary``
    (the cache stores verdict cores, not full reports).
    """

    summary: VerdictSummary
    report: Optional[Dict[str, Any]]
    seconds: float
    cached: bool = False
    #: The scan's span tree (plain dicts), collected in the worker for
    #: slow-scan exemplar capture; None for cache hits and stub workers.
    spans: Optional[List[Dict[str, Any]]] = None


class ScanHandle:
    """Handle for one document submitted to the pool.

    Resolves either immediately (verdict-cache hit) or when the worker
    pool finishes the scan.  :meth:`result` re-raises worker exceptions
    and ``concurrent.futures.TimeoutError`` on wait expiry — callers
    that must never raise (the scan service) wrap it.
    """

    def __init__(
        self,
        name: str,
        digest: str,
        future: Optional["cf.Future[ScanResult]"] = None,
        outcome: Optional[ScanOutcome] = None,
    ) -> None:
        if (future is None) == (outcome is None):
            raise ValueError("exactly one of future/outcome required")
        self.name = name
        self.digest = digest
        self._future = future
        self._outcome = outcome

    @property
    def cached(self) -> bool:
        """True when the handle was answered from the verdict cache."""
        return self._outcome is not None and self._outcome.cached

    def done(self) -> bool:
        return self._outcome is not None or (
            self._future is not None and self._future.done()
        )

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` (no arguments) once the scan resolves — fires
        immediately for cache hits.  The service uses this to notice
        when an abandoned worker finally returns its pool slot."""
        if self._future is not None:
            self._future.add_done_callback(lambda _future: fn())
        else:
            fn()

    def cancel(self) -> bool:
        """Withdraw a scan still queued for a worker; a running scan
        cannot be stopped, only abandoned."""
        return self._future is not None and self._future.cancel()

    def result(self, timeout: Optional[float] = None) -> ScanOutcome:
        if self._outcome is None:
            assert self._future is not None
            summary, report, seconds, spans = self._future.result(timeout)
            self._outcome = ScanOutcome(summary, report, seconds, spans=spans)
        return self._outcome


# -- orchestration -----------------------------------------------------------

@dataclass
class _Task:
    """One unique document of a batch run, across its attempts."""

    name: str
    data: bytes
    digest: str
    #: Item indexes this scan answers: the scanned document first, then
    #: its in-run duplicates.
    members: List[int]
    attempt: int = 1
    #: ``time.monotonic()`` when the current attempt was submitted.
    submitted_at: float = 0.0
    #: ``time.monotonic()`` after which a held retry may be submitted.
    ready_at: float = 0.0


class BatchScanner:
    """Fan a corpus out over a worker pool and aggregate the verdicts.

    One persistent pool serves both uses: :meth:`submit_one` (the scan
    service, one request at a time) and :meth:`scan_items` (a batch
    run, which starts the pool for the run when the scanner was not
    started).  A scanner runs one batch at a time.

    Parameters
    ----------
    jobs:
        Worker count (default 4).
    backend:
        ``"thread"`` or ``"process"`` (see module docstring).
    timeout:
        Per-document wall-clock seconds *per attempt* of a batch run,
        counted from the attempt's submission; ``None`` waits forever.
        Also caps every scan's in-scan deadline.
    retries:
        Extra attempts a batch run gives a document after a timeout or
        worker exception.
    backoff / max_backoff:
        Retry n waits ``min(backoff * 2**(n-1), max_backoff)`` seconds
        before it is submitted again; the run holds it meanwhile, so a
        waiting retry occupies no worker.
    settings:
        Pipeline configuration for default workers (picklable, so it
        also feeds the process backend).
    pipeline_factory:
        Overrides ``settings``: a zero-arg callable returning an object
        with ``scan(data, name)``.  Thread backend only (factories are
        not shipped across processes) — this is the fault-injection
        hook the tests use.
    cache:
        A :class:`VerdictCache` to share/persist, ``None`` to build a
        private in-memory one, or ``False`` to disable caching *and*
        deduplication entirely.
    obs:
        Observability bundle.  Thread-backend workers share it: their
        pipeline spans flow to the same sink, parented to the enclosing
        ``batch.run`` / ``serve.request`` span (the tracer's span stack
        is thread-local).  Process workers emit to their own process's
        default obs instead — spans cannot cross the pickle boundary
        live, so they ship them back as dicts in the scan result.
    """

    def __init__(
        self,
        jobs: int = 4,
        backend: str = DEFAULT_BACKEND,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        settings: Optional[PipelineSettings] = None,
        pipeline_factory: Optional[PipelineFactory] = None,
        cache: Union[VerdictCache, None, bool] = None,
        obs: Optional[obs_mod.Observability] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "process" and pipeline_factory is not None:
            raise ValueError("pipeline_factory requires the thread backend")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.jobs = jobs
        self.backend = backend
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.settings = settings if settings is not None else PipelineSettings()
        if timeout is not None:
            # A thread worker that blows its per-attempt timeout cannot
            # be killed — only abandoned, still burning its pool slot.
            # Cap the in-scan parse deadline to the timeout so a hung
            # parse aborts *itself* instead of squatting the pool.
            self.settings = replace(
                self.settings,
                limits=cap_deadline(self.settings.limits, timeout),
            )
        self.pipeline_factory = pipeline_factory
        self.obs = obs if obs is not None else obs_mod.get_default()
        if cache is False:
            self.cache: Optional[VerdictCache] = None
        elif cache is None or cache is True:
            self.cache = VerdictCache(fingerprint=_settings_fingerprint(self.settings))
        else:
            self.cache = cache
        #: The persistent worker pool (see :meth:`start`).
        self._service_executor: Optional[cf.Executor] = None
        self._service_worker: Optional[Callable[..., ScanResult]] = None
        self._service_lock = threading.Lock()
        #: Times a dead worker broke the pool and it was replaced (see
        #: :meth:`_replace_service_executor`).
        self.worker_respawns = 0

    # -- input conveniences ----------------------------------------------

    def scan_paths(self, paths: Sequence[Any]) -> BatchReport:
        """Scan files from disk; unreadable files become errored items."""
        items: List[BatchItem] = []
        unreadable: List[Tuple[str, str]] = []
        for path in paths:
            try:
                items.append((str(path), open(path, "rb").read()))
            except OSError as error:
                unreadable.append((str(path), str(error)))
        report = self.scan_items(items)
        for name, error in unreadable:
            report.items.append(
                BatchItemResult(
                    name=name, sha256="", status=STATUS_ERRORED, error=error
                )
            )
        return report

    def scan_dir(self, root: Any) -> BatchReport:
        """Scan every ``*.pdf`` under ``root`` (recursively, sorted)."""
        from repro.corpus.files import iter_pdf_paths

        return self.scan_paths(list(iter_pdf_paths(root)))

    # -- the pool ----------------------------------------------------------

    def start(self) -> "BatchScanner":
        """Bring up the persistent worker pool every scan runs on.

        Idempotent and thread-safe; pair with :meth:`shutdown`.  The
        process worker is read from the module by name here, so a
        wrapper installed before the pool starts is the one that runs.
        """
        with self._service_lock:
            if self._service_executor is None:
                self._service_executor = self._make_executor()
                if self.backend == "process":
                    self._service_worker = _service_process_worker
                else:
                    # Worker pipelines share the scanner's obs: the
                    # tracer stack is thread-local and the sink is
                    # lock-protected, so worker spans interleave
                    # safely and stay parented to the submitter.
                    self._service_worker = _ThreadWorker(
                        self.pipeline_factory
                        or functools.partial(self.settings.build, obs=self.obs)
                    )
        return self

    @property
    def started(self) -> bool:
        return self._service_executor is not None

    def effective_limits(self, limits: Optional[ScanLimits] = None) -> ScanLimits:
        """The budget one request actually runs under.

        Per-request overrides are re-derived against the scanner's
        per-attempt ``timeout`` *at submission time* — construction-time
        capping alone would let a request overriding ``--limits`` with a
        huge deadline outlive its admission deadline and squat a worker
        slot (the ISSUE-5 regression).
        """
        base = limits if limits is not None else self.settings.limits
        return cap_deadline(base, self.timeout)

    def submit_one(
        self,
        name: str,
        data: bytes,
        limits: Optional[ScanLimits] = None,
        deadline_at: Optional[float] = None,
        use_cache: bool = True,
    ) -> ScanHandle:
        """Submit one document to the persistent pool.

        ``limits`` overrides the pipeline budgets for this request only
        (its deadline still re-capped by the scanner timeout);
        ``deadline_at`` is a ``time.monotonic`` instant bounding the
        whole request — remaining time at scan start caps the in-scan
        deadline, so queue wait counts against the request.  Cache hits
        resolve immediately; custom-limits requests bypass the cache
        both ways (a verdict produced under tighter budgets must not be
        served to default-budget requests, and vice versa).  A scan
        that aborted on a budget is errored, so the cache never stores
        it.  A pool broken by a dead worker is replaced before
        submitting; a worker that dies during this scan fails the
        handle with ``concurrent.futures.BrokenExecutor``.
        """
        self.start()
        digest = content_digest(data)
        cache = self.cache if (use_cache and limits is None) else None
        hit = self._lookup(cache, digest)
        if hit is not None:
            return ScanHandle(
                name, digest, outcome=ScanOutcome(hit, None, 0.0, cached=True)
            )
        return self._submit_scan(
            name, data, digest, self.effective_limits(limits), deadline_at,
            cache,
        )

    def scan_one(
        self,
        name: str,
        data: bytes,
        limits: Optional[ScanLimits] = None,
        deadline_at: Optional[float] = None,
        wait_timeout: Optional[float] = None,
    ) -> ScanOutcome:
        """Blocking convenience wrapper around :meth:`submit_one`."""
        return self.submit_one(
            name, data, limits=limits, deadline_at=deadline_at
        ).result(wait_timeout)

    def _lookup(
        self, cache: Optional[VerdictCache], digest: str
    ) -> Optional[VerdictSummary]:
        """The cached verdict for ``digest``, counted as a hit or miss."""
        if cache is None:
            return None
        hit = cache.get(digest)
        self._count_cache(hit=hit is not None)
        return hit

    def _submit_scan(
        self,
        name: str,
        data: bytes,
        digest: str,
        limits: ScanLimits,
        deadline_at: Optional[float],
        cache: Optional[VerdictCache],
        on_done: Optional[Callable[[ScanHandle], None]] = None,
    ) -> ScanHandle:
        """Submit a scan that missed the cache; ``cache`` stores its verdict.

        One done-callback stores the verdict and then calls ``on_done``,
        so whoever ``on_done`` tells finds the verdict already cached.
        """
        executor, worker = self._service_executor, self._service_worker
        if executor is None or worker is None:
            raise RuntimeError("scanner has been shut down")
        # Capture the submitting thread's span context (the enclosing
        # serve.request or batch.run span) so the worker's spans parent
        # to it.  Process workers get None: span ids are per-process.
        parent_span_id = (
            self.obs.tracer.current_span_id if self.backend == "thread" else None
        )
        call = (worker, name, data, limits, deadline_at, parent_span_id)
        try:
            future = executor.submit(*call)
        except cf.BrokenExecutor:
            # A broken pool rejects the submission before anything runs,
            # so submitting again cannot scan the document twice.
            future = self._replace_service_executor(executor).submit(*call)
        handle = ScanHandle(name, digest, future=future)
        if cache is not None or on_done is not None:
            def _done(done: "cf.Future[ScanResult]") -> None:
                if cache is not None and not done.cancelled() and done.exception() is None:
                    cache.put(digest, done.result()[0])
                if on_done is not None:
                    on_done(handle)

            future.add_done_callback(_done)
        return handle

    def _replace_service_executor(self, broken: cf.Executor) -> cf.Executor:
        """Swap the broken persistent pool for a fresh one, exactly once.

        Every submission that finds the pool broken lands here; only
        the first swaps it (and counts a respawn), the rest get that
        replacement.  A pool torn down by :meth:`shutdown` is never
        rebuilt.
        """
        with self._service_lock:
            if self._service_executor is None:
                raise RuntimeError("scanner has been shut down")
            if self._service_executor is broken:
                self._service_executor = self._make_executor()
                self.worker_respawns += 1
            fresh = self._service_executor
        broken.shutdown(wait=False)
        return fresh

    def _make_executor(self) -> cf.Executor:
        if self.backend == "process":
            return cf.ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_process_initializer,
                initargs=(self.settings,),
            )
        return cf.ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-batch"
        )

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the persistent pool (no-op when never started)."""
        with self._service_lock:
            executor, self._service_executor = self._service_executor, None
            self._service_worker = None
        if executor is not None:
            executor.shutdown(wait=wait)
        if self.cache is not None:
            self.cache.flush()

    # -- the batch run ----------------------------------------------------

    def scan_items(self, items: Iterable[BatchItem]) -> BatchReport:
        """Scan a corpus on the persistent pool.

        An unstarted scanner starts the pool for the run and shuts it
        down (without waiting for abandoned workers) at the end.
        """
        materialized = [(name, data) for name, data in items]
        report = BatchReport(
            jobs=self.jobs,
            backend=self.backend,
            timeout=self.timeout,
            retries=self.retries,
        )
        owns_pool = not self.started
        self.start()
        wall_start = time.perf_counter()
        try:
            with self.obs.tracer.span(
                "batch.run", items=len(materialized), jobs=self.jobs,
                backend=self.backend,
            ) as run_span:
                report.items.extend(self._scan_materialized(materialized, report))
                report.wall_seconds = time.perf_counter() - wall_start
                run_span.set_tag("scans_executed", report.scans_executed)
                run_span.set_tag("cache_hits", report.cache_hits)
        finally:
            if owns_pool:
                self.shutdown(wait=False)  # flushes the cache too
            elif self.cache is not None:
                self.cache.flush()
        if self.obs.enabled:
            self.obs.metrics.inc("batch_runs")
            self.obs.metrics.observe("batch_wall_seconds", report.wall_seconds)
        return report

    def _scan_materialized(
        self, materialized: List[BatchItem], report: BatchReport
    ) -> List[BatchItemResult]:
        results: List[Optional[BatchItemResult]] = [None] * len(materialized)
        limits = self.effective_limits()
        tasks: List[_Task] = []
        by_digest: Dict[str, _Task] = {}
        pending: Dict[ScanHandle, _Task] = {}
        held: List[_Task] = []  # retries waiting out their backoff
        # Fed by each scan's done-callback, after its verdict is stored.
        finished: "queue.SimpleQueue[ScanHandle]" = queue.SimpleQueue()

        def submit(task: _Task) -> None:
            task.submitted_at = time.monotonic()
            handle = self._submit_scan(
                task.name, task.data, task.digest, limits, None, self.cache,
                on_done=finished.put,
            )
            pending[handle] = task

        def retry_or_fail(task: _Task, status: str, error: str) -> None:
            if task.attempt <= self.retries:
                report.retries_used += 1
                if self.obs.enabled:
                    self.obs.metrics.inc("batch_retries", reason=status)
                task.ready_at = time.monotonic() + min(
                    self.backoff * (2 ** (task.attempt - 1)), self.max_backoff
                )
                task.attempt += 1
                held.append(task)
            else:
                results[task.members[0]] = BatchItemResult(
                    name=task.name, sha256=task.digest, status=status,
                    attempts=task.attempt, seconds=self.timeout or 0.0,
                    error=error,
                )

        def settle(handle: ScanHandle) -> None:
            task = pending.pop(handle, None)
            if task is None:
                return  # an abandoned attempt that finished late
            try:
                outcome = handle.result()
            except Exception as error:  # the worker raised or died
                retry_or_fail(
                    task, STATUS_ERRORED, f"{type(error).__name__}: {error}"
                )
                return
            results[task.members[0]] = BatchItemResult(
                name=task.name, sha256=task.digest, status=STATUS_OK,
                verdict=outcome.summary, attempts=task.attempt,
                seconds=outcome.seconds,
            )

        for index, (name, data) in enumerate(materialized):
            digest = content_digest(data)
            twin = by_digest.get(digest) if self.cache is not None else None
            if twin is not None:
                # In-run duplicate: ride on the first copy's answer.
                twin.members.append(index)
                report.cache_hits += 1
                self._count_cache(hit=True)
                continue
            task = _Task(name=name, data=data, digest=digest, members=[index])
            tasks.append(task)
            by_digest[digest] = task
            hit = self._lookup(self.cache, digest)
            if hit is not None:
                report.cache_hits += 1
                results[index] = BatchItemResult(
                    name=name, sha256=digest, status=STATUS_OK,
                    verdict=hit, cached=True,
                )
                continue
            if self.cache is not None:
                report.cache_misses += 1
            submit(task)

        while pending or held:
            now = time.monotonic()
            for task in [task for task in held if task.ready_at <= now]:
                held.remove(task)
                submit(task)
            wakeups = [task.ready_at for task in held]
            if self.timeout is not None:
                wakeups += [t.submitted_at + self.timeout for t in pending.values()]
            wait_for = max(0.0, min(wakeups) - now) + _WAIT_SLACK if wakeups else None
            try:
                handle = finished.get(timeout=wait_for)
            except queue.Empty:
                pass  # a deadline or a backoff is due
            else:
                settle(handle)
            if self.timeout is not None:
                now = time.monotonic()
                for late, task in list(pending.items()):
                    if now >= task.submitted_at + self.timeout:
                        # Cannot kill a running worker; abandon the
                        # attempt (its thread/process finishes on its
                        # own) and retry on a free slot.
                        late.cancel()
                        del pending[late]
                        if self.obs.enabled:
                            self.obs.metrics.inc("batch_timeouts")
                        retry_or_fail(
                            task, STATUS_TIMEOUT,
                            f"no result within {self.timeout:g}s "
                            f"(attempt {task.attempt})",
                        )

        for task in tasks:
            first = results[task.members[0]]
            assert first is not None
            for index in task.members[1:]:
                results[index] = replace(
                    first, name=materialized[index][0], cached=True,
                    attempts=0, seconds=0.0,
                )
            if not first.cached:
                self._record_item(first)
                report.scans_executed += first.attempts
                if first.status == STATUS_TIMEOUT:
                    report.timeouts += 1
        assert all(result is not None for result in results)
        return [result for result in results if result is not None]

    # -- obs helpers -------------------------------------------------------

    def _count_cache(self, hit: bool) -> None:
        if self.obs.enabled:
            self.obs.metrics.inc(
                "batch_cache_lookups", result="hit" if hit else "miss"
            )

    def _record_item(self, item: BatchItemResult) -> None:
        if not self.obs.enabled:
            return
        with self.obs.tracer.span("batch.document", document=item.name) as span:
            span.set_tag("status", item.status)
            span.set_tag("attempts", item.attempts)
            span.set_tag("scan_seconds", item.seconds)
            if item.verdict is not None:
                span.set_tag("malicious", item.verdict.malicious)
        self.obs.metrics.inc("batch_docs", status=item.status)
        if item.status == STATUS_OK:
            self.obs.metrics.observe("batch_scan_seconds", item.seconds)


def scan_corpus(
    items: Iterable[BatchItem],
    jobs: int = 4,
    **kwargs: Any,
) -> BatchReport:
    """One-call convenience: ``scan_corpus([(name, bytes), ...])``."""
    return BatchScanner(jobs=jobs, **kwargs).scan_items(items)
