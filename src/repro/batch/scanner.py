"""Parallel corpus scanning over a worker pool.

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
    in it; the next submission replaces the pool (batch runs retry the
    lost documents, the scan service answers them 503).
"""

from __future__ import annotations

import concurrent.futures as cf
import threading
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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

_WAIT_SLACK = 0.005  # seconds added to wait() so deadlines have passed


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


def _run_scan(
    pipeline: Any,
    name: str,
    data: bytes,
    delay: float,
    parent_span_id: Optional[int] = None,
) -> Tuple[VerdictSummary, float]:
    if delay > 0:
        time.sleep(delay)
    tracer = _pipeline_tracer(pipeline)
    start = time.perf_counter()
    if tracer is not None:
        # Re-parent this worker thread's spans to the submitting
        # ``batch.run`` span so the trace tree stays connected across
        # the pool boundary.
        with tracer.attach(parent_span_id):
            report = pipeline.scan(data, name)
    else:
        report = pipeline.scan(data, name)
    return VerdictSummary.from_report(report), time.perf_counter() - start


def _run_scan_report(
    pipeline: Any,
    name: str,
    data: bytes,
    limits: Optional[ScanLimits],
    deadline_at: Optional[float],
    parent_span_id: Optional[int] = None,
) -> Tuple[VerdictSummary, Dict[str, Any], float, bool, Optional[List[Dict[str, Any]]]]:
    """Service-mode scan: one request, full report payload back.

    ``limits`` is the request's effective budget (already capped by the
    scanner's per-attempt timeout); ``deadline_at`` is a
    ``time.monotonic`` instant by which the *whole request* — queue
    wait included — must finish, so the remaining time further caps the
    in-scan deadline.  A request whose deadline passed while it queued
    aborts on the first budget check and comes back as a structured
    ``deadline`` limit report instead of burning a worker slot.

    Returns ``(summary, report_dict, seconds, cacheable, spans)``: the
    verdict core, the JSON-ready ``OpenReport.to_dict()`` payload (kept
    as a plain dict so the process backend can pickle it), whether the
    verdict may be cached under the scanner's settings fingerprint, and
    the scan's span tree as plain dicts (collected even with a disabled
    sink — the service's slow-scan buffer needs full span trees without
    paying for always-on emission).  ``cacheable`` is False when
    ``deadline_at`` tightened the budget *and* the scan aborted on a
    budget: that abort may be an artifact of this request's remaining
    queue time, not of the configured limits the cache fingerprint
    describes — caching it would serve a possibly-wrong verdict to
    every later request for the digest.
    """
    if limits is None:
        limits = ScanLimits()
    effective = limits
    if deadline_at is not None:
        remaining = max(0.0, deadline_at - time.monotonic())
        effective = cap_deadline(limits, remaining)
    tightened = effective.deadline_seconds != limits.deadline_seconds
    tracer = _pipeline_tracer(pipeline)
    spans: Optional[List[Dict[str, Any]]] = None
    start = time.perf_counter()
    # The outer activation wins over the pipeline's own (re-entrant
    # scope), so per-request overrides govern the whole scan; blown
    # budgets are still converted to limit reports by ``pipeline.scan``.
    with limits_mod.activate(effective):
        if tracer is not None:
            with tracer.attach(parent_span_id), tracer.collect() as spans:
                report = pipeline.scan(data, name)
        else:
            report = pipeline.scan(data, name)
    seconds = time.perf_counter() - start
    summary = VerdictSummary.from_report(report)
    # A clean verdict under a tighter deadline equals the full-budget
    # verdict (budgets only abort scans, never change detection logic).
    cacheable = not tightened or (
        summary.limit_kind is None and not summary.errored
    )
    return summary, report.to_dict(), seconds, cacheable, spans


class _ThreadWorker:
    """Thread-pool task target: one lazily-built pipeline per thread."""

    def __init__(self, factory: PipelineFactory) -> None:
        self._factory = factory
        self._local = threading.local()

    def _pipeline(self) -> Any:
        pipeline = getattr(self._local, "pipeline", None)
        if pipeline is None:
            pipeline = self._factory()
            self._local.pipeline = pipeline
        return pipeline

    def __call__(
        self,
        name: str,
        data: bytes,
        delay: float,
        parent_span_id: Optional[int] = None,
    ) -> Tuple[VerdictSummary, float]:
        return _run_scan(self._pipeline(), name, data, delay, parent_span_id)


class _ServiceThreadWorker(_ThreadWorker):
    """Thread-pool target for per-request (service-mode) submissions."""

    def __call__(  # type: ignore[override]
        self,
        name: str,
        data: bytes,
        limits: Optional[ScanLimits],
        deadline_at: Optional[float],
        parent_span_id: Optional[int] = None,
    ) -> Tuple[VerdictSummary, Dict[str, Any], float, bool, Optional[List[Dict[str, Any]]]]:
        return _run_scan_report(
            self._pipeline(), name, data, limits, deadline_at, parent_span_id
        )


#: Per-process pipeline for the ``process`` backend (set by the pool
#: initializer, used by every task that lands in that process).
_process_pipeline: Optional[ProtectionPipeline] = None


def _process_initializer(settings: PipelineSettings) -> None:
    global _process_pipeline
    _process_pipeline = settings.build()


def _process_worker(
    name: str,
    data: bytes,
    delay: float,
    parent_span_id: Optional[int] = None,
) -> Tuple[VerdictSummary, float]:
    # ``parent_span_id`` is accepted for signature parity but ignored:
    # span ids are per-process counters, so a parent id from the
    # orchestrator process would alias unrelated spans here.
    assert _process_pipeline is not None, "pool initializer did not run"
    return _run_scan(_process_pipeline, name, data, delay)


def _service_process_worker(
    name: str,
    data: bytes,
    limits: Optional[ScanLimits],
    deadline_at: Optional[float],
    parent_span_id: Optional[int] = None,
) -> Tuple[VerdictSummary, Dict[str, Any], float, bool, Optional[List[Dict[str, Any]]]]:
    assert _process_pipeline is not None, "pool initializer did not run"
    return _run_scan_report(_process_pipeline, name, data, limits, deadline_at)


@dataclass(frozen=True)
class ScanOutcome:
    """What one service-mode scan produced.

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
    """Handle for one document submitted via :meth:`BatchScanner.submit_one`.

    Resolves either immediately (verdict-cache hit) or when the worker
    pool finishes the scan.  :meth:`result` re-raises worker exceptions
    and ``concurrent.futures.TimeoutError`` on wait expiry — callers
    that must never raise (the scan service) wrap it.
    """

    def __init__(
        self,
        name: str,
        digest: str,
        future: Optional["cf.Future[Any]"] = None,
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

    def result(self, timeout: Optional[float] = None) -> ScanOutcome:
        if self._outcome is None:
            assert self._future is not None
            summary, report, seconds, _cacheable, spans = self._future.result(
                timeout
            )
            self._outcome = ScanOutcome(summary, report, seconds, spans=spans)
        return self._outcome


# -- orchestration -----------------------------------------------------------

def _submit(
    executor: cf.Executor,
    replace: Callable[[cf.Executor], cf.Executor],
    *call: Any,
) -> Tuple[cf.Executor, "cf.Future[Any]"]:
    """Submit ``call``; if a dead worker broke the pool, ``replace`` it
    and submit again.

    A crashed process worker takes the whole process pool down, and a
    broken pool rejects the submission before anything runs, so the
    second submission cannot scan a document twice.  Returns the pool
    that took the call, with its future.
    """
    try:
        return executor, executor.submit(*call)
    except cf.BrokenExecutor:
        executor = replace(executor)
        return executor, executor.submit(*call)


@dataclass
class _Task:
    """One scheduled scan for one unique document."""

    key: Any  # digest (cache on) or item index (cache off)
    digest: str
    name: str
    data: bytes
    attempt: int = 1
    delay: float = 0.0
    submitted_at: float = 0.0

    def deadline(self, timeout: Optional[float]) -> Optional[float]:
        if timeout is None:
            return None
        return self.submitted_at + self.delay + timeout


@dataclass
class _Done:
    status: str
    summary: Optional[VerdictSummary] = None
    attempts: int = 0
    seconds: float = 0.0
    error: Optional[str] = None


class BatchScanner:
    """Fan a corpus out over a worker pool and aggregate the verdicts.

    Parameters
    ----------
    jobs:
        Worker count (default 4).
    backend:
        ``"thread"`` or ``"process"`` (see module docstring).
    timeout:
        Per-document wall-clock seconds *per attempt*; ``None`` waits
        forever.  Counted from (re)submission plus any backoff delay.
    retries:
        Extra attempts after a timeout or worker exception.
    backoff / max_backoff:
        Retry n waits ``min(backoff * 2**(n-1), max_backoff)`` seconds
        before scanning (slept in the worker so the orchestrator never
        blocks).
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
        live, though service-mode scans ship them back as dicts.
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
        #: Persistent executor for service-mode submissions (see
        #: :meth:`start`); batch runs keep building their own.
        self._service_executor: Optional[cf.Executor] = None
        self._service_worker: Optional[Callable[..., Any]] = None
        self._service_lock = threading.Lock()
        #: Times a dead worker broke the persistent pool and it was
        #: replaced (see :meth:`_replace_service_executor`).
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

    # -- service mode ------------------------------------------------------

    def start(self) -> "BatchScanner":
        """Bring up the persistent worker pool for per-request scans.

        Batch runs (:meth:`scan_items`) build and tear down their own
        executor; a long-running service instead submits one document
        at a time against a pool that outlives individual requests.
        Idempotent and thread-safe; pair with :meth:`shutdown`.
        """
        with self._service_lock:
            if self._service_executor is None:
                self._service_executor = self._make_executor()
                if self.backend == "process":
                    self._service_worker = _service_process_worker
                else:
                    factory = self.pipeline_factory
                    if factory is None:
                        settings = self.settings
                        shared_obs = self.obs
                        # Worker pipelines share the scanner's obs: the
                        # tracer stack is thread-local and the sink is
                        # lock-protected, so worker spans interleave
                        # safely and stay parented to the submitter.
                        factory = lambda: settings.build(obs=shared_obs)  # noqa: E731
                    self._service_worker = _ServiceThreadWorker(factory)
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
        """Submit one document to the persistent pool (service mode).

        ``limits`` overrides the pipeline budgets for this request only
        (its deadline still re-capped by the scanner timeout);
        ``deadline_at`` is a ``time.monotonic`` instant bounding the
        whole request — remaining time at scan start caps the in-scan
        deadline, so queue wait counts against the request.  Cache hits
        resolve immediately; custom-limits requests bypass the cache
        both ways (a verdict produced under tighter budgets must not be
        served to default-budget requests, and vice versa).  For the
        same reason a scan whose budget was tightened by ``deadline_at``
        and that aborted on a limit is never written to the cache.  A
        pool broken by a dead worker is replaced before submitting; a
        worker that dies during this scan fails the handle with
        ``concurrent.futures.BrokenExecutor``.
        """
        self.start()
        digest = content_digest(data)
        custom = limits is not None
        cache = self.cache if (use_cache and not custom) else None
        if cache is not None:
            hit = cache.get(digest)
            self._count_cache(hit=hit is not None)
            if hit is not None:
                return ScanHandle(
                    name, digest,
                    outcome=ScanOutcome(hit, None, 0.0, cached=True),
                )
        executor, worker = self._service_executor, self._service_worker
        if executor is None or worker is None:
            raise RuntimeError("scanner has been shut down")
        # Capture the submitting thread's span context (the enclosing
        # serve.request span) so the worker's spans parent to it.
        # Process workers get None: span ids are per-process counters.
        parent_span_id = (
            self.obs.tracer.current_span_id if self.backend == "thread" else None
        )
        _, future = _submit(
            executor, self._replace_service_executor, worker, name, data,
            self.effective_limits(limits), deadline_at, parent_span_id,
        )
        if cache is not None:
            def _store(done: "cf.Future[Any]") -> None:
                if done.cancelled() or done.exception() is not None:
                    return
                summary, _report, _seconds, cacheable, _spans = done.result()
                # Verdicts produced under a budget tightened by the
                # request deadline (queue wait shrank the in-scan
                # budget) that aborted on a limit are artifacts of this
                # request's timing, not of the configured limits the
                # fingerprint describes — never cache those.
                if cacheable:
                    cache.put(digest, summary)

            future.add_done_callback(_store)
        return ScanHandle(name, digest, future=future)

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

    def _replace_service_executor(self, broken: cf.Executor) -> cf.Executor:
        """Swap the broken persistent pool for a fresh one, exactly once.

        Every request that finds the pool broken lands here; only the
        first swaps it (and counts a respawn), the rest get that
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
        materialized = [(name, data) for name, data in items]
        report = BatchReport(
            jobs=self.jobs,
            backend=self.backend,
            timeout=self.timeout,
            retries=self.retries,
        )
        wall_start = time.perf_counter()
        with self.obs.tracer.span(
            "batch.run", items=len(materialized), jobs=self.jobs,
            backend=self.backend,
        ) as run_span:
            results = self._scan_materialized(materialized, report)
            report.items.extend(results)
            report.wall_seconds = time.perf_counter() - wall_start
            run_span.set_tag("scans_executed", report.scans_executed)
            run_span.set_tag("cache_hits", report.cache_hits)
        if self.obs.enabled:
            self.obs.metrics.inc("batch_runs")
            self.obs.metrics.observe("batch_wall_seconds", report.wall_seconds)
        if self.cache is not None:
            self.cache.flush()
        return report

    def _scan_materialized(
        self, materialized: List[BatchItem], report: BatchReport
    ) -> List[BatchItemResult]:
        results: List[Optional[BatchItemResult]] = [None] * len(materialized)
        tasks: Dict[Any, _Task] = {}
        members: Dict[Any, List[int]] = {}
        resolved: Dict[str, VerdictSummary] = {}  # cache hits this run

        for index, (name, data) in enumerate(materialized):
            digest = content_digest(data)
            if self.cache is None:
                # Cache (and dedup) off: every item is its own scan.
                tasks[index] = _Task(key=index, digest=digest, name=name, data=data)
                members[index] = [index]
                continue
            if digest in tasks:
                # In-run duplicate: ride on the representative's scan.
                members[digest].append(index)
                report.cache_hits += 1
                self._count_cache(hit=True)
                continue
            hit = resolved.get(digest)
            if hit is None:
                hit = self.cache.get(digest)
                if hit is not None:
                    resolved[digest] = hit
                    report.cache_hits += 1
                    self._count_cache(hit=True)
            else:
                report.cache_hits += 1
                self._count_cache(hit=True)
            if hit is not None:
                results[index] = BatchItemResult(
                    name=name, sha256=digest, status=STATUS_OK,
                    verdict=hit, cached=True,
                )
                continue
            report.cache_misses += 1
            self._count_cache(hit=False)
            tasks[digest] = _Task(key=digest, digest=digest, name=name, data=data)
            members[digest] = [index]

        done = self._execute(tasks, report)

        for key, outcome in done.items():
            task = tasks[key]
            for position, index in enumerate(members[key]):
                name = materialized[index][0]
                is_representative = position == 0
                results[index] = BatchItemResult(
                    name=name,
                    sha256=task.digest,
                    status=outcome.status,
                    verdict=outcome.summary,
                    cached=not is_representative,
                    attempts=outcome.attempts if is_representative else 0,
                    seconds=outcome.seconds if is_representative else 0.0,
                    error=outcome.error,
                )
            if (
                outcome.status == STATUS_OK
                and outcome.summary is not None
                and self.cache is not None
            ):
                self.cache.put(task.digest, outcome.summary)
            self._record_item(task.name, outcome)

        report.scans_executed = sum(d.attempts for d in done.values())
        report.timeouts = sum(
            1 for d in done.values() if d.status == STATUS_TIMEOUT
        )
        assert all(result is not None for result in results)
        return [result for result in results if result is not None]

    # -- executor loop -----------------------------------------------------

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

    def _worker_callable(self) -> Callable[..., Tuple[VerdictSummary, float]]:
        if self.backend == "process":
            return _process_worker
        factory = self.pipeline_factory
        if factory is None:
            settings = self.settings
            shared_obs = self.obs
            factory = lambda: settings.build(obs=shared_obs)  # noqa: E731
        return _ThreadWorker(factory)

    def _execute(self, tasks: Dict[Any, _Task], report: BatchReport) -> Dict[Any, _Done]:
        done_out: Dict[Any, _Done] = {}
        if not tasks:
            return done_out
        worker = self._worker_callable()
        executor = self._make_executor()
        pending: Dict[cf.Future, _Task] = {}

        # The orchestrator thread holds the ``batch.run`` span while
        # submitting; capture it so thread workers re-parent to it.
        parent_span_id = (
            self.obs.tracer.current_span_id if self.backend == "thread" else None
        )

        def replace(broken: cf.Executor) -> cf.Executor:
            broken.shutdown(wait=False)
            return self._make_executor()

        def submit(task: _Task) -> None:
            nonlocal executor
            task.submitted_at = time.monotonic()
            executor, future = _submit(
                executor, replace,
                worker, task.name, task.data, task.delay, parent_span_id,
            )
            pending[future] = task

        def retry_or_fail(task: _Task, status: str, error: Optional[str]) -> None:
            if task.attempt <= self.retries:
                report.retries_used += 1
                if self.obs.enabled:
                    self.obs.metrics.inc("batch_retries", reason=status)
                task.attempt += 1
                task.delay = min(
                    self.backoff * (2 ** (task.attempt - 2)), self.max_backoff
                )
                submit(task)
            else:
                done_out[task.key] = _Done(
                    status=status,
                    attempts=task.attempt,
                    seconds=self.timeout or 0.0,
                    error=error,
                )

        try:
            for task in tasks.values():
                submit(task)
            while pending:
                wait_for: Optional[float] = None
                if self.timeout is not None:
                    now = time.monotonic()
                    next_deadline = min(
                        task.deadline(self.timeout) for task in pending.values()
                    )
                    wait_for = max(0.0, next_deadline - now) + _WAIT_SLACK
                finished, _ = cf.wait(
                    set(pending), timeout=wait_for,
                    return_when=cf.FIRST_COMPLETED,
                )
                for future in finished:
                    task = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        summary, seconds = future.result()
                        done_out[task.key] = _Done(
                            status=STATUS_OK, summary=summary,
                            attempts=task.attempt, seconds=seconds,
                        )
                    else:
                        retry_or_fail(
                            task, STATUS_ERRORED,
                            f"{type(error).__name__}: {error}",
                        )
                if self.timeout is not None:
                    now = time.monotonic()
                    for future, task in list(pending.items()):
                        deadline = task.deadline(self.timeout)
                        if deadline is not None and now >= deadline:
                            # Cannot kill a running worker; abandon the
                            # future (its thread/process finishes on its
                            # own) and retry on a fresh slot.
                            future.cancel()
                            pending.pop(future)
                            if self.obs.enabled:
                                self.obs.metrics.inc("batch_timeouts")
                            retry_or_fail(
                                task, STATUS_TIMEOUT,
                                f"no result within {self.timeout:g}s "
                                f"(attempt {task.attempt})",
                            )
        finally:
            executor.shutdown(wait=False)
        return done_out

    # -- obs helpers -------------------------------------------------------

    def _count_cache(self, hit: bool) -> None:
        if self.obs.enabled:
            self.obs.metrics.inc(
                "batch_cache_lookups", result="hit" if hit else "miss"
            )

    def _record_item(self, name: str, outcome: _Done) -> None:
        if not self.obs.enabled:
            return
        with self.obs.tracer.span("batch.document", document=name) as span:
            span.set_tag("status", outcome.status)
            span.set_tag("attempts", outcome.attempts)
            span.set_tag("scan_seconds", outcome.seconds)
            if outcome.summary is not None:
                span.set_tag("malicious", outcome.summary.malicious)
        self.obs.metrics.inc("batch_docs", status=outcome.status)
        if outcome.status == STATUS_OK:
            self.obs.metrics.observe("batch_scan_seconds", outcome.seconds)


def scan_corpus(
    items: Iterable[BatchItem],
    jobs: int = 4,
    **kwargs: Any,
) -> BatchReport:
    """One-call convenience: ``scan_corpus([(name, bytes), ...])``."""
    return BatchScanner(jobs=jobs, **kwargs).scan_items(items)
