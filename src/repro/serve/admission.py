"""Admission control for the scan service (``repro.serve``).

A scan is expensive (two full detection phases), so a service that
admits every request melts the moment traffic exceeds capacity — the
queue grows without bound, every request times out, and the operator
learns nothing.  The admission controller makes overload a *first-class
response* instead:

* a **bounded queue**: at most ``max_queue_depth`` admitted requests
  may be waiting for a worker slot, on top of the ``max_in_flight``
  that hold or are about to take one; the next request is shed
  immediately with HTTP 429 and a ``Retry-After`` hint;
* **max in-flight**: at most ``max_in_flight`` requests occupy worker
  slots at once (normally sized to the scanner's worker count);
* a **per-request deadline** covering queue wait *and* scan: a request
  that cannot start before its deadline is shed (503) rather than
  scanned pointlessly, and the remaining time caps the in-scan
  resource budget (see ``repro.limits.cap_deadline``);
* **draining**: once :meth:`AdmissionController.start_drain` is called
  (SIGTERM), new requests are shed with 503 while admitted ones finish.

The controller is pure bookkeeping — no I/O, no scanning — so it is
unit-testable without a server and reusable by both the synchronous
``POST /scan`` path and the async job runner.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Shed reasons (stable strings: they appear in metrics and responses).
SHED_QUEUE_FULL = "queue-full"
SHED_DRAINING = "draining"
SHED_DEADLINE = "queue-deadline"
#: Async submission refused: too many jobs still queued/running.
SHED_ASYNC_BACKLOG = "async-backlog"

#: Reason -> HTTP status the front-end maps the shed to.
SHED_STATUS = {
    SHED_QUEUE_FULL: 429,
    SHED_DRAINING: 503,
    SHED_DEADLINE: 503,
    SHED_ASYNC_BACKLOG: 429,
}


class RequestShed(Exception):
    """The admission controller refused (or gave up on) a request."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(f"request shed: {reason} (retry after {retry_after:g}s)")
        self.reason = reason
        self.retry_after = retry_after

    @property
    def status(self) -> int:
        return SHED_STATUS.get(self.reason, 503)


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for one :class:`AdmissionController`.

    Defaults suit the test corpus (sub-second scans); production
    deployments size ``max_in_flight`` to the worker count and
    ``max_queue_depth`` to how much latency they are willing to trade
    for throughput (see ``docs/SERVICE.md``).
    """

    #: Admitted requests allowed to wait for a worker slot.
    max_queue_depth: int = 32
    #: Requests allowed to occupy worker slots concurrently.
    max_in_flight: int = 4
    #: Wall-clock seconds one request gets, queue wait included.
    deadline_seconds: Optional[float] = 30.0
    #: ``Retry-After`` hint on shed responses.
    retry_after_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")


@dataclass
class Ticket:
    """One admitted request's bookkeeping handle."""

    admitted_at: float
    #: Monotonic instant by which the whole request must finish
    #: (``None`` = no deadline).
    deadline_at: Optional[float]
    #: Seconds spent waiting for a worker slot (set by ``acquire``).
    queue_wait: float = 0.0
    _state: str = field(default="queued", repr=False)

    def remaining(self, now: float) -> Optional[float]:
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - now)


class AdmissionController:
    """Bounded-queue + max-in-flight gate in front of the worker pool.

    Thread-safe; every public method may be called from any request
    thread.  The lifecycle for one request is::

        ticket = controller.admit()          # may raise RequestShed (429/503)
        try:
            controller.acquire(ticket)       # may raise RequestShed (503)
            ... scan, bounded by ticket.deadline_at ...
        finally:
            controller.release(ticket)
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self._clock = clock
        self._cond = threading.Condition()
        self._queued = 0
        self._in_flight = 0
        self._draining = False
        # Counters (all guarded by the condition's lock).
        self.admitted = 0
        self.completed = 0
        self.shed: Dict[str, int] = {
            SHED_QUEUE_FULL: 0, SHED_DRAINING: 0, SHED_DEADLINE: 0,
        }
        self.peak_queue_depth = 0
        self.peak_in_flight = 0

    # -- request lifecycle -------------------------------------------------

    def admit(self) -> Ticket:
        """Admit one request into the bounded queue or shed it."""
        with self._cond:
            if self._draining:
                self.shed[SHED_DRAINING] += 1
                raise RequestShed(
                    SHED_DRAINING, self.config.retry_after_seconds
                )
            config = self.config
            if self._queued + self._in_flight >= config.max_in_flight + config.max_queue_depth:
                self.shed[SHED_QUEUE_FULL] += 1
                raise RequestShed(
                    SHED_QUEUE_FULL, config.retry_after_seconds
                )
            self._queued += 1
            self.admitted += 1
            self.peak_queue_depth = max(self.peak_queue_depth, self._waiting())
            now = self._clock()
            deadline = config.deadline_seconds
            return Ticket(
                admitted_at=now,
                deadline_at=None if deadline is None else now + deadline,
            )

    def acquire(self, ticket: Ticket) -> None:
        """Block until a worker slot frees up (or the deadline passes).

        Raises :class:`RequestShed` (``queue-deadline``) when the
        request's deadline expires while still queued — scanning it
        anyway could only produce a late answer nobody is waiting for.
        """
        with self._cond:
            while self._in_flight >= self.config.max_in_flight:
                timeout = ticket.remaining(self._clock())
                if timeout is not None and timeout <= 0.0:
                    self._queued -= 1
                    ticket._state = "shed"
                    self.shed[SHED_DEADLINE] += 1
                    self._cond.notify_all()
                    raise RequestShed(
                        SHED_DEADLINE, self.config.retry_after_seconds
                    )
                self._cond.wait(timeout)
            self._queued -= 1
            self._in_flight += 1
            ticket._state = "in-flight"
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            ticket.queue_wait = self._clock() - ticket.admitted_at

    def record_shed(self, reason: str) -> None:
        """Count a shed decided outside the controller (e.g. the async
        submission backlog cap) so ``/metrics`` sees every shed."""
        with self._cond:
            self.shed[reason] = self.shed.get(reason, 0) + 1

    def release(self, ticket: Ticket) -> None:
        """Return the request's slot; safe to call exactly once per ticket."""
        with self._cond:
            if ticket._state == "in-flight":
                self._in_flight -= 1
                self.completed += 1
            elif ticket._state == "queued":
                # Admitted but never acquired (caller bailed early).
                self._queued -= 1
            ticket._state = "released"
            self._cond.notify_all()

    # -- drain / shutdown --------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; already-admitted requests keep running."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is queued or in flight (True) or
        ``timeout`` seconds pass (False)."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self._queued or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    # -- introspection -----------------------------------------------------

    def _waiting(self) -> int:
        """Admitted requests with no free worker slot to take (lock held)."""
        return max(0, self._queued - (self.config.max_in_flight - self._in_flight))

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a worker slot."""
        with self._cond:
            return self._waiting()

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    def snapshot(self) -> Dict[str, Any]:
        """Gauges + counters for ``/metrics`` and ``/healthz``."""
        with self._cond:
            return {
                "queue_depth": self._waiting(),
                "in_flight": self._in_flight,
                "max_queue_depth": self.config.max_queue_depth,
                "max_in_flight": self.config.max_in_flight,
                "deadline_seconds": self.config.deadline_seconds,
                "draining": self._draining,
                "admitted": self.admitted,
                "completed": self.completed,
                "shed": dict(self.shed),
                "peak_queue_depth": self.peak_queue_depth,
                "peak_in_flight": self.peak_in_flight,
            }
