"""Unit tests for the admission controller (no scanning, no sockets)."""

import threading
import time

import pytest

from repro.serve.admission import (
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    RequestShed,
)

pytestmark = pytest.mark.serve


def controller(**overrides):
    defaults = dict(max_queue_depth=2, max_in_flight=1, deadline_seconds=5.0)
    defaults.update(overrides)
    return AdmissionController(AdmissionConfig(**defaults))


class TestAdmit:
    def test_happy_path_lifecycle(self):
        ctl = controller()
        ticket = ctl.admit()
        assert ctl.queue_depth == 0  # a worker slot is free for it
        ctl.acquire(ticket)
        assert ctl.queue_depth == 0
        assert ctl.in_flight == 1
        assert ticket.queue_wait >= 0.0
        ctl.release(ticket)
        assert ctl.in_flight == 0
        assert ctl.completed == 1

    def test_queue_full_sheds_with_429(self):
        """One worker slot and a queue of two: the fourth request is
        the first with nowhere to wait."""
        ctl = controller(max_queue_depth=2, max_in_flight=1)
        ctl.admit(), ctl.admit(), ctl.admit()
        assert ctl.queue_depth == 2
        with pytest.raises(RequestShed) as caught:
            ctl.admit()
        assert caught.value.reason == SHED_QUEUE_FULL
        assert caught.value.status == 429
        assert caught.value.retry_after > 0
        assert ctl.shed[SHED_QUEUE_FULL] == 1

    def test_no_queue_admits_a_request_per_free_slot(self):
        ctl = controller(max_queue_depth=0, max_in_flight=2)
        first, second = ctl.admit(), ctl.admit()
        assert ctl.queue_depth == 0
        with pytest.raises(RequestShed) as caught:
            ctl.admit()
        assert caught.value.reason == SHED_QUEUE_FULL
        ctl.acquire(first)
        ctl.acquire(second)
        assert ctl.in_flight == 2

    def test_burst_at_capacity_is_admitted_before_any_acquire(self):
        """A simultaneous burst of max_in_flight + max_queue_depth
        requests is admitted in full; only the one after it is shed."""
        ctl = controller(max_queue_depth=2, max_in_flight=2)
        tickets = [ctl.admit() for _ in range(4)]
        assert ctl.queue_depth == 2
        with pytest.raises(RequestShed):
            ctl.admit()
        ctl.acquire(tickets[0])
        ctl.acquire(tickets[1])
        assert (ctl.queue_depth, ctl.in_flight) == (2, 2)
        ctl.release(tickets[0])
        assert ctl.queue_depth == 1  # a slot is free for the third
        snap = ctl.snapshot()
        assert snap["peak_queue_depth"] == 2
        assert snap["shed"][SHED_QUEUE_FULL] == 1

    def test_draining_sheds_with_503(self):
        ctl = controller()
        ctl.start_drain()
        with pytest.raises(RequestShed) as caught:
            ctl.admit()
        assert caught.value.reason == SHED_DRAINING
        assert caught.value.status == 503

    def test_deadline_carried_on_ticket(self):
        ctl = controller(deadline_seconds=5.0)
        ticket = ctl.admit()
        assert ticket.deadline_at is not None
        assert 0.0 < ticket.remaining(time.monotonic()) <= 5.0
        ctl.release(ticket)

    def test_no_deadline_config(self):
        ctl = controller(deadline_seconds=None)
        ticket = ctl.admit()
        assert ticket.deadline_at is None
        assert ticket.remaining(time.monotonic()) is None
        ctl.release(ticket)


class TestAcquire:
    def test_queued_past_deadline_is_shed(self):
        ctl = controller(max_in_flight=1, deadline_seconds=0.05)
        holder = ctl.admit()
        ctl.acquire(holder)
        queued = ctl.admit()
        with pytest.raises(RequestShed) as caught:
            ctl.acquire(queued)
        assert caught.value.reason == SHED_DEADLINE
        assert caught.value.status == 503
        assert ctl.queue_depth == 0  # the shed request left the queue
        ctl.release(holder)
        ctl.release(queued)  # releasing a shed ticket is a no-op
        assert ctl.in_flight == 0
        assert ctl.completed == 1

    def test_blocked_acquire_proceeds_on_release(self):
        ctl = controller(max_in_flight=1, deadline_seconds=10.0)
        holder = ctl.admit()
        ctl.acquire(holder)
        queued = ctl.admit()
        acquired = threading.Event()

        def wait_for_slot():
            ctl.acquire(queued)
            acquired.set()

        thread = threading.Thread(target=wait_for_slot)
        thread.start()
        assert not acquired.wait(0.05)
        ctl.release(holder)
        assert acquired.wait(5.0)
        ctl.release(queued)
        thread.join()
        assert ctl.completed == 2

    def test_release_of_unacquired_ticket_frees_queue_slot(self):
        ctl = controller(max_queue_depth=1)
        ticket = ctl.admit()
        ctl.release(ticket)
        assert ctl.queue_depth == 0
        ctl.admit()  # slot is usable again


class TestDrainAndStats:
    def test_wait_idle_returns_immediately_when_idle(self):
        assert controller().wait_idle(timeout=0.1) is True

    def test_wait_idle_times_out_with_work_in_flight(self):
        ctl = controller()
        ticket = ctl.admit()
        ctl.acquire(ticket)
        assert ctl.wait_idle(timeout=0.05) is False
        ctl.release(ticket)
        assert ctl.wait_idle(timeout=1.0) is True

    def test_snapshot_counters_and_peaks(self):
        ctl = controller(max_queue_depth=4, max_in_flight=2)
        tickets = [ctl.admit() for _ in range(3)]
        ctl.acquire(tickets[0])
        ctl.acquire(tickets[1])
        snap = ctl.snapshot()
        assert snap["queue_depth"] == 1
        assert snap["in_flight"] == 2
        assert snap["peak_queue_depth"] == 1  # the third found both slots taken
        assert snap["peak_in_flight"] == 2
        assert snap["admitted"] == 3
        assert snap["draining"] is False
        for ticket in tickets:
            ctl.release(ticket)
        assert ctl.snapshot()["completed"] == 2  # third never acquired

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(deadline_seconds=0)
