"""The session service core, driven by a stub executor (no processes).

``SessionService`` owns admission, the FIFO queue, promotion, retry
backoff, the ``retry_after_hint_s`` contract, drain and sealing; the
two real executors only start, advance and stop attempts.  A stub
executor whose attempts follow a script pins that policy exactly, for
the multiplexer's (retry budget 0) and the supervisor's (retries with
backoff).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.faults import ServiceSaturated, SessionAborted, WorkerCrashed
from repro.serve import SessionService


def _ok(levels=3):
    """What a finished attempt returns (the fields the core seals)."""
    return SimpleNamespace(
        first_level_s=0.001, streamed_levels=levels, recovery_events=[]
    )


class StubService(SessionService):
    """Each job is a list of attempts; each attempt a list of poll
    outcomes (``None`` = still running, a result, a fault, or a callable
    run at that poll that returns one)."""

    workers_per_attempt = 2

    def __init__(self, **kwargs):
        kwargs.setdefault("max_concurrent", 1)
        kwargs.setdefault("max_pending", 8)
        super().__init__(**kwargs)
        self.started = []
        self.stopped = []

    def submit(self, *attempts, session_id=None):
        self._check_capacity()
        return self._enqueue(list(attempts), None, session_id)

    def _start(self, handle, now):
        self.started.append(handle.session_id)
        handle.attempt = iter(handle.job[handle.stats.attempts - 1])
        return {"stub": True}

    def _poll(self, handle, now):
        outcome = next(handle.attempt)
        return outcome(self) if callable(outcome) else outcome

    def _stop(self, handle):
        if handle.attempt is not None:
            self.stopped.append(handle.session_id)
            handle.attempt = None


def _kinds(service):
    return [event["event"] for event in service.log.events]


class TestAdmission:
    def test_capacity_rejects_typed_without_history(self):
        service = StubService(max_concurrent=1, max_pending=1)
        service.submit([_ok()])
        service.submit([_ok()])
        with pytest.raises(ServiceSaturated, match="0 running \\+ 2 queued") as info:
            service.submit([_ok()])
        assert info.value.retry_after_hint_s is None
        stats = service.run_until_complete()
        assert stats.completed == 2 and stats.rejected == 1
        # Generated ids count admissions only.
        assert [s.session_id for s in stats.sessions] == ["s1", "s2"]

    def test_fifo_promotion_into_the_slots(self):
        service = StubService(max_concurrent=2)
        handles = [
            service.submit([None, None, _ok()], session_id=f"q{i}")
            for i in range(5)
        ]
        service.run_until_complete()
        assert service.started == [f"q{i}" for i in range(5)]
        assert [h.session_id for h in service.sessions] == service.started
        waits = [h.stats.queue_wait_s for h in handles]
        assert waits[2] > waits[1] and waits[4] > waits[3]

    def test_hint_and_message_count_backoff_as_queued(self):
        service = StubService(
            max_concurrent=1, max_pending=1, retries=1, backoff_base_s=0.01
        )
        service.submit([_ok()])
        service.run_until_complete()
        p50 = service.saturation_hint_s()
        assert p50 > 0
        probed = []

        def probe(svc):
            # "flaky" waits out its backoff while "busy" holds the slot.
            with pytest.raises(ServiceSaturated) as info:
                svc.submit([_ok()])
            probed.append(info.value)
            return _ok()

        service.submit([WorkerCrashed("first attempt")], [_ok()], session_id="flaky")
        service.submit([probe], session_id="busy")
        stats = service.run_until_complete()
        (rejection,) = probed
        assert "1 running + 1 queued" in str(rejection)
        assert rejection.retry_after_hint_s == pytest.approx(p50 * 2.0)
        assert stats.completed == 3 and stats.retries == 1
        assert service.started == ["s1", "flaky", "busy", "flaky"]


class TestSealing:
    def test_budget_zero_seals_the_first_fault(self):
        """The multiplexer's policy: a fault is final."""
        service = StubService()
        handle = service.submit([None, WorkerCrashed("boom")], [_ok()])
        stats = service.run_until_complete()
        assert isinstance(handle.error, WorkerCrashed)
        assert handle.result is None
        assert handle.stats.error == "WorkerCrashed"
        assert handle.stats.attempts == 1
        assert handle.stats.run_s > 0
        assert stats.retries == 0 and stats.worker_restarts == 0
        assert service.stopped == [handle.session_id]
        assert _kinds(service) == ["submitted", "launched", "sealed", "run_finished"]

    def test_retries_then_success(self):
        """The supervisor's policy: retry with backoff, then seal."""
        service = StubService(retries=2, backoff_base_s=0.001)
        handle = service.submit(
            [WorkerCrashed("a1")], [WorkerCrashed("a2")], [None, _ok(levels=5)]
        )
        stats = service.run_until_complete()
        assert handle.error is None and handle.stats.ok
        assert handle.stats.attempts == 3
        assert handle.stats.streamed_levels == 5
        assert handle.stats.levels_per_s > 0
        assert stats.retries == 2 and stats.worker_restarts == 4
        assert _kinds(service) == [
            "submitted",
            "launched", "retry_scheduled",
            "launched", "retry_scheduled",
            "launched", "sealed",
            "run_finished",
        ]
        backoffs = [
            e["backoff_s"] for e in service.log.events if e["event"] == "retry_scheduled"
        ]
        assert backoffs == [0.001, 0.002]

    def test_exhausted_budget_seals_the_last_fault(self):
        service = StubService(retries=1, backoff_base_s=0.001)
        handle = service.submit([WorkerCrashed("a1")], [SessionAborted("a2")])
        service.run_until_complete()
        assert isinstance(handle.error, SessionAborted)
        assert handle.stats.attempts == 2

    def test_run_loop_reaps_on_the_exceptional_path(self):
        def explode(svc):
            raise RuntimeError("executor bug")

        service = StubService(max_concurrent=1)
        running = service.submit([explode])
        queued = service.submit([_ok()])
        with pytest.raises(RuntimeError):
            service.run_until_complete()
        assert service.stopped == [running.session_id]
        for handle in (running, queued):
            assert isinstance(handle.error, SessionAborted)
        assert queued.stats.attempts == 0 and queued.stats.queue_wait_s > 0
        assert _kinds(service)[-1] == "run_finished"


class TestDrain:
    def test_drain_cancels_the_queue_and_finishes_in_flight(self):
        def drain_now(svc):
            svc.request_drain()
            return None

        service = StubService(max_concurrent=1)
        first = service.submit([drain_now, _ok()])
        queued = [service.submit([_ok()]) for _ in range(3)]
        stats = service.run_until_complete()
        assert first.stats.ok
        for handle in queued:
            assert isinstance(handle.error, SessionAborted)
            assert handle.stats.attempts == 0
            # The wait that happened: submit to the drain's seal.
            assert handle.stats.queue_wait_s > 0
            assert handle.stats.run_s == 0.0
        assert stats.drain["requested"] and stats.drain["clean"]
        assert stats.drain["cancelled_pending"] == 3
        assert stats.drain["killed_in_flight"] == 0
        assert stats.summary()["queue_wait_p50_s"] > 0
        with pytest.raises(ServiceSaturated, match="draining"):
            service.submit([_ok()])
        assert service.started == [first.session_id]

    def test_drain_timeout_stops_running_and_cancels_backoff(self):
        def drain_now(svc):
            svc.request_drain()
            return None

        service = StubService(
            max_concurrent=2, retries=1, backoff_base_s=60.0, drain_timeout_s=0.0
        )
        retrying = service.submit([WorkerCrashed("a1")], [_ok()])
        stuck = service.submit([drain_now] + [None] * 1000)
        stats = service.run_until_complete()
        assert isinstance(stuck.error, SessionAborted)
        assert isinstance(retrying.error, SessionAborted)
        assert "drain timeout" in str(stuck.error)
        assert stats.drain["killed_in_flight"] == 1
        assert stats.drain["cancelled_pending"] == 1
        assert not stats.drain["clean"]
        assert sorted(service.stopped) == sorted([stuck.session_id, retrying.session_id])
        assert "drain_kill" in _kinds(service)
