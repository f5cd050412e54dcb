"""One session service: the scheduler core both executors share.

A garbled-circuit session is a fixed stream known before it runs, so
serving many of them is one policy whatever runs the protocol:

* **admission** -- ``max_concurrent`` slots plus a ``max_pending``
  queue; a submit past both, or any submit while draining, raises the
  typed :class:`~repro.faults.ServiceSaturated` carrying a
  ``retry_after_hint_s``;
* **promotion** -- queued sessions take free slots first in, first out,
  then sessions whose retry backoff has elapsed;
* **retries** -- a failed attempt is stopped and, while the ``retries``
  budget lasts, relaunched after exponential backoff;
* **drain** -- :meth:`SessionService.request_drain` (signal-handler
  safe) closes admissions and cancels the queue; attempts still running
  after ``drain_timeout_s`` are stopped and sealed.  The run loop's
  ``finally`` stops and seals whatever is left, even on the exceptional
  path;
* **accounting** -- every session seals into :class:`SessionStats`, a
  run into :class:`ServiceStats`, every transition into a
  :class:`SupervisorLog` event.

An executor only starts, advances and stops one attempt (the ``_start``
/ ``_wait`` / ``_poll`` / ``_stop`` hooks).  There are two:
:class:`SessionMultiplexer` steps a
:class:`~repro.gc.protocol.StreamedDriver` per running session per
pass, in this thread; :class:`~repro.serve.supervisor.Supervisor` runs
each session on a resident pair of party processes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from ..faults import FaultPlan, ProtocolFault, ServiceSaturated, SessionAborted
from ..gc.protocol import SessionResult, StreamedDriver, TwoPartySession

__all__ = [
    "SessionHandle",
    "SessionStats",
    "ServiceStats",
    "SupervisorLog",
    "SessionService",
    "SessionMultiplexer",
]

#: Environment variable naming the JSONL service event log; the CI
#: chaos lane points this at an artifact path so a failed run ships its
#: full supervision timeline.
SUPERVISOR_LOG_ENV = "REPRO_SUPERVISOR_LOG"


def _percentile(values: Sequence[float], pct: float) -> Optional[float]:
    vals = sorted(values)
    if not vals:
        return None
    k = (len(vals) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (k - lo)


@dataclass
class SessionStats:
    """Per-session service metrics, sealed when the session leaves."""

    session_id: str
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    first_level_s: Optional[float] = None
    streamed_levels: int = 0
    levels_per_s: float = 0.0
    #: Scheduler quanta: ``2 * levels + 2`` for a completed session.
    steps: int = 0
    recovery_events: int = 0
    fault_events: int = 0
    error: Optional[str] = None
    #: Launches this session took (0 if it never started).
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> Dict[str, object]:
        return {"ok": self.ok, **asdict(self)}


@dataclass
class ServiceStats:
    """Aggregate view over one service run."""

    sessions: List[SessionStats] = field(default_factory=list)
    rejected: int = 0
    wall_s: float = 0.0
    #: Session re-launches after a failed attempt.
    retries: int = 0
    #: Pairs forked to replace a retired pair, x 2, counted once per
    #: retry (a failed attempt always retires its pair): ``retries x 2``.
    worker_restarts: int = 0
    #: Drain ledger (``None`` when no drain was requested):
    #: ``{"requested", "clean", "cancelled_pending", "killed_in_flight",
    #: "drain_s"}``.
    drain: Optional[Dict[str, object]] = None

    @property
    def completed(self) -> int:
        return sum(1 for s in self.sessions if s.ok)

    @property
    def faulted(self) -> int:
        return sum(1 for s in self.sessions if not s.ok)

    @property
    def sessions_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        firsts = [
            s.first_level_s for s in self.sessions if s.first_level_s is not None
        ]
        waits = [s.queue_wait_s for s in self.sessions]
        rates = [s.levels_per_s for s in self.sessions if s.ok and s.levels_per_s]
        return {
            "sessions": len(self.sessions),
            "completed": self.completed,
            "faulted": self.faulted,
            "rejected": self.rejected,
            "wall_s": self.wall_s,
            "sessions_per_s": self.sessions_per_s,
            "levels_per_s_mean": (
                sum(rates) / len(rates) if rates else 0.0
            ),
            "first_level_p50_s": _percentile(firsts, 50.0),
            "first_level_p95_s": _percentile(firsts, 95.0),
            "queue_wait_p50_s": _percentile(waits, 50.0),
            "queue_wait_p95_s": _percentile(waits, 95.0),
            "recovery_events": sum(s.recovery_events for s in self.sessions),
            "fault_events": sum(s.fault_events for s in self.sessions),
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "drain": self.drain,
        }


class SupervisorLog:
    """Append-only service event ledger (in memory + optional JSONL).

    Every structural event (submit, launch, worker exit, deadline kill,
    retry, seal, drain) is recorded with a wall-clock timestamp; when
    ``path`` (or ``$REPRO_SUPERVISOR_LOG``) is set, each event is also
    appended to a JSONL file and flushed immediately, so a killed
    parent still leaves a usable timeline behind.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path if path is not None else os.environ.get(
            SUPERVISOR_LOG_ENV
        )
        self.events: List[Dict[str, object]] = []
        self._fh = open(self.path, "a", encoding="utf-8") if self.path else None

    def record(self, kind: str, **fields: object) -> None:
        event: Dict[str, object] = {"t": time.time(), "event": kind, **fields}
        self.events.append(event)
        if self._fh is not None:
            try:
                self._fh.write(json.dumps(event) + "\n")
                self._fh.flush()
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class SessionHandle:
    """Caller's view of one admitted session across its attempts.

    ``job`` is what the executor runs (the multiplexer's
    :class:`~repro.gc.protocol.StreamedDriver`, the supervisor's
    :class:`~repro.serve.supervisor.SessionSpec`), ``plan`` its fault
    plan, and ``attempt`` the executor's state for the live attempt.
    """

    def __init__(
        self, session_id: str, job: object, plan: Optional[FaultPlan]
    ) -> None:
        self.session_id = session_id
        self.job = job
        self.plan = plan
        self.stats = SessionStats(session_id=session_id)
        self.result: Optional[SessionResult] = None
        self.error: Optional[BaseException] = None
        self.attempt: object = None
        self.next_eligible = 0.0  # backoff gate for the next launch
        self._submitted = time.perf_counter()
        self._started: Optional[float] = None


class SessionService:
    """Admit, queue, promote, retry, drain and account sessions.

    Single-threaded: one run loop owns every attempt.  ``request_drain``
    is the only method safe to call from another thread or a signal
    handler (it sets flags the loop observes).
    """

    #: Prefix of generated session ids.
    id_prefix = "s"
    #: Worker processes a retried attempt restarts.
    workers_per_attempt = 0

    def __init__(
        self,
        *,
        max_concurrent: int,
        max_pending: int,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        drain_timeout_s: float = 10.0,
        log: Optional[SupervisorLog] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_pending = max_pending
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.drain_timeout_s = drain_timeout_s
        self.log = log if log is not None else SupervisorLog()
        self._pending: Deque[SessionHandle] = deque()
        self._running: List[SessionHandle] = []
        self._backoff: List[SessionHandle] = []
        self._finished: List[SessionHandle] = []
        self._admitted = 0
        self._rejected = 0
        self._retries = 0
        # Drain state (set by request_drain, possibly from a signal
        # handler; everything else only the run loop touches).
        self._draining = False
        self._drain_requested_at = 0.0
        self._drain_cancelled = 0
        self._drain_killed = 0

    # -- executor hooks ------------------------------------------------

    def _start(self, handle: SessionHandle, now: float) -> Dict[str, object]:
        """Launch an attempt; returns extra fields of its ``launched`` event."""
        return {}

    def _wait(self) -> None:
        """Wait briefly for progress before the running attempts are polled."""

    def _poll(self, handle: SessionHandle, now: float) -> object:
        """Advance a running attempt: ``None`` while it runs, else its
        :class:`~repro.gc.protocol.SessionResult` or its
        :class:`~repro.faults.ProtocolFault`."""
        raise NotImplementedError

    def _stop(self, handle: SessionHandle) -> None:
        """Release an attempt's resources; a no-op when none are held."""

    # -- admission -----------------------------------------------------

    def _check_capacity(self) -> None:
        """Raise :class:`ServiceSaturated` unless a session may be admitted.

        Sessions waiting out a retry backoff count as queued: they hold
        capacity and will take a slot.
        """
        if self._draining:
            self._rejected += 1
            raise ServiceSaturated("service is draining: admissions are closed")
        queued = len(self._pending) + len(self._backoff)
        if len(self._running) + queued >= self.max_concurrent + self.max_pending:
            self._rejected += 1
            raise ServiceSaturated(
                f"service saturated: {len(self._running)} running + "
                f"{queued} queued against capacity "
                f"{self.max_concurrent} slots + {self.max_pending} queue",
                retry_after_hint_s=self.saturation_hint_s(),
            )

    def _enqueue(
        self, job: object, plan: Optional[FaultPlan], session_id: Optional[str]
    ) -> SessionHandle:
        self._admitted += 1
        handle = SessionHandle(
            session_id or f"{self.id_prefix}{self._admitted}", job, plan
        )
        self._pending.append(handle)
        self.log.record("submitted", session=handle.session_id)
        return handle

    def saturation_hint_s(self) -> Optional[float]:
        """Estimated seconds until a rejected caller should retry.

        The p50 ``run_s`` of sessions sealed healthy so far, scaled by
        the queue depth (backoff included) relative to the slot count;
        ``None`` with no completed history (no honest estimate).
        """
        runs = [
            h.stats.run_s
            for h in self._finished
            if h.stats.ok and h.stats.run_s > 0
        ]
        p50 = _percentile(runs, 50.0)
        if p50 is None:
            return None
        queued = len(self._pending) + len(self._backoff)
        return p50 * (1.0 + queued / self.max_concurrent)

    def request_drain(self) -> None:
        """Stop admissions and promotions; let in-flight work finish.

        Safe from signal handlers and other threads: sets flags only.
        The run loop cancels the queue, refuses new retries, and after
        ``drain_timeout_s`` stops whatever is still running.
        """
        if self._draining:
            return
        self._drain_requested_at = time.perf_counter()
        self._draining = True
        self.log.record("drain_requested")

    @contextmanager
    def signals_handled(self):
        """Context manager installing SIGTERM/SIGINT -> drain handlers."""
        previous = {
            signum: signal.signal(signum, lambda *_: self.request_drain())
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            yield self
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # -- run loop ------------------------------------------------------

    def run_until_complete(self) -> ServiceStats:
        """Drive every admitted session to a sealed result or fault."""
        t0 = time.perf_counter()
        try:
            while True:
                self._promote(time.perf_counter())
                if not (self._running or self._pending or self._backoff):
                    break
                self._wait()
                now = time.perf_counter()
                for handle in list(self._running):
                    outcome = self._poll(handle, now)
                    if outcome is None:
                        continue
                    self._running.remove(handle)
                    self._stop(handle)
                    if isinstance(outcome, ProtocolFault):
                        self._fail(handle, outcome, now)
                    else:
                        handle.result = outcome
                        self._seal(handle)
                if self._draining:
                    self._check_drain()
        finally:
            self._reap_all()
            self.log.record(
                "run_finished",
                sessions=len(self._finished),
                retries=self._retries,
            )
            self.log.close()
        drain: Optional[Dict[str, object]] = None
        if self._draining:
            drain = {
                "requested": True,
                "clean": self._drain_killed == 0,
                "cancelled_pending": self._drain_cancelled,
                "killed_in_flight": self._drain_killed,
                "drain_s": time.perf_counter() - self._drain_requested_at,
            }
        return ServiceStats(
            sessions=[h.stats for h in self._finished],
            rejected=self._rejected,
            wall_s=time.perf_counter() - t0,
            retries=self._retries,
            worker_restarts=self._retries * self.workers_per_attempt,
            drain=drain,
        )

    @property
    def sessions(self) -> List[SessionHandle]:
        """Sealed sessions, in completion order."""
        return list(self._finished)

    # -- scheduling ----------------------------------------------------

    def _promote(self, now: float) -> None:
        if self._draining:
            # Cancel everything not yet launched; retries of in-flight
            # sessions stay eligible (they are in-flight work).
            self._drain_cancelled += len(self._pending)
            self._abort(
                self._pending, "cancelled: the service drained before it started"
            )
            self._pending.clear()
        while self._pending and len(self._running) < self.max_concurrent:
            self._launch(self._pending.popleft(), now)
        for handle in list(self._backoff):
            if len(self._running) >= self.max_concurrent:
                break
            if now >= handle.next_eligible:
                self._backoff.remove(handle)
                self._launch(handle, now)

    def _launch(self, handle: SessionHandle, now: float) -> None:
        stats = handle.stats
        stats.attempts += 1
        if handle._started is None:
            handle._started = now
            stats.queue_wait_s = now - handle._submitted
        else:
            self._retries += 1
        fields = self._start(handle, now)
        self._running.append(handle)
        self.log.record(
            "launched", session=handle.session_id, attempt=stats.attempts,
            **fields,
        )

    def _fail(self, handle: SessionHandle, fault: ProtocolFault, now: float) -> None:
        attempts = handle.stats.attempts
        if attempts > self.retries or self._draining:
            self._seal(handle, fault)
            return
        backoff = self.backoff_base_s * (2.0 ** (attempts - 1))
        handle.next_eligible = now + backoff
        self._backoff.append(handle)
        self.log.record(
            "retry_scheduled",
            session=handle.session_id,
            attempt=attempts,
            error=type(fault).__name__,
            backoff_s=backoff,
        )

    def _seal(
        self, handle: SessionHandle, error: Optional[BaseException] = None
    ) -> None:
        """Seal a session: its result if it has one, else ``error``."""
        sealed = time.perf_counter()
        stats = handle.stats
        if handle._started is None:
            stats.queue_wait_s = sealed - handle._submitted
        else:
            stats.run_s = sealed - handle._started
        result = handle.result
        if result is not None:
            stats.first_level_s = result.first_level_s
            stats.streamed_levels = result.streamed_levels
            stats.recovery_events = len(result.recovery_events)
        else:
            handle.error = error
            stats.error = type(error).__name__
        stats.fault_events = (
            len(handle.plan.injected) if handle.plan is not None else 0
        )
        if stats.run_s > 0 and stats.streamed_levels:
            stats.levels_per_s = stats.streamed_levels / stats.run_s
        self._finished.append(handle)
        self.log.record(
            "sealed", session=handle.session_id, ok=stats.ok,
            attempts=stats.attempts,
            **(
                {"run_s": stats.run_s} if stats.ok
                else {"error": stats.error, "detail": str(error)}
            ),
        )

    def _check_drain(self) -> None:
        if time.perf_counter() - self._drain_requested_at <= self.drain_timeout_s:
            return
        for handle in self._running:
            self._drain_killed += 1
            self.log.record(
                "drain_kill",
                session=handle.session_id,
                attempt=handle.stats.attempts,
            )
            self._abort(
                [handle], f"killed at drain timeout ({self.drain_timeout_s:g}s)"
            )
        self._drain_cancelled += len(self._backoff)
        self._abort(self._backoff, "retry cancelled at drain timeout")
        self._running, self._backoff = [], []

    def _reap_all(self) -> None:
        """Unconditional cleanup: no attempt outlives the run loop."""
        leftovers = self._running + self._backoff + list(self._pending)
        self._running, self._backoff = [], []
        self._pending.clear()
        self._abort(leftovers, "torn down with the service")

    def _abort(self, handles: Sequence[SessionHandle], why: str) -> None:
        for handle in handles:
            self._stop(handle)
            self._seal(handle, SessionAborted(f"session {handle.session_id} {why}"))


class SessionMultiplexer(SessionService):
    """In-thread executor: N concurrent streamed sessions, one scheduler.

    Each admitted session is a :class:`~repro.gc.protocol.StreamedDriver`
    state machine; every scheduler pass gives each running session one
    :meth:`~repro.gc.protocol.StreamedDriver.step` quantum.  The loop is
    deliberately cooperative and single-threaded:

    * each driver's fault plan and recovery ledger live on its own
      framed pair, so interleaving N sessions never mixes their plans
      or ledgers;
    * chaos determinism survives -- each session's wire faults key off
      its own plan and its own frame sequence numbers, so a faulted
      session reproduces the same event signature whether it runs solo
      or packed next to healthy neighbours.

    A driver cannot be restarted, so the retry budget is 0: a fault is
    final.  ``max_inflight_levels`` is each driver's window of
    garbled-but-unevaluated AND levels (per-session backpressure).
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 4,
        max_pending: int = 8,
        max_inflight_levels: int = 1,
    ) -> None:
        if max_inflight_levels < 1:
            raise ValueError("max_inflight_levels must be >= 1")
        super().__init__(max_concurrent=max_concurrent, max_pending=max_pending)
        self.max_inflight_levels = max_inflight_levels

    def submit(
        self,
        session: TwoPartySession,
        garbler_bits: Sequence[int],
        evaluator_bits: Sequence[int],
        *,
        session_id: Optional[str] = None,
        max_inflight_levels: Optional[int] = None,
    ) -> SessionHandle:
        """Admit one session (or raise :class:`ServiceSaturated`).

        Wrong input arity, a bit other than 0 / 1, or a fault kind
        outside ``FRAME_FAULTS``
        (:class:`~repro.faults.FaultKindUnsupported`), raises
        ``ValueError`` without admitting it.
        """
        self._check_capacity()
        driver = StreamedDriver(
            session,
            garbler_bits,
            evaluator_bits,
            max_inflight_levels=(
                self.max_inflight_levels
                if max_inflight_levels is None
                else max_inflight_levels
            ),
        )
        return self._enqueue(driver, driver.plan, session_id)

    def _poll(self, handle: SessionHandle, now: float) -> object:
        driver = handle.job
        try:
            finished = driver.step()
        except ProtocolFault as exc:
            # Seal what the session got through before it faulted.
            stats = handle.stats
            stats.first_level_s = driver.first_level_s
            stats.streamed_levels = driver.streamed_levels
            stats.recovery_events = len(driver.log)
            return exc
        handle.stats.steps += 1
        return driver.result if finished else None
