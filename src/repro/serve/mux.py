"""Cooperative multiplexer for concurrent streamed GC sessions.

One process, one scheduler, N sessions: each admitted session is a
:class:`~repro.gc.protocol.StreamedDriver` state machine, and the
multiplexer round-robins one :meth:`~repro.gc.protocol.StreamedDriver.step`
quantum per scheduler pass across every running session.

The scheduler is deliberately cooperative and single-threaded:

* the fault-injection install stack is a plain module-level list, and
  every driver step installs/pops its own ``(plan, log)`` scope, so
  interleaving N sessions never mixes their plans or ledgers;
* chaos determinism survives -- each session's wire faults key off its
  own plan and its own frame sequence numbers, so a faulted session
  reproduces the same event signature whether it runs solo or packed
  next to healthy neighbours.

Backpressure is two-level: admission control rejects ``submit`` with the
typed :class:`~repro.faults.ServiceSaturated` once both the concurrency
slots and the pending queue are full, and each driver's
``max_inflight_levels`` window bounds how many garbled-but-unevaluated
AND levels may sit on its wire.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from ..faults import ProtocolFault, ServiceSaturated
from ..gc.channel import FramedPair
from ..gc.protocol import SessionResult, StreamedDriver, TwoPartySession
from .sockets import close_framed_pair

__all__ = [
    "SessionHandle",
    "SessionStats",
    "ServiceStats",
    "SessionMultiplexer",
]


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
    steps: int = 0
    recovery_events: int = 0
    fault_events: int = 0
    error: Optional[str] = None
    #: Launches this session took (in-process sessions always run once;
    #: the out-of-process supervisor retries under a bounded budget).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "ok": self.ok,
            "error": self.error,
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
            "first_level_s": self.first_level_s,
            "streamed_levels": self.streamed_levels,
            "levels_per_s": self.levels_per_s,
            "steps": self.steps,
            "recovery_events": self.recovery_events,
            "fault_events": self.fault_events,
            "attempts": self.attempts,
        }


@dataclass
class ServiceStats:
    """Aggregate view over one multiplexer run."""

    sessions: List[SessionStats] = field(default_factory=list)
    rejected: int = 0
    wall_s: float = 0.0
    #: Session re-launches after a failed attempt (process transport).
    retries: int = 0
    #: Party worker processes started beyond the first pair per session.
    worker_restarts: int = 0
    #: Drain ledger from a supervised run (``None`` when no drain was
    #: requested): ``{"requested", "clean", "cancelled_pending",
    #: "killed_in_flight", "drain_s"}``.
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


class SessionHandle:
    """Caller's view of one admitted session."""

    def __init__(self, session_id: str, driver: StreamedDriver) -> None:
        self.session_id = session_id
        self.driver = driver
        self.result: Optional[SessionResult] = None
        self.error: Optional[BaseException] = None
        self.stats = SessionStats(session_id=session_id)
        self._submitted = time.perf_counter()
        self._started: Optional[float] = None
        self._finished: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None


class SessionMultiplexer:
    """Admit, schedule and account N concurrent streamed sessions.

    ``max_concurrent`` bounds simultaneously *running* drivers;
    ``max_pending`` bounds the admission queue behind them.  A
    ``submit`` past both raises :class:`ServiceSaturated` -- the caller
    sheds load instead of the service growing unbounded state.
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 4,
        max_pending: int = 8,
        max_inflight_levels: int = 1,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if max_inflight_levels < 1:
            raise ValueError("max_inflight_levels must be >= 1")
        self.max_concurrent = max_concurrent
        self.max_pending = max_pending
        self.max_inflight_levels = max_inflight_levels
        self._pending: Deque[SessionHandle] = deque()
        self._active: List[SessionHandle] = []
        self._finished: List[SessionHandle] = []
        self._admitted = 0
        self._rejected = 0

    # -- admission -----------------------------------------------------

    def submit(
        self,
        session: TwoPartySession,
        garbler_bits: Sequence[int],
        evaluator_bits: Sequence[int],
        *,
        session_id: Optional[str] = None,
        pair: Optional[FramedPair] = None,
        max_inflight_levels: Optional[int] = None,
    ) -> SessionHandle:
        """Admit one session (or raise :class:`ServiceSaturated`).

        ``pair`` lets the caller supply a pre-built transport (e.g. a
        socket-backed :func:`~repro.serve.make_socket_framed_pair`);
        otherwise the driver builds the in-memory framed pair from the
        session's own fault spec.

        When saturated, the raised :class:`ServiceSaturated` carries
        ``retry_after_hint_s``: the p50 session time observed so far,
        scaled by how deep the pending queue is -- roughly when the
        next slot should free up.  It is ``None`` until at least one
        session has completed (no history, no honest estimate).
        """
        outstanding = len(self._active) + len(self._pending)
        if outstanding >= self.max_concurrent + self.max_pending:
            self._rejected += 1
            raise ServiceSaturated(
                f"service saturated: {len(self._active)} running + "
                f"{len(self._pending)} queued against capacity "
                f"{self.max_concurrent} slots + {self.max_pending} queue",
                retry_after_hint_s=self.saturation_hint_s(),
            )
        window = (
            self.max_inflight_levels
            if max_inflight_levels is None
            else max_inflight_levels
        )
        driver = StreamedDriver(
            session,
            garbler_bits,
            evaluator_bits,
            max_inflight_levels=window,
            pair=pair,
        )
        self._admitted += 1
        handle = SessionHandle(session_id or f"s{self._admitted}", driver)
        self._pending.append(handle)
        return handle

    def saturation_hint_s(self) -> Optional[float]:
        """Estimated seconds until a rejected caller should retry.

        Derived from the p50 ``run_s`` of sessions sealed healthy so
        far, scaled by current queue depth relative to the slot count;
        ``None`` with no completed history.
        """
        runs = [
            h.stats.run_s
            for h in self._finished
            if h.stats.ok and h.stats.run_s > 0
        ]
        p50 = _percentile(runs, 50.0)
        if p50 is None:
            return None
        return p50 * (1.0 + len(self._pending) / self.max_concurrent)

    # -- scheduling ----------------------------------------------------

    def _promote(self) -> None:
        while self._pending and len(self._active) < self.max_concurrent:
            handle = self._pending.popleft()
            handle._started = time.perf_counter()
            handle.stats.queue_wait_s = handle._started - handle._submitted
            self._active.append(handle)

    def step(self) -> bool:
        """One scheduler pass: every running session gets one quantum.

        Returns ``True`` while work remains.  A session whose step
        raises a typed fault is sealed with the error recorded; its
        neighbours are untouched (each step runs under that session's
        own fault-install scope).
        """
        self._promote()
        for handle in list(self._active):
            try:
                finished = handle.driver.step()
            except ProtocolFault as exc:
                handle.error = exc
                self._seal(handle)
                continue
            handle.stats.steps += 1
            if finished:
                handle.result = handle.driver.result
                self._seal(handle)
        self._active = [h for h in self._active if not h.done]
        self._promote()
        return bool(self._active or self._pending)

    def run_until_complete(self) -> ServiceStats:
        """Drive every admitted session to completion or fault."""
        t0 = time.perf_counter()
        while self.step():
            pass
        return self.service_stats(wall_s=time.perf_counter() - t0)

    # -- accounting ----------------------------------------------------

    def _seal(self, handle: SessionHandle) -> None:
        handle._finished = time.perf_counter()
        driver = handle.driver
        stats = handle.stats
        started = handle._started if handle._started is not None else handle._finished
        stats.run_s = handle._finished - started
        stats.first_level_s = driver.first_level_s
        stats.streamed_levels = driver.streamed_levels
        stats.recovery_events = len(driver.log)
        stats.fault_events = (
            len(driver.plan.injected) if driver.plan is not None else 0
        )
        stats.error = (
            type(handle.error).__name__ if handle.error is not None else None
        )
        if stats.run_s > 0 and stats.streamed_levels:
            stats.levels_per_s = stats.streamed_levels / stats.run_s
        close_framed_pair(driver.pair)
        self._finished.append(handle)

    def service_stats(self, wall_s: float = 0.0) -> ServiceStats:
        return ServiceStats(
            sessions=[h.stats for h in self._finished],
            rejected=self._rejected,
            wall_s=wall_s,
        )

    @property
    def handles(self) -> List[SessionHandle]:
        """Sealed handles, in completion order."""
        return list(self._finished)
