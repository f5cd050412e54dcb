"""Parent-side supervision for out-of-process two-party sessions.

The :class:`Supervisor` is the process-scope counterpart of
:class:`~repro.serve.SessionMultiplexer`: it admits sessions under the
same two-level backpressure, but each admitted session runs as a *pair
of OS processes* (one per party, :mod:`repro.serve.procs`) joined by a
kernel ``socketpair``, with the parent watching from outside:

* **liveness** -- every worker heartbeats over its control pipe; the
  supervisor also watches process sentinels, so a SIGKILLed worker is
  noticed even though it never said goodbye
  (:class:`~repro.faults.WorkerCrashed`);
* **deadlines** -- a per-session wall-clock budget; a session that
  overruns is killed and reaped, never abandoned
  (:class:`~repro.faults.SessionDeadlineExceeded`);
* **retries** -- a failed attempt is relaunched under a bounded retry
  budget with exponential backoff, and a retried session's transcript
  digest is re-verified against the caller-supplied fault-free
  reference (``SessionSpec.reference_digest``) so "recovered" always
  means *bit-identical*, not merely "finished";
* **drain** -- :meth:`Supervisor.request_drain` (signal-handler safe)
  stops admissions, cancels the pending queue, lets in-flight attempts
  finish inside a bounded drain window, then kills what remains.  The
  run loop's ``finally`` reaps every child unconditionally: zero
  zombies, even on the exceptional path.

Chaos extends to process scope here: a session whose
:class:`~repro.faults.FaultPlan` arms ``kill_party`` / ``sever`` /
``stall`` has one deterministic :class:`~repro.serve.procs.ChaosDirective`
drawn per *attempt* (target party and trigger level from the plan's
seeded RNG), preserving the chaos invariant one level up: every session
either completes bit-identical to fault-free (possibly after retries)
or seals with a typed fault promptly -- never a hang, never a leaked
child.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..faults import (
    FaultPlan,
    PROCESS_CHAOS,
    ProtocolFault,
    RecoveryEvent,
    ServiceSaturated,
    SessionAborted,
    SessionDeadlineExceeded,
    TranscriptMismatch,
    WorkerCrashed,
    resolve_fault_plan,
)
from ..gc.protocol import SessionResult
from .mux import ServiceStats, SessionStats, _percentile
from .procs import EVALUATOR, GARBLER, ROLES, party_process_main

__all__ = [
    "SessionSpec",
    "SupervisedSession",
    "SupervisorLog",
    "Supervisor",
    "draw_chaos",
    "ChaosPick",
]

#: Environment variable naming the JSONL supervisor event log; the CI
#: chaos lane points this at an artifact path so a failed run ships its
#: full supervision timeline.
SUPERVISOR_LOG_ENV = "REPRO_SUPERVISOR_LOG"


@dataclass
class SessionSpec:
    """Everything the supervisor needs to run one session's attempts."""

    circuit: object
    garbler_bits: Sequence[int]
    evaluator_bits: Sequence[int]
    seed: int = 0
    rekeyed: bool = True
    #: Backend name (resolved inside each worker); ``None`` is the
    #: ``scalar`` backend.
    backend: Optional[str] = None
    #: Fault spec / plan; frame faults do not apply on this transport
    #: (the kernel socket is loss-free), only the process-chaos kinds.
    faults: Optional[object] = None
    session_id: Optional[str] = None
    #: Fault-free transcript digest (hex) to re-verify retried attempts
    #: against; ``None`` skips the cross-run check (the cross-party
    #: digest exchange inside the session still runs).
    reference_digest: Optional[str] = None
    #: Per-session deadline override; ``None`` inherits the
    #: supervisor's default.
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ChaosPick:
    """One drawn process fault: which kind, on whom, after which level."""

    kind: str
    target: str  # GARBLER | EVALUATOR
    level: int

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "target": self.target, "level": self.level}


def draw_chaos(
    plan: Optional[FaultPlan],
    levels_total: int,
    site: str = "supervisor",
) -> Optional[ChaosPick]:
    """Draw at most one process fault for one session attempt.

    Consumes the plan's RNG in a fixed order (three unconditional rate
    draws via :meth:`~repro.faults.FaultPlan.chaos_kinds`, then the
    target-party and trigger-level offsets) so chaos schedules are
    reproducible and independent of which kinds are armed.  Priority
    when several kinds arm on the same attempt: ``kill_party`` >
    ``sever`` > ``stall``.
    """
    if plan is None:
        return None
    kinds = plan.chaos_kinds(site)
    target = ROLES[plan.choose_offset(len(ROLES))]
    level = plan.choose_offset(max(1, levels_total))
    for kind in PROCESS_CHAOS:
        if kind in kinds:
            return ChaosPick(kind=kind, target=target, level=level)
    return None


class SupervisorLog:
    """Append-only supervision event ledger (in memory + optional JSONL).

    Every structural event (launch, worker exit, deadline kill, retry,
    seal, drain) is recorded with a wall-clock timestamp; when ``path``
    (or ``$REPRO_SUPERVISOR_LOG``) is set, each event is also appended
    to a JSONL file and flushed immediately, so a killed parent still
    leaves a usable timeline behind.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path if path is not None else os.environ.get(
            SUPERVISOR_LOG_ENV
        )
        self.events: List[Dict[str, object]] = []
        self._fh = None
        if self.path:
            self._fh = open(self.path, "a", encoding="utf-8")

    def record(self, kind: str, **fields: object) -> Dict[str, object]:
        event: Dict[str, object] = {"t": time.time(), "event": kind}
        event.update(fields)
        self.events.append(event)
        if self._fh is not None:
            try:
                self._fh.write(json.dumps(event) + "\n")
                self._fh.flush()
            except (OSError, ValueError):
                pass
        return event

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class SupervisedSession:
    """Caller's view of one supervised session across its attempts."""

    def __init__(self, spec: SessionSpec, session_id: str) -> None:
        self.spec = spec
        self.session_id = session_id
        self.stats = SessionStats(session_id=session_id, attempts=0)
        self.result: Optional[SessionResult] = None
        self.error: Optional[BaseException] = None
        self.plan: Optional[FaultPlan] = resolve_fault_plan(spec.faults)
        self.levels_total: Optional[int] = None
        # Timing.
        self._submitted = time.perf_counter()
        self._first_started: Optional[float] = None
        self.next_eligible = 0.0  # backoff gate for the next launch
        # Per-attempt process state (populated by the supervisor).
        self.procs: Dict[str, object] = {}
        self.conns: Dict[str, object] = {}
        self.reports: Dict[str, Dict[str, object]] = {}
        self.errors: Dict[str, Tuple[str, str]] = {}
        self.last_msg: Dict[str, float] = {}
        self.deadline_at: Optional[float] = None
        self.attempt_started: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    @property
    def attempts(self) -> int:
        return self.stats.attempts


class Supervisor:
    """Admit, launch, watch, retry and reap out-of-process sessions.

    Single-threaded like the multiplexer: one run loop owns every
    control pipe and every child, multiplexing over them with
    :func:`multiprocessing.connection.wait`.  ``request_drain`` is the
    only method safe to call from another thread or a signal handler
    (it just sets a flag the loop observes).
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 2,
        max_pending: int = 8,
        deadline_s: Optional[float] = 30.0,
        retries: int = 1,
        backoff_base_s: float = 0.05,
        heartbeat_s: float = 0.05,
        heartbeat_timeout_s: Optional[float] = None,
        drain_timeout_s: float = 10.0,
        chunk_bytes: int = 4096,
        log: Optional[SupervisorLog] = None,
        mp_start_method: Optional[str] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_pending = max_pending
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else max(1.0, heartbeat_s * 40.0)
        )
        self.drain_timeout_s = drain_timeout_s
        self.chunk_bytes = chunk_bytes
        self.log = log if log is not None else SupervisorLog()
        if mp_start_method is None:
            methods = multiprocessing.get_all_start_methods()
            mp_start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_start_method)
        # Queues and ledgers.
        self._pending: Deque[SupervisedSession] = deque()
        self._running: List[SupervisedSession] = []
        self._backoff: List[SupervisedSession] = []
        self._finished: List[SupervisedSession] = []
        self._admitted = 0
        self._rejected = 0
        self._retries = 0
        self._worker_restarts = 0
        # Drain state (flag set by request_drain, possibly from a
        # signal handler; everything else only the run loop touches).
        self._draining = False
        self._drain_requested_at: Optional[float] = None
        self._drain_cancelled = 0
        self._drain_killed = 0

    # -- admission -----------------------------------------------------

    def submit(self, spec: SessionSpec) -> SupervisedSession:
        """Admit one session (or raise :class:`ServiceSaturated`).

        Saturation carries the same ``retry_after_hint_s`` contract as
        the in-process multiplexer: p50 completed-session time scaled
        by queue depth, ``None`` without history.  A draining
        supervisor rejects everything.  An invalid circuit or a wrong
        number of input bits raises ``ValueError`` without admitting
        the session, as ``SessionMultiplexer.submit`` does.
        """
        if self._draining:
            self._rejected += 1
            raise ServiceSaturated(
                "supervisor is draining: admissions are closed"
            )
        outstanding = (
            len(self._pending) + len(self._running) + len(self._backoff)
        )
        if outstanding >= self.max_concurrent + self.max_pending:
            self._rejected += 1
            raise ServiceSaturated(
                f"service saturated: {len(self._running)} running + "
                f"{len(self._pending)} queued against capacity "
                f"{self.max_concurrent} slots + {self.max_pending} queue",
                retry_after_hint_s=self.saturation_hint_s(),
            )
        # Malformed sessions are refused here, before any process is
        # spawned (the roles re-check their own arity inside the worker).
        circuit = spec.circuit
        circuit.validate()
        if len(spec.garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(spec.evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")
        self._admitted += 1
        sess = SupervisedSession(spec, spec.session_id or f"p{self._admitted}")
        self._pending.append(sess)
        self.log.record("submitted", session=sess.session_id)
        return sess

    def saturation_hint_s(self) -> Optional[float]:
        runs = [
            s.stats.run_s
            for s in self._finished
            if s.stats.ok and s.stats.run_s > 0
        ]
        p50 = _percentile(runs, 50.0)
        if p50 is None:
            return None
        return p50 * (1.0 + len(self._pending) / self.max_concurrent)

    def request_drain(self) -> None:
        """Stop admissions and promotions; let in-flight work finish.

        Safe from signal handlers and other threads: sets flags only.
        The run loop cancels the pending queue, refuses new retries,
        and after ``drain_timeout_s`` kills whatever is still running.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_requested_at = time.perf_counter()
        self.log.record("drain_requested")

    def signals_handled(self, signums: Optional[Sequence[int]] = None):
        """Context manager installing SIGTERM/SIGINT -> drain handlers."""
        import signal as signal_mod
        from contextlib import contextmanager

        if signums is None:
            signums = (signal_mod.SIGTERM, signal_mod.SIGINT)

        @contextmanager
        def _managed():
            previous = {}

            def _handler(signum, frame):
                self.request_drain()

            for signum in signums:
                previous[signum] = signal_mod.signal(signum, _handler)
            try:
                yield self
            finally:
                for signum, old in previous.items():
                    signal_mod.signal(signum, old)

        return _managed()

    # -- run loop ------------------------------------------------------

    def run_until_complete(self) -> ServiceStats:
        """Drive every admitted session to a sealed result or fault."""
        t0 = time.perf_counter()
        try:
            while True:
                now = time.perf_counter()
                self._promote(now)
                if not (self._running or self._pending or self._backoff):
                    break
                self._poll_messages()
                self._check_attempts(time.perf_counter())
                self._check_drain(time.perf_counter())
        finally:
            self._reap_all()
            self.log.record(
                "run_finished",
                sessions=len(self._finished),
                retries=self._retries,
            )
            self.log.close()
        return self.service_stats(wall_s=time.perf_counter() - t0)

    def service_stats(self, wall_s: float = 0.0) -> ServiceStats:
        drain: Optional[Dict[str, object]] = None
        if self._draining:
            drain = {
                "requested": True,
                "clean": self._drain_killed == 0,
                "cancelled_pending": self._drain_cancelled,
                "killed_in_flight": self._drain_killed,
                "drain_s": (
                    time.perf_counter() - self._drain_requested_at
                    if self._drain_requested_at is not None
                    else 0.0
                ),
            }
        return ServiceStats(
            sessions=[s.stats for s in self._finished],
            rejected=self._rejected,
            wall_s=wall_s,
            retries=self._retries,
            worker_restarts=self._worker_restarts,
            drain=drain,
        )

    @property
    def sessions(self) -> List[SupervisedSession]:
        """Sealed sessions, in completion order."""
        return list(self._finished)

    # -- scheduling ----------------------------------------------------

    def _promote(self, now: float) -> None:
        if self._draining:
            # Cancel everything not yet launched; retries of in-flight
            # sessions stay eligible (they are in-flight work).
            while self._pending:
                sess = self._pending.popleft()
                self._drain_cancelled += 1
                self._seal_error(
                    sess,
                    SessionAborted(
                        f"session {sess.session_id} cancelled: supervisor "
                        "drained before it started"
                    ),
                )
        while (
            self._pending and len(self._running) < self.max_concurrent
        ):
            sess = self._pending.popleft()
            self._launch(sess, now)
        for sess in list(self._backoff):
            if len(self._running) >= self.max_concurrent:
                break
            if now >= sess.next_eligible:
                self._backoff.remove(sess)
                self._launch(sess, now)

    def _launch(self, sess: SupervisedSession, now: float) -> None:
        spec = sess.spec
        sess.stats.attempts += 1
        if sess._first_started is None:
            sess._first_started = now
            sess.stats.queue_wait_s = now - sess._submitted
        if sess.stats.attempts > 1:
            self._retries += 1
            self._worker_restarts += len(ROLES)

        chaos_pick = None
        if sess.plan is not None:
            if sess.levels_total is None:
                sess.levels_total = len(
                    list(spec.circuit.and_level_schedule())
                )
            chaos_pick = draw_chaos(
                sess.plan,
                sess.levels_total,
                site=f"{sess.session_id}#a{sess.stats.attempts}",
            )

        deadline = (
            spec.deadline_s if spec.deadline_s is not None else self.deadline_s
        )
        io_timeout_s = max(5.0, deadline * 2.0) if deadline else 30.0

        sock_g, sock_e = socket.socketpair()
        recv_g, send_g = self._ctx.Pipe(duplex=False)
        recv_e, send_e = self._ctx.Pipe(duplex=False)
        ends = {
            GARBLER: (sock_g, send_g, list(spec.garbler_bits)),
            EVALUATOR: (sock_e, send_e, list(spec.evaluator_bits)),
        }
        procs: Dict[str, object] = {}
        for role in ROLES:
            sock, child_conn, bits = ends[role]
            peer = EVALUATOR if role == GARBLER else GARBLER
            peer_sock, peer_conn, _ = ends[peer]
            payload = {
                "circuit": spec.circuit,
                "seed": spec.seed,
                "rekeyed": spec.rekeyed,
                "backend": spec.backend,
                "bits": bits,
                "chaos": (
                    {"kind": chaos_pick.kind, "level": chaos_pick.level}
                    if chaos_pick is not None and chaos_pick.target == role
                    else None
                ),
                "heartbeat_s": self.heartbeat_s,
                "io_timeout_s": io_timeout_s,
                "chunk_bytes": self.chunk_bytes,
            }
            proc = self._ctx.Process(
                target=party_process_main,
                args=(
                    role,
                    payload,
                    sock,
                    child_conn,
                    # Inherited descriptors the child must not hold: the
                    # peer's endpoints and the parent's receive ends.
                    [peer_sock, peer_conn, recv_g, recv_e],
                ),
                daemon=True,
                name=f"repro-{sess.session_id}-{role}-a{sess.stats.attempts}",
            )
            proc.start()
            procs[role] = proc
        # The children hold their copies now; release the parent's.
        for obj in (sock_g, sock_e, send_g, send_e):
            obj.close()

        sess.procs = procs
        sess.conns = {GARBLER: recv_g, EVALUATOR: recv_e}
        sess.reports = {}
        sess.errors = {}
        sess.last_msg = {role: now for role in ROLES}
        sess.attempt_started = now
        sess.deadline_at = now + deadline if deadline else None
        self._running.append(sess)
        self.log.record(
            "launched",
            session=sess.session_id,
            attempt=sess.stats.attempts,
            pids={role: procs[role].pid for role in ROLES},
            deadline_s=deadline,
            chaos=chaos_pick.as_dict() if chaos_pick is not None else None,
        )

    # -- watching ------------------------------------------------------

    def _poll_messages(self) -> None:
        conn_map = {}
        for sess in self._running:
            for role, conn in sess.conns.items():
                if conn is not None:
                    conn_map[conn] = (sess, role)
        if not conn_map:
            time.sleep(0.005)
            return
        try:
            ready = mp_connection.wait(list(conn_map), timeout=0.02)
        except OSError:
            return
        for conn in ready:
            sess, role = conn_map[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker side closed; the sentinel / report state
                    # decides what it means.
                    sess.conns[role] = None
                    break
                now = time.perf_counter()
                sess.last_msg[role] = now
                tag = msg[0]
                if tag == "hb":
                    continue
                if tag == "result":
                    sess.reports[role] = msg[2]
                elif tag == "error":
                    sess.errors[role] = (msg[2], msg[3])
                    self.log.record(
                        "worker_error",
                        session=sess.session_id,
                        attempt=sess.stats.attempts,
                        role=role,
                        error=msg[2],
                        detail=msg[3],
                    )

    def _check_attempts(self, now: float) -> None:
        for sess in list(self._running):
            # Diagnose first: a report set read after the deadline has
            # passed is an overrun, not a success.
            fail = self._diagnose(sess, now)
            if fail is not None:
                self._running.remove(sess)
                self._fail_attempt(sess, fail, now)
            elif len(sess.reports) == len(ROLES):
                self._running.remove(sess)
                self._finish_attempt_success(sess, now)

    def _diagnose(
        self, sess: SupervisedSession, now: float
    ) -> Optional[ProtocolFault]:
        """Order: deadline > sentinel crash > reported error > silence."""
        if sess.deadline_at is not None and now > sess.deadline_at:
            self.log.record(
                "deadline_exceeded",
                session=sess.session_id,
                attempt=sess.stats.attempts,
            )
            return SessionDeadlineExceeded(
                f"session {sess.session_id} attempt {sess.stats.attempts} "
                f"exceeded its {sess.deadline_at - sess.attempt_started:.3g}s "
                "deadline"
            )
        for role, proc in sess.procs.items():
            if (
                not proc.is_alive()
                and role not in sess.reports
                and role not in sess.errors
            ):
                # Give a just-exited worker's last pipe writes a chance
                # to be read before declaring it crashed.
                conn = sess.conns.get(role)
                if conn is not None and self._drain_conn(sess, role, conn):
                    return None
                self.log.record(
                    "worker_exit",
                    session=sess.session_id,
                    attempt=sess.stats.attempts,
                    role=role,
                    exitcode=proc.exitcode,
                )
                return WorkerCrashed(
                    f"{role} worker of session {sess.session_id} exited "
                    f"with code {proc.exitcode} before reporting"
                )
        if sess.errors:
            role = GARBLER if GARBLER in sess.errors else EVALUATOR
            typename, detail = sess.errors[role]
            return self._typed_error(typename, f"[{role}] {detail}")
        for role, proc in sess.procs.items():
            if (
                proc.is_alive()
                and role not in sess.reports
                and now - sess.last_msg[role] > self.heartbeat_timeout_s
            ):
                self.log.record(
                    "heartbeat_lost",
                    session=sess.session_id,
                    attempt=sess.stats.attempts,
                    role=role,
                )
                return WorkerCrashed(
                    f"{role} worker of session {sess.session_id} went "
                    f"silent for {self.heartbeat_timeout_s:g}s "
                    "(heartbeats stopped)"
                )
        return None

    def _drain_conn(self, sess, role, conn) -> bool:
        """Pull any final messages off a dead worker's pipe."""
        got = False
        while True:
            try:
                if not conn.poll():
                    break
                msg = conn.recv()
            except (EOFError, OSError):
                sess.conns[role] = None
                break
            tag = msg[0]
            if tag == "result":
                sess.reports[role] = msg[2]
                got = True
            elif tag == "error":
                sess.errors[role] = (msg[2], msg[3])
                got = True
        return got

    @staticmethod
    def _typed_error(typename: str, detail: str) -> ProtocolFault:
        from .. import faults as faults_mod

        cls = getattr(faults_mod, typename, None)
        if isinstance(cls, type) and issubclass(cls, ProtocolFault):
            return cls(detail)
        return SessionAborted(f"{typename}: {detail}")

    # -- attempt outcomes ----------------------------------------------

    def _finish_attempt_success(
        self, sess: SupervisedSession, now: float
    ) -> None:
        self._kill_attempt(sess)  # reap (workers already exited cleanly)
        g = sess.reports[GARBLER]
        e = sess.reports[EVALUATOR]
        digest = e["transcript_digest"]
        fail: Optional[ProtocolFault] = None
        if g["output_bits"] != e["output_bits"]:
            fail = TranscriptMismatch(
                f"session {sess.session_id}: parties decoded different "
                "output bits"
            )
        elif (
            sess.spec.reference_digest is not None
            and digest != sess.spec.reference_digest
        ):
            fail = TranscriptMismatch(
                f"session {sess.session_id}: transcript digest "
                f"{digest[:16]}... does not match the fault-free "
                f"reference {sess.spec.reference_digest[:16]}..."
            )
        if fail is not None:
            self._fail_attempt(sess, fail, now)
            return

        recovery = [
            RecoveryEvent(seq=seq, layer=layer, kind=kind, detail=detail)
            for seq, (layer, kind, detail) in enumerate(
                g["recovered"] + e["recovered"]
            )
        ]
        sess.result = SessionResult.from_reports(
            g,
            e,
            recovery_events=recovery,
            fault_events=(
                list(sess.plan.injected) if sess.plan is not None else []
            ),
        )
        stats = sess.stats
        stats.run_s = now - sess._first_started
        stats.first_level_s = e["first_level_s"]
        stats.streamed_levels = e["streamed_levels"]
        stats.steps = e["levels"]
        stats.recovery_events = len(recovery)
        stats.fault_events = (
            len(sess.plan.injected) if sess.plan is not None else 0
        )
        if stats.run_s > 0 and stats.streamed_levels:
            stats.levels_per_s = stats.streamed_levels / stats.run_s
        self._finished.append(sess)
        self.log.record(
            "sealed",
            session=sess.session_id,
            ok=True,
            attempts=stats.attempts,
            run_s=stats.run_s,
        )

    def _fail_attempt(
        self, sess: SupervisedSession, fail: ProtocolFault, now: float
    ) -> None:
        self._kill_attempt(sess)
        retriable = sess.stats.attempts <= self.retries
        if retriable and not self._draining:
            backoff = self.backoff_base_s * (
                2.0 ** (sess.stats.attempts - 1)
            )
            sess.next_eligible = now + backoff
            self._backoff.append(sess)
            self.log.record(
                "retry_scheduled",
                session=sess.session_id,
                attempt=sess.stats.attempts,
                error=type(fail).__name__,
                backoff_s=backoff,
            )
            return
        self._seal_error(sess, fail)

    def _seal_error(
        self, sess: SupervisedSession, fail: BaseException
    ) -> None:
        sess.error = fail
        stats = sess.stats
        stats.error = type(fail).__name__
        if sess._first_started is not None:
            stats.run_s = time.perf_counter() - sess._first_started
        stats.fault_events = (
            len(sess.plan.injected) if sess.plan is not None else 0
        )
        self._finished.append(sess)
        self.log.record(
            "sealed",
            session=sess.session_id,
            ok=False,
            attempts=stats.attempts,
            error=type(fail).__name__,
            detail=str(fail),
        )

    # -- cleanup -------------------------------------------------------

    def _kill_attempt(self, sess: SupervisedSession) -> None:
        """Kill (if needed) and reap both workers of the live attempt."""
        for role, proc in sess.procs.items():
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            if proc.exitcode is None:  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
            proc.close()
        sess.procs = {}
        for role, conn in sess.conns.items():
            if conn is not None:
                try:
                    conn.close()
                except (OSError, ValueError):
                    pass
        sess.conns = {}

    def _check_drain(self, now: float) -> None:
        if not self._draining or self._drain_requested_at is None:
            return
        if now - self._drain_requested_at <= self.drain_timeout_s:
            return
        for sess in list(self._running):
            self._running.remove(sess)
            self._drain_killed += 1
            self.log.record(
                "drain_kill",
                session=sess.session_id,
                attempt=sess.stats.attempts,
            )
            self._kill_attempt(sess)
            self._seal_error(
                sess,
                SessionAborted(
                    f"session {sess.session_id} killed at drain timeout "
                    f"({self.drain_timeout_s:g}s)"
                ),
            )
        for sess in list(self._backoff):
            self._backoff.remove(sess)
            self._drain_cancelled += 1
            self._seal_error(
                sess,
                SessionAborted(
                    f"session {sess.session_id} retry cancelled at drain "
                    "timeout"
                ),
            )

    def _reap_all(self) -> None:
        """Unconditional cleanup: no child outlives the run loop."""
        leftovers = self._running + self._backoff + list(self._pending)
        self._running = []
        self._backoff = []
        self._pending.clear()
        for sess in leftovers:
            self._kill_attempt(sess)
            self._seal_error(
                sess,
                SessionAborted(
                    f"session {sess.session_id} torn down with the "
                    "supervisor"
                ),
            )
