"""Process executor: each session a pair of supervised party processes.

The :class:`Supervisor` is the second executor under the
:class:`~repro.serve.service.SessionService` core (admission, queue,
retry backoff, drain, sealing and stats are the core's).  Each attempt
runs as a *pair of OS processes* (one per party,
:mod:`repro.serve.procs`) joined by a kernel ``socketpair``, with the
parent watching from outside:

* **liveness** -- every worker heartbeats over its control pipe; the
  supervisor also watches process sentinels, so a SIGKILLed worker is
  noticed even though it never said goodbye
  (:class:`~repro.faults.WorkerCrashed`);
* **deadlines** -- a per-session wall-clock budget; a session that
  overruns is killed and reaped, never abandoned
  (:class:`~repro.faults.SessionDeadlineExceeded`);
* **re-verification** -- a retried session's transcript digest is
  checked against the caller-supplied fault-free reference
  (``SessionSpec.reference_digest``) so "recovered" always means
  *bit-identical*, not merely "finished";
* **reaping** -- stopping an attempt kills, joins and closes both
  workers, so the core's unconditional final reap leaves zero zombies.

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

import multiprocessing
import socket
import time
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Dict, Optional, Sequence

from ..faults import (
    FaultPlan,
    PROCESS_CHAOS,
    ProtocolFault,
    SessionDeadlineExceeded,
    TranscriptMismatch,
    WorkerCrashed,
    resolve_fault_plan,
)
from ..gc.backends import resolve_backend
from ..gc.protocol import SessionResult
from .procs import (
    EVALUATOR,
    GARBLER,
    ROLES,
    ChaosDirective,
    close_quietly,
    party_process_main,
)
from .service import SessionHandle, SessionService, SupervisorLog

__all__ = ["SessionSpec", "Supervisor", "draw_chaos"]


@dataclass
class SessionSpec:
    """Everything the supervisor needs to run one session's attempts."""

    circuit: object
    garbler_bits: Sequence[int]
    evaluator_bits: Sequence[int]
    seed: int = 0
    rekeyed: bool = True
    #: Backend name (checked by ``submit``, resolved inside each
    #: worker); see :func:`repro.gc.backends.resolve_backend`.
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


def draw_chaos(
    plan: Optional[FaultPlan],
    levels_total: int,
    site: str = "supervisor",
) -> Optional[ChaosDirective]:
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
            return ChaosDirective(kind=kind, target=target, level=level)
    return None


@dataclass
class _PartyPair:
    """The live attempt of one supervised session: two workers, two pipes."""

    procs: Dict[str, object]
    conns: Dict[str, object]
    started: float
    deadline_at: Optional[float]
    reports: Dict[str, Dict[str, object]] = field(default_factory=dict)
    errors: Dict[str, ProtocolFault] = field(default_factory=dict)
    last_msg: Dict[str, float] = field(default_factory=dict)


class Supervisor(SessionService):
    """Process executor: launch, watch, diagnose and kill party pairs.

    One run loop owns every control pipe and every child, multiplexing
    over them with :func:`multiprocessing.connection.wait`; admission,
    retries, drain and sealing are the :class:`SessionService` core's.
    """

    id_prefix = "p"
    workers_per_attempt = len(ROLES)

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
        super().__init__(
            max_concurrent=max_concurrent,
            max_pending=max_pending,
            retries=retries,
            backoff_base_s=backoff_base_s,
            drain_timeout_s=drain_timeout_s,
            log=log,
        )
        self.deadline_s = deadline_s
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else max(1.0, heartbeat_s * 40.0)
        )
        self.chunk_bytes = chunk_bytes
        if mp_start_method is None:
            methods = multiprocessing.get_all_start_methods()
            mp_start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_start_method)

    def submit(self, spec: SessionSpec) -> SessionHandle:
        """Admit one session (or raise :class:`ServiceSaturated`).

        An invalid circuit or a wrong number of input bits raises
        ``ValueError`` without admitting the session, as
        ``SessionMultiplexer.submit`` does, and an unknown backend
        :class:`~repro.gc.backends.BackendUnavailable`: a malformed
        session never spawns a process or spends retry budget.
        """
        self._check_capacity()
        # The roles re-check their own arity inside the worker.
        circuit = spec.circuit
        circuit.validate()
        if len(spec.garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(spec.evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")
        resolve_backend(spec.backend)
        return self._enqueue(
            spec, resolve_fault_plan(spec.faults), spec.session_id
        )

    # -- executor hooks ------------------------------------------------

    def _start(self, handle: SessionHandle, now: float) -> Dict[str, object]:
        spec = handle.job
        attempt = handle.stats.attempts
        chaos = None
        if handle.plan is not None:
            chaos = draw_chaos(
                handle.plan,
                len(spec.circuit.and_level_plan),
                site=f"{handle.session_id}#a{attempt}",
            )

        deadline = (
            spec.deadline_s if spec.deadline_s is not None else self.deadline_s
        )
        io_timeout_s = max(5.0, deadline * 2.0) if deadline else 30.0

        socks = dict(zip(ROLES, socket.socketpair()))
        pipes = {role: self._ctx.Pipe(duplex=False) for role in ROLES}
        recvs = [recv for recv, _ in pipes.values()]
        common = {
            "circuit": spec.circuit,
            "seed": spec.seed,
            "rekeyed": spec.rekeyed,
            "backend": spec.backend,
            "heartbeat_s": self.heartbeat_s,
            "io_timeout_s": io_timeout_s,
            "chunk_bytes": self.chunk_bytes,
        }
        bits = (spec.garbler_bits, spec.evaluator_bits)
        procs: Dict[str, object] = {}
        for role, role_bits, peer in zip(ROLES, bits, reversed(ROLES)):
            payload = dict(
                common,
                bits=list(role_bits),
                chaos=chaos if chaos and chaos.target == role else None,
            )
            procs[role] = self._ctx.Process(
                target=party_process_main,
                # Inherited descriptors the child must not hold: the
                # peer's endpoints and the parent's receive ends.
                args=(
                    role, payload, socks[role], pipes[role][1],
                    [socks[peer], pipes[peer][1], *recvs],
                ),
                daemon=True,
                name=f"repro-{handle.session_id}-{role}-a{attempt}",
            )
            procs[role].start()
        # The children hold their copies now; release the parent's.
        close_quietly(*socks.values(), *(send for _, send in pipes.values()))

        handle.attempt = _PartyPair(
            procs,
            dict(zip(ROLES, recvs)),
            started=now,
            deadline_at=now + deadline if deadline else None,
            last_msg={role: now for role in ROLES},
        )
        return {
            "pids": {role: procs[role].pid for role in ROLES},
            "deadline_s": deadline,
            "chaos": asdict(chaos) if chaos is not None else None,
        }

    def _wait(self) -> None:
        conn_map = {
            conn: (handle, role)
            for handle in self._running
            for role, conn in handle.attempt.conns.items()
            if conn is not None
        }
        if not conn_map:
            time.sleep(0.005)
            return
        try:
            ready = mp_connection.wait(list(conn_map), timeout=0.02)
        except OSError:
            return
        for conn in ready:
            self._read(*conn_map[conn], conn)

    def _read(self, handle: SessionHandle, role: str, conn) -> None:
        """Read every message waiting on one worker's pipe."""
        attempt = handle.attempt
        while True:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                # Worker side closed; the sentinel / report state
                # decides what it means.
                attempt.conns[role] = None
                return
            attempt.last_msg[role] = time.perf_counter()
            tag = msg[0]
            if tag == "result":
                attempt.reports[role] = msg[2]
            elif tag == "error":
                attempt.errors[role] = fault = msg[2]
                self.log.record(
                    "worker_error",
                    session=handle.session_id,
                    attempt=handle.stats.attempts,
                    role=role,
                    error=type(fault).__name__,
                    detail=str(fault),
                )

    def _poll(self, handle: SessionHandle, now: float) -> object:
        # Diagnose first: a report set read after the deadline has
        # passed is an overrun, not a success.
        fault = self._diagnose(handle, now)
        if fault is not None or len(handle.attempt.reports) < len(ROLES):
            return fault
        return self._verify(handle)

    def _diagnose(
        self, handle: SessionHandle, now: float
    ) -> Optional[ProtocolFault]:
        """Order: deadline > sentinel crash > reported error > silence."""
        attempt = handle.attempt
        where = dict(session=handle.session_id, attempt=handle.stats.attempts)
        if attempt.deadline_at is not None and now > attempt.deadline_at:
            self.log.record("deadline_exceeded", **where)
            return SessionDeadlineExceeded(
                f"session {handle.session_id} attempt {handle.stats.attempts} "
                f"exceeded its {attempt.deadline_at - attempt.started:.3g}s "
                "deadline"
            )
        for role, proc in attempt.procs.items():
            if (
                not proc.is_alive()
                and role not in attempt.reports
                and role not in attempt.errors
            ):
                # Give a just-exited worker's last pipe writes a chance
                # to be read before declaring it crashed.
                conn = attempt.conns.get(role)
                if conn is not None:
                    self._read(handle, role, conn)
                if role in attempt.reports or role in attempt.errors:
                    return None
                self.log.record(
                    "worker_exit", **where, role=role, exitcode=proc.exitcode
                )
                return WorkerCrashed(
                    f"{role} worker of session {handle.session_id} exited "
                    f"with code {proc.exitcode} before reporting"
                )
        if attempt.errors:
            role = GARBLER if GARBLER in attempt.errors else EVALUATOR
            fault = attempt.errors[role]
            return type(fault)(f"[{role}] {fault}")
        for role, proc in attempt.procs.items():
            if (
                proc.is_alive()
                and role not in attempt.reports
                and now - attempt.last_msg[role] > self.heartbeat_timeout_s
            ):
                self.log.record("heartbeat_lost", **where, role=role)
                return WorkerCrashed(
                    f"{role} worker of session {handle.session_id} went "
                    f"silent for {self.heartbeat_timeout_s:g}s "
                    "(heartbeats stopped)"
                )
        return None

    def _verify(self, handle: SessionHandle) -> object:
        """Both reports in: the session's result, or why it is wrong."""
        g = handle.attempt.reports[GARBLER]
        e = handle.attempt.reports[EVALUATOR]
        reference = handle.job.reference_digest
        digest = e["transcript_digest"]
        if g["output_bits"] != e["output_bits"]:
            return TranscriptMismatch(
                f"session {handle.session_id}: parties decoded different "
                "output bits"
            )
        if reference is not None and digest != reference:
            return TranscriptMismatch(
                f"session {handle.session_id}: transcript digest "
                f"{digest[:16]}... does not match the fault-free "
                f"reference {reference[:16]}..."
            )
        # The fused drive's quanta: the handshake, each level garbled
        # and evaluated, the finish.
        handle.stats.steps = 2 * e["levels"] + 2
        recovery = [
            replace(event, seq=seq)
            for seq, event in enumerate(g["recovered"] + e["recovered"])
        ]
        return SessionResult.from_reports(
            g,
            e,
            recovery_events=recovery,
            fault_events=(
                list(handle.plan.injected) if handle.plan is not None else []
            ),
        )

    def _stop(self, handle: SessionHandle) -> None:
        """Kill (if needed) and reap both workers of the live attempt."""
        attempt, handle.attempt = handle.attempt, None
        if attempt is None:
            return
        for proc in attempt.procs.values():
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
            if proc.exitcode is None:  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
            proc.close()
        close_quietly(*(c for c in attempt.conns.values() if c is not None))
