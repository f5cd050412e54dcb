"""Process executor: each session on a resident pair of party processes.

The :class:`Supervisor` is the second executor under the
:class:`~repro.serve.service.SessionService` core (admission, queue,
retry backoff, drain and sealing are the core's).  Each slot holds a
*resident pair of OS processes* (one per party,
:mod:`repro.serve.procs`) for one ``run_until_complete``; an attempt
is a tagged payload and one end of a fresh kernel ``socketpair`` per
party on its control pipe, with the parent watching from outside:

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
* **isolation** -- only a verified session hands its pair back to the
  idle pool; any other end kills both workers, so a retry never runs on
  the pair that failed.  An idle pair found dead is replaced for free;
* **reaping** -- a killed pair is joined and closed, and the final reap
  shuts the idle pool down, so no child outlives the run.

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

import itertools
import multiprocessing
import socket
import time
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import connection as mp_connection, reduction
from typing import Dict, List, Optional, Sequence

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
from ..gc.roles import check_input_bits
from .procs import (
    EVALUATOR,
    GARBLER,
    HEARTBEAT_S,
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
    #: Backend name (checked by ``submit``, resolved inside each
    #: worker); see :func:`repro.gc.backends.resolve_backend`.
    backend: Optional[str] = None
    #: Fault spec / plan of process-chaos kinds only: the kernel
    #: socket is loss-free, so ``submit`` rejects frame kinds.
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
    """One attempt on a resident pair (a pipe is set to ``None`` at EOF)."""

    procs: Dict[str, object]
    conns: Dict[str, object]
    tag: int
    started: float
    deadline_at: Optional[float]
    reports: Dict[str, Dict[str, object]] = field(default_factory=dict)
    errors: Dict[str, ProtocolFault] = field(default_factory=dict)
    last_msg: Dict[str, float] = field(default_factory=dict)
    verified: bool = False


def _send(procs, conns, payloads) -> bool:
    """Each party its payload, then its end of a fresh ``socketpair``."""
    socks = dict(zip(ROLES, socket.socketpair()))
    try:
        for role, conn in conns.items():
            conn.send(payloads[role])
            reduction.send_handle(conn, socks[role].fileno(), procs[role].pid)
        return True
    except OSError:
        return False
    finally:
        close_quietly(*socks.values())


def _retire(procs, conns, grace_s: float = 0.0) -> None:
    """Close a pair's pipes; kill what is alive after ``grace_s``; reap."""
    close_quietly(*filter(None, conns.values()))
    for proc in procs.values():
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        proc.close()


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
        heartbeat_timeout_s: Optional[float] = None,
        drain_timeout_s: float = 10.0,
        log: Optional[SupervisorLog] = None,
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
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s
            if heartbeat_timeout_s is not None
            else 40 * HEARTBEAT_S
        )
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._idle: List[tuple] = []  # (procs, conns) of resident pairs
        self._tags = itertools.count()

    def submit(self, spec: SessionSpec) -> SessionHandle:
        """Admit one session (or raise :class:`ServiceSaturated`).

        An invalid circuit, a wrong number of input bits or a bit
        other than 0 / 1 raises ``ValueError`` without admitting the
        session, as
        ``SessionMultiplexer.submit`` does, an unknown backend
        :class:`~repro.gc.backends.BackendUnavailable`, and a fault
        kind outside ``PROCESS_CHAOS``
        :class:`~repro.faults.FaultKindUnsupported`: a malformed
        session never spawns a process or spends retry budget.
        """
        self._check_capacity()
        # The roles re-check their own bits inside the worker.
        spec.circuit.validate()
        for role, bits in zip(ROLES, (spec.garbler_bits, spec.evaluator_bits)):
            check_input_bits(spec.circuit, role, bits)
        resolve_backend(spec.backend)
        plan = resolve_fault_plan(
            spec.faults, PROCESS_CHAOS, "the process supervisor"
        )
        return self._enqueue(spec, plan, spec.session_id)

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

        tag = next(self._tags)
        bits = dict(zip(ROLES, (spec.garbler_bits, spec.evaluator_bits)))
        procs, conns = self._hand_off({
            role: {
                "circuit": spec.circuit,
                "seed": spec.seed,
                "backend": spec.backend,
                "io_timeout_s": io_timeout_s,
                "tag": tag,
                "bits": list(bits[role]),
                "chaos": chaos if chaos and chaos.target == role else None,
            }
            for role in ROLES
        })
        handle.attempt = _PartyPair(
            procs, conns, tag, now, now + deadline if deadline else None,
            last_msg=dict.fromkeys(ROLES, now),
        )
        return {
            "pids": {role: procs[role].pid for role in ROLES},
            "deadline_s": deadline,
            "chaos": asdict(chaos) if chaos is not None else None,
        }

    # -- the resident pool ---------------------------------------------

    def _hand_off(self, payloads: Dict[str, dict]) -> tuple:
        """Send an attempt to an idle pair (one found dead is reaped and
        replaced, at no retry's cost), else to a fresh pair."""
        while self._idle:
            procs, conns = self._idle.pop()
            alive = all(proc.is_alive() for proc in procs.values())
            if alive and _send(procs, conns, payloads):
                return procs, conns
            _retire(procs, conns)
        procs, conns = self._fork()
        _send(procs, conns, payloads)  # a dead fresh pair: the attempt's fault
        return procs, conns

    def _fork(self) -> tuple:
        """Start a resident pair.  Each child closes every parent-side
        control end it inherits (its own pair's too): a copy left open
        there would keep the parent's close from reaching a worker."""
        ends = [c for h in self._running for c in h.attempt.conns.values() if c]
        procs: Dict[str, object] = {}
        conns: Dict[str, object] = {}
        for role in ROLES:
            conns[role], child = self._ctx.Pipe(duplex=True)
            procs[role] = self._ctx.Process(
                target=party_process_main,
                args=(role, child, [*ends, *conns.values()]),
                daemon=True,
                name=f"repro-{role}",
            )
            procs[role].start()
            child.close()
        return procs, conns

    def _reap_all(self) -> None:
        super()._reap_all()
        while self._idle:
            _retire(*self._idle.pop(), grace_s=5.0)  # at EOF its workers exit

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
                close_quietly(conn)
                attempt.conns[role] = None
                return
            if msg[1] != attempt.tag:
                continue  # left over from this pair's previous session
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
        outcome = self._verify(handle)
        handle.attempt.verified = isinstance(outcome, SessionResult)
        return outcome

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
        """Hand a verified attempt's pair back to the pool; kill and
        reap any other."""
        attempt, handle.attempt = handle.attempt, None
        if attempt is None:
            return
        pair = (attempt.procs, attempt.conns)
        if attempt.verified and None not in attempt.conns.values():
            self._idle.append(pair)
        else:
            _retire(*pair)
