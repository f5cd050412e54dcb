"""End-to-end two-party GC session.

Orchestrates the full protocol of paper section 2.1:

1. *Offline / garbling*: Alice garbles the circuit, producing tables and
   the output decode map.
2. *Input transfer*: Alice sends her own input labels directly; Bob's
   labels are transferred by oblivious transfer so Alice never sees his
   bits.
3. *Online / evaluation*: Bob evaluates gate by gate, consuming the table
   stream in order.
4. *Output*: Bob decodes with the decode bits (both-learn variant) and
   shares the result with Alice.

Every session is level-streamed over the framed lossy transport:
garbling and evaluation interleave along :attr:`Circuit.and_level_plan`,
each AND level's table block ships as soon as it is computed (the
ROADMAP's pipelining framing -- the Evaluator starts after the first
level instead of after the whole circuit), every message rides
sequence-numbered CRC-checked frames with bounded retransmit, and both
sides close with a transcript-digest exchange.  The protocol is written
once, as the two role scripts of :mod:`repro.gc.roles`;
:class:`StreamedDriver` here is the *fused* scheduler that alternates
both roles' turns in one process
(:func:`repro.serve.procs.party_process_main` is the *split* one).
Faults injected by a :class:`repro.faults.FaultPlan` either leave the
result bit-identical to the fault-free run or raise a typed
:class:`repro.faults.ProtocolFault`; the survived degradations are on
``SessionResult.recovery_events``.

The per-gate garble / OT / evaluate exchange the sessions are held to
lives with the tests (``tests/gc/session_oracle.py``); the HAAC
accelerator replaces step 3's software evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..circuits.netlist import Circuit
from ..faults import (
    FRAME_FAULTS,
    FaultEvent,
    FaultPlan,
    ProtocolFault,
    RecoveryEvent,
    RecoveryLog,
    SessionAborted,
    resolve_fault_plan,
)
from .backends import resolve_backend
from .channel import make_framed_pair
from .roles import FINISH, HANDSHAKE, LEVEL, EvaluatorRole, GarblerRole

__all__ = [
    "SessionResult",
    "StreamedDriver",
    "TwoPartySession",
    "run_two_party",
]


@dataclass
class SessionResult:
    """Outcome of a two-party session.

    ``traffic`` and ``total_bytes`` count the framed bytes each party
    pushed onto the wire, per direction and message kind: payloads,
    frame headers and CRCs, and any retransmits.  ``transcript_digest``
    is the hex SHA-256 of the garbler->evaluator message transcript as
    verified by both sides, ``first_level_s`` the latency until the
    first AND level's tables were delivered *and evaluated* (``None``
    for a circuit without AND gates).  ``recovery_events`` lists every
    survived degradation (retransmits, corrupt or duplicate frames),
    ``fault_events`` what the session's
    :class:`~repro.faults.FaultPlan` injected.
    """

    output_bits: List[int]
    traffic: Dict[str, int]
    total_bytes: int
    and_gates: int
    hash_calls_evaluator: int
    transcript_digest: str
    streamed_levels: int
    first_level_s: Optional[float]
    recovery_events: List[RecoveryEvent]
    fault_events: List[FaultEvent]

    @classmethod
    def from_reports(
        cls,
        garbler: Dict[str, object],
        evaluator: Dict[str, object],
        recovery_events: List[RecoveryEvent],
        fault_events: List[FaultEvent],
    ) -> "SessionResult":
        """The result of a session, from the two roles' ``report()``
        dicts (:mod:`repro.gc.roles`) -- however the roles were
        scheduled, and whichever process each ran in."""
        traffic: Dict[str, int] = {}
        for direction, report in (
            ("garbler->evaluator", garbler),
            ("evaluator->garbler", evaluator),
        ):
            for kind, size in report["sent_bytes"].items():
                traffic[f"{direction}:{kind}"] = size
        return cls(
            output_bits=list(evaluator["output_bits"]),
            traffic=traffic,
            total_bytes=sum(traffic.values()),
            and_gates=evaluator["and_gates"],
            hash_calls_evaluator=evaluator["hash_calls"],
            transcript_digest=evaluator["transcript_digest"],
            streamed_levels=evaluator["streamed_levels"],
            first_level_s=evaluator["first_level_s"],
            recovery_events=recovery_events,
            fault_events=fault_events,
        )


class TwoPartySession:
    """One two-party session's parameters: Alice (Garbler) and Bob
    (Evaluator) on ``circuit``.

    :meth:`run_streamed` runs it to completion; a
    :class:`StreamedDriver` (or the session service) steps it.  The two
    parties only interact through their framed pair; neither reads the
    other's state.  ``seed`` fixes all randomness (labels, OT
    ephemerals) for reproducibility.
    """

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 0,
        backend: Optional[Union[str, object]] = None,
        faults: Optional[Union[str, FaultPlan]] = None,
    ) -> None:
        """``backend`` is the hash backend both roles garble and
        evaluate on (anything :func:`~repro.gc.backends.resolve_backend`
        accepts; resolved here, so a bad name fails before any role
        runs).

        ``faults`` arms deterministic frame-fault injection on the
        session's wire: a spec string (``"drop:0.05,seed=7"``), a
        prebuilt :class:`~repro.faults.FaultPlan` (each driver draws
        from its own copy), or ``None`` for no faults.  Building a driver
        raises :class:`~repro.faults.FaultKindUnsupported` for any kind
        outside ``FRAME_FAULTS``.
        """
        circuit.validate()
        self.circuit = circuit
        self.seed = seed
        self.backend = resolve_backend(backend)
        self.faults = faults

    def run_streamed(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> SessionResult:
        """Run the session to completion over the framed lossy transport.

        Tables ship one AND level at a time so evaluation overlaps
        garbling.  Under an armed fault plan the session either
        completes with output and transcript identical to the fault-free
        run or raises a typed :class:`~repro.faults.ProtocolFault` -- it
        never hangs (bounded retransmits) and never returns corrupt
        output (the transcript-digest exchange runs *before* the result
        is built).
        """
        driver = StreamedDriver(self, garbler_bits, evaluator_bits)
        while not driver.done:
            driver.step()
        assert driver.result is not None
        return driver.result


class StreamedDriver:
    """The fused scheduler: both roles of one streamed session on one
    :class:`~repro.gc.channel.FramedPair`, alternating turns.

    The protocol itself lives in :mod:`repro.gc.roles`; this class only
    decides whose turn it is.  :meth:`TwoPartySession.run_streamed` loops
    :meth:`step` to completion; the session multiplexer
    (:mod:`repro.serve`) instead interleaves ``step()`` calls from many
    drivers on one scheduler, so one step is the fairness quantum.  A
    driver's fault plan and recovery ledger belong to its own framed
    pair, so they never leak into whichever session the scheduler steps
    next.

    A step is: every handshake turn of both roles (label draw + OT +
    garbler labels), or one AND level garbled, or one AND level
    evaluated, or every finish turn (decode, output exchange,
    transcript-digest verification) plus the result build -- so a session
    of ``L`` levels takes ``2 * L + 2`` steps.  Within a multi-turn step
    the garbler moves first and the roles alternate.  The level steps
    run in lockstep: the garbler garbles the next level only once the
    evaluator has evaluated the last one, so at most one garbled level
    sits on the wire.

    After a raised fault the driver is ``done`` with ``result`` still
    ``None``.
    """

    def __init__(
        self,
        session: "TwoPartySession",
        garbler_bits: Sequence[int],
        evaluator_bits: Sequence[int],
    ) -> None:
        self.session = session
        self.log = RecoveryLog()
        self.plan = resolve_fault_plan(
            session.faults, FRAME_FAULTS, "an in-process session"
        )
        pair = self.pair = make_framed_pair(plan=self.plan, log=self.log)
        # The roles check their own input arity (ValueError).
        common = dict(
            seed=session.seed,
            down=pair.to_evaluator,
            up=pair.to_garbler,
        )
        self.garbler = GarblerRole(
            session.circuit, garbler_bits, backend=session.backend, **common
        )
        # One backend instance hashes for both roles.
        self.evaluator = EvaluatorRole(
            session.circuit, evaluator_bits, backend=self.garbler.backend,
            **common,
        )
        self.done = False
        self.result: Optional[SessionResult] = None

    # -- scheduling hooks ----------------------------------------------

    @property
    def levels_total(self) -> Optional[int]:
        """AND-level count, known once the handshake ran."""
        levels = self.evaluator.levels
        return None if levels is None else len(levels)

    @property
    def levels_evaluated(self) -> int:
        return self.evaluator.levels_done

    @property
    def streamed_levels(self) -> int:
        """AND levels whose tables were delivered over the wire so far."""
        return self.evaluator.streamed_levels

    @property
    def first_level_s(self) -> Optional[float]:
        """Latency to the first evaluated AND level, once reached."""
        return self.evaluator.first_level_s

    def step(self) -> bool:
        """Advance the session by one quantum; returns ``done``.

        Faults raise out of here exactly as from ``run_streamed``:
        typed :class:`~repro.faults.ProtocolFault` subclasses pass
        through, anything else is normalised to
        :class:`~repro.faults.SessionAborted` with the original as
        ``__cause__``.  Either way the driver is finished -- a faulted
        session never half-steps again.
        """
        if self.done:
            return True
        try:
            self._step_inner()
        except ProtocolFault:
            self.done = True
            raise
        except Exception as exc:
            # An injected fault that corrupted a payload can surface as
            # an arbitrary error deep in OT/decode arithmetic; normalise
            # to the typed hierarchy (original kept as __cause__).
            self.done = True
            raise SessionAborted(f"streamed session aborted: {exc}") from exc
        return self.done

    def _step_inner(self) -> None:
        garbler, evaluator = self.garbler, self.evaluator
        if evaluator.started_at is None:
            # first_level_s counts from here, the garbler's label draw
            # included, not from the evaluator's own first turn.
            evaluator.started_at = time.perf_counter()
            self._alternate(HANDSHAKE)
            return
        if evaluator.levels_done < garbler.levels_done:
            evaluator.take_turn()
        elif garbler.next_turn == LEVEL:
            garbler.take_turn()
        else:
            self._alternate(FINISH)
            self.result = SessionResult.from_reports(
                garbler.report(),
                evaluator.report(),
                recovery_events=list(self.log.events),
                fault_events=(
                    list(self.plan.injected) if self.plan is not None else []
                ),
            )
            self.done = True

    def _alternate(self, phase: str) -> None:
        """Run every pending ``phase`` turn, garbler first, turn about."""
        roles = (self.garbler, self.evaluator)
        while any(role.next_turn == phase for role in roles):
            for role in roles:
                if role.next_turn == phase:
                    role.take_turn()


def run_two_party(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    seed: int = 0,
    backend: Optional[Union[str, object]] = None,
    faults: Optional[Union[str, FaultPlan]] = None,
) -> SessionResult:
    """One-call convenience wrapper: a :class:`TwoPartySession` run to
    completion by :meth:`TwoPartySession.run_streamed`."""
    return TwoPartySession(
        circuit, seed=seed, backend=backend, faults=faults
    ).run_streamed(garbler_bits, evaluator_bits)
