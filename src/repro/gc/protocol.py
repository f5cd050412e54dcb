"""End-to-end two-party GC session.

Orchestrates the full protocol of paper section 2.1 over the in-memory
channel:

1. *Offline / garbling*: Alice garbles the circuit, producing tables and
   the output decode map.
2. *Input transfer*: Alice sends her own input labels directly; Bob's
   labels are transferred by oblivious transfer so Alice never sees his
   bits.
3. *Online / evaluation*: Bob evaluates gate by gate, consuming the table
   stream in order.
4. *Output*: Bob decodes with the decode bits (both-learn variant) and
   shares the result with Alice.

Two drive modes:

* :meth:`TwoPartySession.run` -- the original monolithic exchange over
  the perfect in-memory :class:`~repro.gc.channel.ChannelPair`, whole
  circuit garbled then whole circuit evaluated.  It is the independent
  oracle the streamed suites compare against: the per-gate reference
  walk and the scalar OT paths, which share no kernel with the streamed
  path;
* :meth:`TwoPartySession.run_streamed` -- level-streamed delivery over
  the framed lossy transport: garbling and evaluation interleave along
  :attr:`Circuit.and_level_plan`, each AND level's table block ships
  as soon as it is computed (the ROADMAP's pipelining framing -- the
  Evaluator starts after the first level instead of after the whole
  circuit), every message rides sequence-numbered CRC-checked frames
  with bounded retransmit, and both sides close with a transcript-digest
  exchange.  The protocol is written once, as the two role scripts of
  :mod:`repro.gc.roles`; :class:`StreamedDriver` here is the *fused*
  scheduler that alternates both roles' turns in one process
  (:func:`repro.serve.procs.party_process_main` is the *split* one).
  Faults injected by a :class:`repro.faults.FaultPlan` either
  leave the result bit-identical to the fault-free run or raise a typed
  :class:`repro.faults.ProtocolFault`; the survived degradations are on
  ``SessionResult.recovery_events``.

This path is exercised by the quickstart example and the protocol tests;
the HAAC accelerator replaces step 3's software evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .. import faults as faults_mod
from ..circuits.netlist import Circuit
from ..faults import (
    FaultEvent,
    FaultPlan,
    ProtocolFault,
    RecoveryEvent,
    RecoveryLog,
    SessionAborted,
    resolve_fault_plan,
)
from .channel import ChannelPair, make_channel_pair, make_framed_pair
from .backends import resolve_backend
from .evaluate import evaluate_circuit
from .garble import garble_circuit
from .ot import OtReceiver, OtSender
from .rng import LabelPrg
from .roles import FINISH, HANDSHAKE, LEVEL, EvaluatorRole, GarblerRole

__all__ = [
    "SessionResult",
    "StreamedDriver",
    "TwoPartySession",
    "run_two_party",
]

# Accounting charges on the legacy channel of TwoPartySession.run.
_LABEL_BYTES = 16
_TABLE_BYTES = 32
_GROUP_BYTES = 64
_DECODE_BITS_PER_BYTE = 8


@dataclass
class SessionResult:
    """Outcome of a two-party run.

    The trailing fields are the reliability ledger added with the
    streamed path: ``recovery_events`` lists every survived degradation
    (transport retransmits, cache recoveries), ``fault_events`` what the
    active :class:`~repro.faults.FaultPlan` injected, ``transcript_digest``
    the hex SHA-256 of the garbler->evaluator message transcript as verified
    by both sides, and ``first_level_s`` the latency until the first AND
    level's tables were delivered *and evaluated* (streamed runs only).
    """

    output_bits: List[int]
    traffic: Dict[str, int]
    total_bytes: int
    and_gates: int
    hash_calls_evaluator: int
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)
    transcript_digest: Optional[str] = None
    streamed: bool = False
    streamed_levels: int = 0
    first_level_s: Optional[float] = None

    @classmethod
    def from_reports(
        cls,
        garbler: Dict[str, object],
        evaluator: Dict[str, object],
        recovery_events: List[RecoveryEvent],
        fault_events: List[FaultEvent],
    ) -> "SessionResult":
        """The result of a streamed session, from the two roles'
        ``report()`` dicts (:mod:`repro.gc.roles`) -- however the roles
        were scheduled, and whichever process each ran in."""
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
            recovery_events=recovery_events,
            fault_events=fault_events,
            transcript_digest=evaluator["transcript_digest"],
            streamed=True,
            streamed_levels=evaluator["streamed_levels"],
            first_level_s=evaluator["first_level_s"],
        )


class TwoPartySession:
    """Drives Alice (Garbler) and Bob (Evaluator) over a channel pair.

    The two parties only interact through the channel pair; neither
    reads the other's state.  ``seed`` fixes all randomness (labels, OT
    ephemerals) for reproducibility.
    """

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 0,
        rekeyed: bool = True,
        backend: Optional[Union[str, object]] = None,
        faults: Optional[Union[str, FaultPlan]] = None,
        chunk_bytes: int = 4096,
        max_retries: int = 8,
    ) -> None:
        """``backend`` is the hash backend :meth:`run_streamed` garbles
        and evaluates on (anything
        :func:`~repro.gc.backends.resolve_backend` accepts; resolved
        here, so a bad name fails in both drive modes).  :meth:`run`
        never uses it: it is the per-gate oracle.

        ``faults`` arms deterministic fault injection: a spec string
        (``"drop:0.05,seed=7"``), a prebuilt
        :class:`~repro.faults.FaultPlan`, or ``None`` to defer to the
        ``REPRO_FAULTS`` environment variable.  Frame faults only bite
        on :meth:`run_streamed`; the process fault ``tear_cache``
        applies to both drive modes.
        """
        circuit.validate()
        self.circuit = circuit
        self.seed = seed
        self.rekeyed = rekeyed
        self.backend = resolve_backend(backend)
        self.faults = faults
        self.chunk_bytes = chunk_bytes
        self.max_retries = max_retries
        self.channels: ChannelPair = make_channel_pair()

    def run(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> SessionResult:
        circuit = self.circuit
        if len(garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")
        down = self.channels.to_evaluator
        up = self.channels.to_garbler

        log = RecoveryLog()
        plan = resolve_fault_plan(self.faults)
        if plan is not None:
            plan.reset()
        with faults_mod.install(plan, log):
            # -- Alice: offline garbling --------------------------------
            garbler = garble_circuit(circuit, seed=self.seed, rekeyed=self.rekeyed)
            garbled = garbler.garbled

            # -- OT round trip for Bob's labels (Bob consumes channel
            #    messages in FIFO order, so the OT handshake goes first)
            sender = OtSender(LabelPrg(self.seed + 0x0F))
            down.send("ot_public", sender.public, _GROUP_BYTES)
            receiver = OtReceiver(LabelPrg(self.seed + 0xB0B))

            # Batched fixed-base OT: one windowed table of g serves all
            # of Bob's choice bits, its width chosen from their count
            # (transcript-identical to per-bit choose calls).
            receiver.draw(evaluator_bits)
            bob_points = receiver.points(down.recv("ot_public"))
            up.send("ot_points", bob_points, _GROUP_BYTES * len(bob_points))
            receiver.derive_pads()
            points = up.recv("ot_points")

            # Batched sender encryption: one variable-base builtin pow
            # per bit, the (A^{-1})^a pad factor shared across the batch,
            # all 2n pads from one KDF call (transcript-identical to
            # per-bit encrypt).
            label_pairs = [
                (garbler.input_label(wire, 0), garbler.input_label(wire, 1))
                for wire in circuit.evaluator_input_wires
            ]
            cipher_pairs = sender.encrypt_batch(points, label_pairs)
            down.send(
                "ot_ciphers", cipher_pairs, 2 * _LABEL_BYTES * len(cipher_pairs)
            )

            # -- Alice: tables, decode map and her own input labels -----
            down.send("tables", garbled.tables, _TABLE_BYTES * len(garbled.tables))
            down.send(
                "decode",
                garbled.decode_bits,
                (len(garbled.decode_bits) + _DECODE_BITS_PER_BYTE - 1)
                // _DECODE_BITS_PER_BYTE,
            )
            alice_labels = [
                garbler.input_label(wire, bit)
                for wire, bit in zip(circuit.garbler_input_wires, garbler_bits)
            ]
            down.send(
                "garbler_labels", alice_labels, _LABEL_BYTES * len(alice_labels)
            )

            # -- Bob: receive everything and evaluate --------------------
            bob_ciphers = down.recv("ot_ciphers")
            tables = down.recv("tables")
            decode_bits = down.recv("decode")
            bob_alice_labels = down.recv("garbler_labels")
            bob_labels = receiver.open(bob_ciphers)
            input_labels = list(bob_alice_labels) + bob_labels
            garbled_for_bob = type(garbled)(
                tables=tables,
                decode_bits=decode_bits,
                n_and_gates=len(tables),
            )
            result = evaluate_circuit(
                circuit, garbled_for_bob, input_labels, rekeyed=self.rekeyed
            )

            # -- Output sharing ------------------------------------------
            up.send(
                "outputs",
                result.output_bits,
                (len(result.output_bits) + _DECODE_BITS_PER_BYTE - 1)
                // _DECODE_BITS_PER_BYTE,
            )

        return SessionResult(
            output_bits=result.output_bits,
            traffic=self.channels.traffic_report(),
            total_bytes=self.channels.total_bytes,
            and_gates=garbled.n_and_gates,
            hash_calls_evaluator=result.hash_calls,
            recovery_events=list(log.events),
            fault_events=list(plan.injected) if plan is not None else [],
        )

    def run_streamed(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> SessionResult:
        """Level-streamed session over the framed lossy transport.

        Same handshake and bit-identical outputs as :meth:`run`; tables
        ship one AND level at a time so evaluation overlaps garbling.
        Under an armed fault plan the session either completes with
        output and transcript identical to the fault-free run or raises
        a typed :class:`~repro.faults.ProtocolFault` -- it never hangs
        (bounded retransmits) and never returns corrupt output (the
        transcript-digest exchange runs *before* the result is built).
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
    drivers on one scheduler, so one step is the fairness quantum.  Each
    step runs under the session's *own* ``faults.install`` scope --
    installed on entry, popped on exit -- so one session's fault plan and
    recovery ledger never leak into whichever session the scheduler
    steps next.

    A step is: every handshake turn of both roles (label draw + OT +
    garbler labels), or one AND level garbled, or one AND level
    evaluated, or every finish turn (decode, output exchange,
    transcript-digest verification) plus the result build -- so a session
    of ``L`` levels takes ``2 * L + 2`` steps.  Within a multi-turn step
    the garbler moves first and the roles alternate.

    ``max_inflight_levels`` bounds how many garbled-but-not-yet-evaluated
    AND levels may sit on the wire before the driver switches to
    evaluating (per-session backpressure against the retransmit-buffer
    and reassembly-window growth).  Any window produces bit-identical
    transcripts: the per-direction message order is the same as the
    window-1 lockstep drive, only the interleaving across directions
    shifts.

    After a raised fault the driver is ``done`` with ``result`` still
    ``None``.
    """

    def __init__(
        self,
        session: "TwoPartySession",
        garbler_bits: Sequence[int],
        evaluator_bits: Sequence[int],
        *,
        max_inflight_levels: int = 1,
    ) -> None:
        if max_inflight_levels < 1:
            raise ValueError("max_inflight_levels must be >= 1")
        self.session = session
        self.max_inflight_levels = max_inflight_levels
        self.log = RecoveryLog()
        self.plan = resolve_fault_plan(session.faults)
        if self.plan is not None:
            self.plan.reset()
        pair = self.pair = make_framed_pair(
            plan=self.plan,
            log=self.log,
            chunk_bytes=session.chunk_bytes,
            max_retries=session.max_retries,
        )
        # The roles check their own input arity (ValueError).
        common = dict(
            seed=session.seed,
            rekeyed=session.rekeyed,
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
            with faults_mod.install(self.plan, self.log):
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
        in_flight = garbler.levels_done - evaluator.levels_done
        if garbler.next_turn == LEVEL and in_flight < self.max_inflight_levels:
            garbler.take_turn()
        elif in_flight:
            evaluator.take_turn()
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
    rekeyed: bool = True,
    backend: Optional[Union[str, object]] = None,
    faults: Optional[Union[str, FaultPlan]] = None,
    streamed: bool = False,
) -> SessionResult:
    """One-call convenience wrapper around :class:`TwoPartySession`."""
    session = TwoPartySession(
        circuit,
        seed=seed,
        rekeyed=rekeyed,
        backend=backend,
        faults=faults,
    )
    if streamed:
        return session.run_streamed(garbler_bits, evaluator_bits)
    return session.run(garbler_bits, evaluator_bits)
