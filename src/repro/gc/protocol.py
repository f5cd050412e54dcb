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

Two drive modes share the handshake:

* :meth:`TwoPartySession.run` -- the original monolithic exchange over
  the perfect in-memory :class:`~repro.gc.channel.ChannelPair`;
* :meth:`TwoPartySession.run_streamed` -- level-streamed delivery over
  the framed lossy transport: garbling and evaluation interleave along
  :meth:`Circuit.and_level_schedule`, each AND level's table block ships
  as soon as it is computed (the ROADMAP's pipelining framing -- the
  Evaluator starts after the first level instead of after the whole
  circuit), every message rides sequence-numbered CRC-checked frames
  with bounded retransmit, and both sides close with a transcript-digest
  exchange.  Faults injected by a :class:`repro.faults.FaultPlan` either
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
from ..circuits.netlist import OP_AND, OP_XOR, Circuit
from ..faults import (
    FaultEvent,
    FaultPlan,
    ProtocolFault,
    RecoveryEvent,
    RecoveryLog,
    SessionAborted,
    TranscriptMismatch,
    resolve_fault_plan,
)
from .channel import (
    DIGEST_KIND,
    ChannelPair,
    FramedPair,
    make_channel_pair,
    make_framed_pair,
)
from .evaluate import evaluate_circuit, evaluate_circuit_batched
from .garble import garble_circuit, garble_circuit_batched
from .halfgate import GarbledTable, eval_and, garble_and
from .hashing import GateHasher
from .labels import lsb
from .ot import GROUP_P, OtReceiver, OtSender
from .rng import LabelPrg

__all__ = [
    "SessionResult",
    "StreamedDriver",
    "TwoPartySession",
    "run_two_party",
]

_LABEL_BYTES = 16
_TABLE_BYTES = 32
_GROUP_BYTES = 64  # accounting charge per group element (legacy channel)
# Actual wire width of a serialized group element on the framed path.
_POINT_BYTES = (GROUP_P.bit_length() + 7) // 8
_DECODE_BITS_PER_BYTE = 8


@dataclass
class SessionResult:
    """Outcome of a two-party run.

    The trailing fields are the reliability ledger added with the
    streamed path: ``recovery_events`` lists every survived degradation
    (transport retransmits, pool shard retries, cache recoveries,
    backend fallbacks), ``fault_events`` what the active
    :class:`~repro.faults.FaultPlan` injected, ``transcript_digest`` the
    hex SHA-256 of the garbler->evaluator message transcript as verified
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


# --------------------------------------------------------------------------
# Wire serialization helpers (streamed path).  The framed transport
# carries raw bytes, so every message is serialized explicitly; damaged
# payload structure surfaces as SessionAborted, not a random exception.
# --------------------------------------------------------------------------


def _ints_to_bytes(values: Sequence[int], width: int) -> bytes:
    return b"".join(value.to_bytes(width, "big") for value in values)


def _bytes_to_ints(data: bytes, width: int, what: str) -> List[int]:
    if len(data) % width:
        raise SessionAborted(
            f"{what}: payload length {len(data)} is not a multiple of {width}"
        )
    return [
        int.from_bytes(data[i : i + width], "big")
        for i in range(0, len(data), width)
    ]


def _pack_bits(bits: Sequence[int]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


def _unpack_bits(data: bytes, n_bits: int, what: str) -> List[int]:
    if len(data) != (n_bits + 7) // 8:
        raise SessionAborted(
            f"{what}: expected {(n_bits + 7) // 8} packed bytes for "
            f"{n_bits} bits, got {len(data)}"
        )
    return [(data[index // 8] >> (index % 8)) & 1 for index in range(n_bits)]


# --------------------------------------------------------------------------
# Streaming parties
# --------------------------------------------------------------------------


class _StreamingGarbler:
    """Garbler state for level-streamed delivery.

    Labels are drawn exactly as in :func:`repro.gc.garble.garble_circuit`
    (same PRG order: R, then one label per input wire), so input labels,
    tables and decode bits are bit-identical to the monolithic path --
    only the table *stream order* follows the AND-level schedule instead
    of netlist order.
    """

    def __init__(self, circuit: Circuit, seed: int, rekeyed: bool, backend) -> None:
        prg = LabelPrg(seed)
        self.circuit = circuit
        self.r = prg.next_odd_block()
        self.rekeyed = rekeyed
        self.backend = backend
        self.hasher = GateHasher(rekeyed=rekeyed)
        self.zero: List[int] = [
            prg.next_block() for _ in range(circuit.n_inputs)
        ] + [0] * len(circuit.op)
        self.n_and_gates = circuit.op.count(OP_AND)

    def input_label(self, wire: int, bit: int) -> int:
        if wire >= self.circuit.n_inputs:
            raise ValueError(f"wire {wire} is not a primary input")
        return self.zero[wire] ^ (self.r if bit else 0)

    def garble_phase(
        self, and_positions: List[int], free_groups: List[List[int]]
    ) -> bytes:
        """Garble one AND level; returns its serialized table block."""
        circuit = self.circuit
        op_of, a_of, b_of, out_of = circuit.op, circuit.a, circuit.b, circuit.out
        zero = self.zero
        r = self.r
        parts: List[bytes] = []
        if and_positions and self.backend is None:
            for position in and_positions:
                out_zero, table = garble_and(
                    zero[a_of[position]], zero[b_of[position]], r, position,
                    self.hasher,
                )
                zero[out_of[position]] = out_zero
                parts.append(table.to_bytes())
        elif and_positions:
            labels: List[int] = []
            tweaks: List[int] = []
            for position in and_positions:
                wa0 = zero[a_of[position]]
                wb0 = zero[b_of[position]]
                j_g = 2 * position
                labels.extend((wa0, wa0 ^ r, wb0, wb0 ^ r))
                tweaks.extend((j_g, j_g, j_g + 1, j_g + 1))
            hashes = self.backend.hash_labels(labels, tweaks, self.rekeyed)
            self.hasher.record_batch(len(labels))
            for index, position in enumerate(and_positions):
                h_a0, h_a1, h_b0, h_b1 = hashes[4 * index : 4 * index + 4]
                wa0 = zero[a_of[position]]
                wb0 = zero[b_of[position]]
                t_g = h_a0 ^ h_a1 ^ (r if wb0 & 1 else 0)
                w_g0 = h_a0 ^ (t_g if wa0 & 1 else 0)
                t_e = h_b0 ^ h_b1 ^ wa0
                w_e0 = h_b0 ^ ((t_e ^ wa0) if wb0 & 1 else 0)
                zero[out_of[position]] = w_g0 ^ w_e0
                parts.append(GarbledTable(t_g, t_e).to_bytes())
        for group in free_groups:
            for position in group:
                if op_of[position] == OP_XOR:
                    zero[out_of[position]] = (
                        zero[a_of[position]] ^ zero[b_of[position]]
                    )
                else:  # INV
                    zero[out_of[position]] = zero[a_of[position]] ^ r
        return b"".join(parts)

    def decode_bits(self) -> List[int]:
        return [lsb(self.zero[w]) for w in self.circuit.outputs]


class _StreamingEvaluator:
    """Evaluator state consuming one table block per AND level."""

    def __init__(
        self, circuit: Circuit, input_labels: Sequence[int], rekeyed: bool, backend
    ) -> None:
        if len(input_labels) != circuit.n_inputs:
            raise SessionAborted(
                f"expected {circuit.n_inputs} input labels, got {len(input_labels)}"
            )
        self.circuit = circuit
        self.rekeyed = rekeyed
        self.backend = backend
        self.hasher = GateHasher(rekeyed=rekeyed)
        self.labels: List[int] = list(input_labels) + [0] * len(circuit.op)

    def eval_phase(
        self,
        and_positions: List[int],
        free_groups: List[List[int]],
        block: bytes,
    ) -> None:
        circuit = self.circuit
        op_of, a_of, b_of, out_of = circuit.op, circuit.a, circuit.b, circuit.out
        labels = self.labels
        if len(block) != _TABLE_BYTES * len(and_positions):
            raise SessionAborted(
                f"table block mismatch: {len(and_positions)} AND gates need "
                f"{_TABLE_BYTES * len(and_positions)} bytes, got {len(block)}"
            )
        if and_positions:
            tables = [
                GarbledTable.from_bytes(
                    block[_TABLE_BYTES * i : _TABLE_BYTES * (i + 1)]
                )
                for i in range(len(and_positions))
            ]
            if self.backend is None:
                for table, position in zip(tables, and_positions):
                    labels[out_of[position]] = eval_and(
                        labels[a_of[position]], labels[b_of[position]], table,
                        position, self.hasher,
                    )
            else:
                batch: List[int] = []
                tweaks: List[int] = []
                for position in and_positions:
                    batch.extend((labels[a_of[position]], labels[b_of[position]]))
                    tweaks.extend((2 * position, 2 * position + 1))
                hashes = self.backend.hash_labels(batch, tweaks, self.rekeyed)
                self.hasher.record_batch(len(batch))
                for index, position in enumerate(and_positions):
                    h_a, h_b = hashes[2 * index], hashes[2 * index + 1]
                    wa = labels[a_of[position]]
                    wb = labels[b_of[position]]
                    table = tables[index]
                    w_g = h_a ^ (table.generator_row if wa & 1 else 0)
                    w_e = h_b ^ ((table.evaluator_row ^ wa) if wb & 1 else 0)
                    labels[out_of[position]] = w_g ^ w_e
        for group in free_groups:
            for position in group:
                if op_of[position] == OP_XOR:
                    labels[out_of[position]] = (
                        labels[a_of[position]] ^ labels[b_of[position]]
                    )
                else:  # INV forwards the label unchanged
                    labels[out_of[position]] = labels[a_of[position]]

    def decode(self, decode_bits: Sequence[int]) -> List[int]:
        output_labels = [self.labels[w] for w in self.circuit.outputs]
        return [
            lsb(label) ^ decode
            for label, decode in zip(output_labels, decode_bits)
        ]


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
        config=None,
        chunk_bytes: int = 4096,
        max_retries: int = 8,
    ) -> None:
        """``backend`` selects the batched garbling/evaluation substrate.

        ``None`` keeps the audited per-gate reference path; a backend
        name/instance (or ``"auto"``) runs both parties through the
        level-batched engines of :mod:`repro.gc.backends` -- producing
        bitwise-identical traffic either way.

        ``faults`` arms deterministic fault injection: a spec string
        (``"drop:0.05,seed=7"``), a prebuilt
        :class:`~repro.faults.FaultPlan`, or ``None`` to defer to
        ``config.fault_spec`` and then the ``REPRO_FAULTS`` environment
        variable.  ``config`` (a :class:`~repro.sim.config.HaacConfig`)
        also supplies the backend spec when ``backend`` is ``None``.
        Frame faults only bite on :meth:`run_streamed`; process faults
        (``kill_worker`` / ``tear_cache``) apply to both drive modes.
        """
        circuit.validate()
        self.circuit = circuit
        self.seed = seed
        self.rekeyed = rekeyed
        if config is not None:
            if backend is None:
                backend = config.gc_backend_spec()
            if faults is None:
                faults = getattr(config, "fault_spec", None)
        self.backend = backend
        self.faults = faults
        self.chunk_bytes = chunk_bytes
        self.max_retries = max_retries
        self.channels: ChannelPair = make_channel_pair()
        self.framed: Optional[FramedPair] = None

    def _resolved_backend(self):
        if self.backend is None:
            return None
        from .backends import resolve_backend

        return resolve_backend(self.backend)

    @staticmethod
    def _surface_backend_events(resolved, log: RecoveryLog) -> None:
        """Fold silent backend degradations into the recovery ledger."""
        if resolved is None:
            return
        reason = getattr(resolved, "auto_fallback_reason", None)
        if reason and not log.count("backend", "scalar_fallback"):
            log.record("backend", "scalar_fallback", reason)
        pool_reason = getattr(resolved, "pool_disabled_reason", None)
        if pool_reason and not log.count("pool"):
            log.record("pool", "pool_disabled", pool_reason)

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
        resolved = self._resolved_backend()
        with faults_mod.install(plan, log):
            # -- Alice: offline garbling --------------------------------
            if resolved is None:
                garbler = garble_circuit(
                    circuit, seed=self.seed, rekeyed=self.rekeyed
                )
            else:
                garbler = garble_circuit_batched(
                    circuit,
                    seed=self.seed,
                    rekeyed=self.rekeyed,
                    backend=resolved,
                )
            garbled = garbler.garbled

            # -- OT round trip for Bob's labels (Bob consumes channel
            #    messages in FIFO order, so the OT handshake goes first)
            sender = OtSender(LabelPrg(self.seed + 0x0F))
            down.send("ot_public", sender.public, _GROUP_BYTES)
            receiver = OtReceiver(
                LabelPrg(self.seed + 0xB0B), down.recv("ot_public")
            )

            # Batched fixed-base OT: one squaring pass for all of Bob's
            # choice bits (transcript-identical to per-bit choose calls).
            points_and_secrets = receiver.choose_batch(evaluator_bits)
            up.send(
                "ot_points",
                [point for point, _ in points_and_secrets],
                _GROUP_BYTES * len(points_and_secrets),
            )
            points = up.recv("ot_points")

            # Batched fixed-base sender encryption: one variable-base
            # exponentiation per bit, the (A^{-1})^a pad factor shared
            # across the batch (transcript-identical to per-bit encrypt).
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
            bob_labels = receiver.decrypt_batch(
                list(evaluator_bits),
                [secret for _, secret in points_and_secrets],
                bob_ciphers,
            )
            input_labels = list(bob_alice_labels) + bob_labels
            garbled_for_bob = type(garbled)(
                tables=tables,
                decode_bits=decode_bits,
                n_and_gates=len(tables),
            )
            if resolved is None:
                result = evaluate_circuit(
                    circuit, garbled_for_bob, input_labels, rekeyed=self.rekeyed
                )
            else:
                result = evaluate_circuit_batched(
                    circuit,
                    garbled_for_bob,
                    input_labels,
                    rekeyed=self.rekeyed,
                    backend=resolved,
                )

            # -- Output sharing ------------------------------------------
            up.send(
                "outputs",
                result.output_bits,
                (len(result.output_bits) + _DECODE_BITS_PER_BYTE - 1)
                // _DECODE_BITS_PER_BYTE,
            )

        self._surface_backend_events(resolved, log)
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
        circuit = self.circuit
        if len(garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")

        driver = StreamedDriver(self, garbler_bits, evaluator_bits)
        while not driver.done:
            driver.step()
        assert driver.result is not None
        return driver.result


class StreamedDriver:
    """Step-wise drive of one level-streamed session.

    :meth:`TwoPartySession.run_streamed` loops :meth:`step` to
    completion; the session multiplexer (:mod:`repro.serve`) instead
    interleaves ``step()`` calls from many drivers on one scheduler, so
    one step is the fairness quantum.  Each step runs under the
    session's *own* ``faults.install`` scope -- installed on entry,
    popped on exit -- so one session's fault plan and recovery ledger
    never leak into whichever session the scheduler steps next.

    ``max_inflight_levels`` bounds how many garbled-but-not-yet-evaluated
    AND levels may sit on the wire before the driver switches to
    evaluating (per-session backpressure against the retransmit-buffer
    and reassembly-window growth).  Any window produces bit-identical
    transcripts: the per-direction message order is the same as the
    window-1 lockstep drive, only the interleaving across directions
    shifts.

    The phases are: ``handshake`` (label draw + OT + garbler labels),
    ``garble``/``eval`` one AND level per step, then ``finish`` (decode,
    output exchange, transcript-digest verification, result build).
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
        pair: Optional[FramedPair] = None,
    ) -> None:
        circuit = session.circuit
        if len(garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")
        if max_inflight_levels < 1:
            raise ValueError("max_inflight_levels must be >= 1")
        self.session = session
        self.circuit = circuit
        self.garbler_bits = list(garbler_bits)
        self.evaluator_bits = list(evaluator_bits)
        self.max_inflight_levels = max_inflight_levels
        self.log = RecoveryLog()
        self.plan = resolve_fault_plan(session.faults)
        if self.plan is not None:
            self.plan.reset()
        if pair is None:
            pair = make_framed_pair(
                plan=self.plan,
                log=self.log,
                chunk_bytes=session.chunk_bytes,
                max_retries=session.max_retries,
            )
        else:
            if self.plan is not None:
                raise ValueError(
                    "fault plans are applied by LossyWire; a session with "
                    "a fault spec cannot ride a pre-built custom wire "
                    "(e.g. a socket transport)"
                )
            # Pre-built transports (e.g. socket-backed) carry their own
            # wires; attach this session's ledger so transport
            # recoveries land in its recovery_events.
            pair.to_evaluator.log = self.log
            pair.to_garbler.log = self.log
        self.pair = pair
        session.framed = pair
        self.down = pair.to_evaluator
        self.up = pair.to_garbler
        self.resolved = session._resolved_backend()
        self.done = False
        self.result: Optional[SessionResult] = None
        # Phase state.
        self._started = False
        self._levels: Optional[List] = None
        self._g = 0  # levels garbled (tables pushed onto the wire)
        self._e = 0  # levels evaluated
        self._t_start: Optional[float] = None
        self._first_level_s: Optional[float] = None
        self._streamed_levels = 0
        self._alice: Optional[_StreamingGarbler] = None
        self._bob: Optional[_StreamingEvaluator] = None

    # -- scheduling hooks ----------------------------------------------

    @property
    def levels_total(self) -> Optional[int]:
        """AND-level count, known once the handshake ran."""
        return None if self._levels is None else len(self._levels)

    @property
    def levels_evaluated(self) -> int:
        return self._e

    @property
    def streamed_levels(self) -> int:
        """AND levels whose tables were delivered over the wire so far."""
        return self._streamed_levels

    @property
    def first_level_s(self) -> Optional[float]:
        """Latency to the first evaluated AND level, once reached."""
        return self._first_level_s

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
        if not self._started:
            self._handshake()
            self._started = True
            return
        can_garble = self._g < len(self._levels)
        can_eval = self._e < self._g
        in_flight = self._g - self._e
        if can_garble and (in_flight < self.max_inflight_levels or not can_eval):
            self._garble_one()
        elif can_eval:
            self._eval_one()
        else:
            self._finish()

    # -- phases ---------------------------------------------------------

    def _handshake(self) -> None:
        circuit = self.circuit
        session = self.session
        down, up = self.down, self.up
        self._t_start = time.perf_counter()

        # -- Alice: draw labels (R + input labels, same PRG order as run)
        alice = _StreamingGarbler(
            circuit, session.seed, session.rekeyed, self.resolved
        )
        self._alice = alice

        # -- OT handshake over the framed wire -------------------------
        sender = OtSender(LabelPrg(session.seed + 0x0F))
        down.send_message(
            "ot_public", sender.public.to_bytes(_POINT_BYTES, "big")
        )
        receiver = OtReceiver(
            LabelPrg(session.seed + 0xB0B),
            int.from_bytes(down.recv_message("ot_public"), "big"),
        )
        points_and_secrets = receiver.choose_batch(self.evaluator_bits)
        up.send_message(
            "ot_points",
            _ints_to_bytes([p for p, _ in points_and_secrets], _POINT_BYTES),
        )
        points = _bytes_to_ints(
            up.recv_message("ot_points"), _POINT_BYTES, "ot_points"
        )
        label_pairs = [
            (alice.input_label(wire, 0), alice.input_label(wire, 1))
            for wire in circuit.evaluator_input_wires
        ]
        cipher_pairs = sender.encrypt_batch(points, label_pairs)
        down.send_message(
            "ot_ciphers",
            _ints_to_bytes(
                [c for pair_ in cipher_pairs for c in pair_], _LABEL_BYTES
            ),
        )
        alice_labels = [
            alice.input_label(wire, bit)
            for wire, bit in zip(circuit.garbler_input_wires, self.garbler_bits)
        ]
        down.send_message(
            "garbler_labels", _ints_to_bytes(alice_labels, _LABEL_BYTES)
        )

        # -- Bob: recover his labels, set up streaming evaluation ------
        flat_ciphers = _bytes_to_ints(
            down.recv_message("ot_ciphers"), _LABEL_BYTES, "ot_ciphers"
        )
        bob_cipher_pairs = list(zip(flat_ciphers[0::2], flat_ciphers[1::2]))
        bob_alice_labels = _bytes_to_ints(
            down.recv_message("garbler_labels"), _LABEL_BYTES, "garbler_labels"
        )
        if len(bob_alice_labels) != circuit.n_garbler_inputs:
            raise SessionAborted(
                f"garbler_labels: expected {circuit.n_garbler_inputs} labels, "
                f"got {len(bob_alice_labels)}"
            )
        bob_labels = receiver.decrypt_batch(
            self.evaluator_bits,
            [secret for _, secret in points_and_secrets],
            bob_cipher_pairs,
        )
        self._bob = _StreamingEvaluator(
            circuit, bob_alice_labels + bob_labels, session.rekeyed, self.resolved
        )
        self._levels = list(circuit.and_level_schedule())

    def _garble_one(self) -> None:
        and_positions, free_groups = self._levels[self._g]
        block = self._alice.garble_phase(and_positions, free_groups)
        if and_positions:
            self.down.send_message("tables", block)
        self._g += 1

    def _eval_one(self) -> None:
        and_positions, free_groups = self._levels[self._e]
        if and_positions:
            block = self.down.recv_message("tables")
            self._streamed_levels += 1
        else:
            block = b""
        self._bob.eval_phase(and_positions, free_groups, block)
        self._e += 1
        if and_positions and self._first_level_s is None:
            self._first_level_s = time.perf_counter() - self._t_start

    def _finish(self) -> None:
        circuit = self.circuit
        down, up = self.down, self.up

        # -- Decode + output sharing -----------------------------------
        down.send_message("decode", _pack_bits(self._alice.decode_bits()))
        decode_bits = _unpack_bits(
            down.recv_message("decode"), len(circuit.outputs), "decode"
        )
        output_bits = self._bob.decode(decode_bits)
        up.send_message("outputs", _pack_bits(output_bits))
        _unpack_bits(up.recv_message("outputs"), len(circuit.outputs), "outputs")

        # -- Transcript digest exchange (before any result is built):
        #    each receiver checks the sender's claimed digest against
        #    what it actually delivered, catching anything that slipped
        #    past the per-frame CRC (e.g. tampered frames).
        down.send_message(DIGEST_KIND, down.send_digest())
        claimed = down.recv_message(DIGEST_KIND)
        delivered = down.recv_digest()
        if claimed != delivered:
            raise TranscriptMismatch(
                "garbler->evaluator transcript diverged: sender "
                f"{claimed.hex()[:16]}..., receiver {delivered.hex()[:16]}..."
            )
        up.send_message(DIGEST_KIND, up.send_digest())
        claimed_up = up.recv_message(DIGEST_KIND)
        if claimed_up != up.recv_digest():
            raise TranscriptMismatch(
                "evaluator->garbler transcript diverged: sender "
                f"{claimed_up.hex()[:16]}..., receiver "
                f"{up.recv_digest().hex()[:16]}..."
            )

        TwoPartySession._surface_backend_events(self.resolved, self.log)
        self.result = SessionResult(
            output_bits=output_bits,
            traffic=self.pair.traffic_report(),
            total_bytes=self.pair.total_bytes,
            and_gates=circuit.op.count(OP_AND),
            hash_calls_evaluator=self._bob.hasher.calls,
            recovery_events=list(self.log.events),
            fault_events=(
                list(self.plan.injected) if self.plan is not None else []
            ),
            transcript_digest=delivered.hex(),
            streamed=True,
            streamed_levels=self._streamed_levels,
            first_level_s=self._first_level_s,
        )
        self.done = True


def run_two_party(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    seed: int = 0,
    rekeyed: bool = True,
    backend: Optional[Union[str, object]] = None,
    faults: Optional[Union[str, FaultPlan]] = None,
    config=None,
    streamed: bool = False,
) -> SessionResult:
    """One-call convenience wrapper around :class:`TwoPartySession`."""
    session = TwoPartySession(
        circuit,
        seed=seed,
        rekeyed=rekeyed,
        backend=backend,
        faults=faults,
        config=config,
    )
    if streamed:
        return session.run_streamed(garbler_bits, evaluator_bits)
    return session.run(garbler_bits, evaluator_bits)
