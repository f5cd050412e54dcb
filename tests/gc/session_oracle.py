"""The per-gate two-party exchange: the oracle the streamed session is held to.

Every session entry point runs the streamed roles (:mod:`repro.gc.roles`:
block label stores, the batched OT kernels on the session's backend, OT
extension from 205 evaluator inputs).  This helper is the independent
implementation they are compared against: the whole circuit garbled by
the per-gate :func:`~tests.gc.oracles.garble_circuit`, Bob's labels by the
per-bit :class:`~tests.gc.oracles.PerBitOtSender` /
:class:`~tests.gc.oracles.PerBitOtReceiver` calls (``choose`` /
``encrypt`` / ``decrypt``: builtin ``pow`` and the scalar KDF, none of
the batched kernels, and the direct handshake at any width, so it is
also the OT-extension oracle), and the evaluation by the per-gate
:func:`~tests.gc.oracles.evaluate_circuit`.  Only the sender's
key ``A`` comes from the batched exponentiation, and a wrong ``A``
fails every choice-1 transfer here: the sender's pad is ``(B / A)^a``,
the receiver's ``A^b``.  It shares no
message code with the roles and puts nothing on a wire: each payload is
kept as the Python value the parties exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuits.netlist import Circuit
from repro.gc.rng import LabelPrg
from tests.gc.oracles import (
    PerBitOtReceiver, PerBitOtSender, evaluate_circuit, garble_circuit,
)


@dataclass
class OracleSession:
    """What the per-gate exchange produced.

    ``payloads`` maps ``(direction, kind)`` to the value sent, with
    ``direction`` ``"down"`` (garbler->evaluator) or ``"up"``
    (evaluator->garbler) and ``kind`` a streamed message kind:
    ``ot_public`` (int), ``ot_points`` (ints), ``ot_ciphers`` (int
    pairs), ``garbler_labels`` (ints), ``tables`` (every AND gate's
    table, netlist order), ``decode`` and ``outputs`` (bits).
    """

    output_bits: List[int]
    and_gates: int
    hash_calls_evaluator: int
    payloads: Dict[Tuple[str, str], object]


def run_oracle_session(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    seed: int = 0,
) -> OracleSession:
    """Garble, transfer and evaluate ``circuit`` with the streamed
    session's seeds (labels ``seed``, OT sender ``seed + 0x0F``, OT
    receiver ``seed + 0xB0B``), so a correct session sends exactly these
    values."""
    garbler = garble_circuit(circuit, seed=seed)
    garbled = garbler.garbled

    sender = PerBitOtSender(LabelPrg(seed + 0x0F))
    receiver = PerBitOtReceiver(LabelPrg(seed + 0xB0B), sender_public=sender.public)
    chosen = [receiver.choose(bit) for bit in evaluator_bits]
    points = [point for point, _ in chosen]
    ciphers = [
        sender.encrypt(
            index, point, garbler.input_label(wire, 0), garbler.input_label(wire, 1)
        )
        for index, (wire, point) in enumerate(zip(circuit.evaluator_input_wires, points))
    ]
    evaluator_labels = [
        receiver.decrypt(index, bit, secret, *pair)
        for index, (bit, (_, secret), pair) in enumerate(
            zip(evaluator_bits, chosen, ciphers)
        )
    ]
    garbler_labels = [
        garbler.input_label(wire, bit)
        for wire, bit in zip(circuit.garbler_input_wires, garbler_bits)
    ]

    result = evaluate_circuit(circuit, garbled, garbler_labels + evaluator_labels)
    return OracleSession(
        output_bits=result.output_bits,
        and_gates=garbled.n_and_gates,
        hash_calls_evaluator=result.hash_calls,
        payloads={
            ("down", "ot_public"): sender.public,
            ("up", "ot_points"): points,
            ("down", "ot_ciphers"): ciphers,
            ("down", "garbler_labels"): garbler_labels,
            ("down", "tables"): garbled.tables,
            ("down", "decode"): garbled.decode_bits,
            ("up", "outputs"): result.output_bits,
        },
    )
