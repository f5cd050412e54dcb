"""The streamed two-party protocol, written once: one script per role.

A GC program is completely known before it runs, so the message order
of a session is data-independent and each party is a straight-line
script over :attr:`Circuit.and_level_plan`.  :class:`GarblerRole`
and :class:`EvaluatorRole` are those two scripts -- the only place the
wire messages (the OT handshake, ``garbler_labels``, ``tables``,
``decode``, ``outputs`` and one ``digest`` per direction) are sent and
received.  DESIGN.md section 11 has the normative table: kind,
direction, turns and payload layout.

The OT handshake is one of two, picked by a rule both parties compute
from the circuit alone (:func:`ot_handshake_bytes`): Chou-Orlandi per
choice (``ot_public``, ``ot_points``, ``ot_ciphers``) below 205
evaluator inputs, OT extension (``otx_public``, ``otx_points``,
``otx_seeds``, ``otx_matrix``, ``otx_ciphers``) from there up, where it
is fewer bytes and less time.  The kinds are the version marker: a peer
on the other handshake fails ``recv_message``'s kind check.
Either way a party computes ahead of its peer: every OT value that
needs only its own state and messages it has already checked is
computed before the receive it does not need, right after the send
that precedes it, so only the work on the new message follows each
receive (DESIGN.md section 4).

A role owns its party's secrets and talks only through its ``(down,
up)`` pair of :class:`~repro.gc.channel.FramedChannel` objects (``down``
carries garbler->evaluator traffic).  Its script is cut into *turns*: a
turn ends where the next ``recv_message`` needs something the peer has
not yet been asked to send, and one AND level garbled or evaluated is
one turn.  ``next_turn`` names the pending turn's phase
(:data:`HANDSHAKE`, :data:`LEVEL`, :data:`FINISH`, then ``None``) and
:meth:`take_turn` runs it, so a scheduler needs no knowledge of the
messages: :class:`~repro.gc.protocol.StreamedDriver` alternates both
roles on one in-process pair (the *fused* drive),
:func:`repro.serve.procs.party_process_main` runs one role straight
through on its end of a socket (the *split* drive).  Per-direction
message order is the same however the turns are interleaved, which is
why every drive produces the same transcript digest.

A role's wire labels live in a *label store*
(:class:`~repro.gc.garble.BlockGarblerStore` /
:class:`~repro.gc.evaluate.BlockEvaluatorStore`): an ``(n_wires + 1,
4) uint32`` block array in the plan's schedule order (inputs, then one
row per gate as the plan runs it, then the sentinel row every INV XORs
in: R for the Garbler, zero for the Evaluator).  The store speaks wire
format -- a level's tables leave and enter it as one ``bytes`` block,
input and output labels are addressed by wire id -- so the scripts
never see its layout.

The framed transport carries raw bytes; every payload's length is
checked here before a store sees it, and every OT group element's range
before any OT arithmetic runs on it or anything is sent in reply, so a
damaged payload surfaces as the typed
:class:`~repro.faults.SessionAborted`, not a random exception or a
wrong answer.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..circuits.netlist import OP_AND, AndLevelPlan, Circuit
from ..faults import SessionAborted, TranscriptMismatch
from .backends import resolve_backend
from .channel import DIGEST_KIND, FramedChannel
from .evaluate import BlockEvaluatorStore
from .garble import BlockGarblerStore
from .hashing import GateHasher
from .labels import bytes_to_ints, ints_to_bytes, pack_bits, unpack_bits
from .ot import GROUP_P, OT_KAPPA, OtExtReceiver, OtExtSender, OtReceiver, OtSender
from .rng import LabelPrg

__all__ = [
    "HANDSHAKE", "LEVEL", "FINISH", "GarblerRole", "EvaluatorRole",
    "check_input_bits", "ot_handshake_bytes",
]

HANDSHAKE = "handshake"
LEVEL = "level"
FINISH = "finish"

_LABEL_BYTES = 16
_TABLE_BYTES = 2 * _LABEL_BYTES
# Wire width of a serialized OT group element.
_POINT_BYTES = (GROUP_P.bit_length() + 7) // 8


def ot_handshake_bytes(n_choices: int, extended: bool) -> int:
    """Payload bytes of the OT messages for ``n_choices`` evaluator
    inputs: one key, one point per OT and two label-wide ciphertexts per
    OT -- per choice when direct; per base OT, plus ``OT_KAPPA`` matrix
    bits and two ciphertexts per choice, when extended.  Both parties
    extend exactly when that is strictly fewer bytes (205 choices up)."""
    ots = OT_KAPPA if extended else n_choices
    payload = (1 + ots) * _POINT_BYTES + 2 * _LABEL_BYTES * ots
    if extended:
        payload += (OT_KAPPA // 8 + 2 * _LABEL_BYTES) * n_choices
    return payload


def check_input_bits(circuit: Circuit, party: str, bits: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``bits`` are ``party``'s inputs to
    ``circuit``: one per input wire, each 0 or 1."""
    if len(bits) != getattr(circuit, f"n_{party}_inputs"):
        raise ValueError(f"wrong number of {party} input bits")
    if not all(bit in (0, 1) for bit in bits):
        raise ValueError(f"{party} input bits must be 0 or 1")


def _exact_ints(data: bytes, width: int, count: int, what: str) -> List[int]:
    """Exactly ``count`` big-endian ``width``-byte fields, or abort."""
    if len(data) != width * count:
        raise SessionAborted(
            f"{what}: expected {count} fields of {width} bytes, "
            f"got {len(data)} bytes"
        )
    return bytes_to_ints(data, width)


def _exact_ot_key(data: bytes, what: str) -> int:
    """One OT sender key, in ``(1, p - 1)``, or abort."""
    (public,) = _exact_ints(data, _POINT_BYTES, 1, what)
    # 0 would put every choice-1 bit on the wire as point 0; 1 and
    # p - 1 have order <= 2, so the pad A^b would not depend on b.
    if not 1 < public < GROUP_P - 1:
        raise SessionAborted(f"{what}: sender key outside (1, p - 1)")
    return public


def _exact_ot_points(data: bytes, count: int, what: str) -> List[int]:
    """Exactly ``count`` OT receiver points, each in ``(0, p)``, or abort."""
    points = _exact_ints(data, _POINT_BYTES, count, what)
    if not all(0 < point < GROUP_P for point in points):
        raise SessionAborted(f"{what}: point outside (0, p)")
    return points


def _unpack_bits(data: bytes, n_bits: int, what: str) -> List[int]:
    if len(data) != (n_bits + 7) // 8:
        raise SessionAborted(
            f"{what}: expected {(n_bits + 7) // 8} packed bytes for "
            f"{n_bits} bits, got {len(data)}"
        )
    return unpack_bits(data, n_bits)


def _verify_transcript(channel: FramedChannel) -> bytes:
    """Receive the sender's claimed digest of ``channel`` and check it
    against what this side was actually delivered -- the check that
    catches what slipped past the per-frame CRC (tampered frames)."""
    claimed = channel.recv_message(DIGEST_KIND)
    delivered = channel.recv_digest()
    if claimed != delivered:
        raise TranscriptMismatch(
            f"{channel.name} transcript diverged: sender "
            f"{claimed.hex()[:16]}..., receiver {delivered.hex()[:16]}..."
        )
    return delivered


class _Role:
    """Turn-taking shared by both parties; subclasses write ``_turns``."""

    #: "garbler" or "evaluator": whose input bits this role holds.
    party = ""

    def __init__(
        self,
        circuit: Circuit,
        bits: Sequence[int],
        *,
        seed: int,
        backend,
        down: FramedChannel,
        up: FramedChannel,
    ) -> None:
        """``backend`` is anything
        :func:`~repro.gc.backends.resolve_backend` accepts."""
        check_input_bits(circuit, self.party, bits)
        self.circuit = circuit
        self.bits = list(bits)
        self.seed = seed
        self.backend = resolve_backend(backend)
        self.down = down
        self.up = up
        self.hasher = GateHasher()
        #: The AND-level plan, known once the handshake turns ran.
        self.levels: Optional[AndLevelPlan] = None
        self.levels_done = 0
        self.output_bits: Optional[List[int]] = None
        self.next_turn: Optional[str] = HANDSHAKE
        self._script = self._turns()

    def take_turn(self) -> None:
        """Run the pending turn; ``next_turn`` then names the one after."""
        self.next_turn = next(self._script, None)

    def _turns(self) -> Iterator[str]:
        """The party's script; yields the phase of the turn that follows
        each turn boundary."""
        raise NotImplementedError

    def _after_level(self) -> str:
        self.levels_done += 1
        return LEVEL if self.levels_done < len(self.levels) else FINISH

    def _ot_turns(self, *args) -> Iterator[str]:
        """The OT handshake both parties derive from the circuit: the
        extension when it puts fewer payload bytes on the wire."""
        n = self.circuit.n_evaluator_inputs
        if ot_handshake_bytes(n, True) < ot_handshake_bytes(n, False):
            return self._ot_extended(*args)
        return self._ot_direct(*args)


class GarblerRole(_Role):
    """Alice: draws the labels, garbles level by level, learns the output.

    Labels are drawn exactly as in :func:`repro.gc.garble.garble_circuit`
    (same PRG order: R, then one label per input wire), so input labels,
    tables and decode bits are bit-identical to the per-gate walk's --
    only the table *stream order* follows the AND-level schedule instead
    of netlist order.
    """

    party = "garbler"

    def _turns(self) -> Iterator[str]:
        circuit, down = self.circuit, self.down
        # R, then one label per input wire: the same draws as
        # next_odd_block() followed by next_block() per input.
        r, *inputs = LabelPrg(self.seed).next_blocks(1 + circuit.n_inputs, self.backend)
        r |= 1
        yield from self._ot_turns(
            [(inputs[w], inputs[w] ^ r) for w in circuit.evaluator_input_wires]
        )
        store = BlockGarblerStore(circuit, inputs, r, self.backend, self.hasher)
        down.send_message(
            "garbler_labels",
            store.select(circuit.garbler_input_wires, self.bits),
        )
        self.levels = store.plan
        yield LEVEL  # the schedule always has its depth-0 phase

        for index in range(len(self.levels)):
            tables = store.garble_level(index)
            if tables:
                down.send_message("tables", tables)
            yield self._after_level()

        down.send_message(
            "decode", pack_bits(store.permute_bits(circuit.outputs))
        )
        yield FINISH

        self.output_bits = _unpack_bits(
            self.up.recv_message("outputs"), len(circuit.outputs), "outputs"
        )
        # Transcript digest exchange, before any result is built: claim
        # the down digest, then verify the evaluator's claim for up.
        down.send_message(DIGEST_KIND, down.send_digest())
        yield FINISH

        _verify_transcript(self.up)

    def _ot_direct(self, pairs) -> Iterator[str]:
        """Chou-Orlandi per choice: key out, points in, ciphertexts out."""
        down, up = self.down, self.up
        sender = OtSender(LabelPrg(self.seed + 0x0F), self.backend)
        down.send_message(
            "ot_public", sender.public.to_bytes(_POINT_BYTES, "big")
        )
        sender.prepare()
        yield HANDSHAKE

        points = _exact_ot_points(
            up.recv_message("ot_points"), len(pairs), "ot_points"
        )
        cipher_pairs = sender.encrypt_batch(points, pairs)
        down.send_message(
            "ot_ciphers", ints_to_bytes([c for pair in cipher_pairs for c in pair])
        )

    def _ot_extended(self, pairs) -> Iterator[str]:
        """OT extension: the evaluator opens, so the first turn only
        draws labels and base secrets; then base points out, seeds and
        matrix in, ciphertexts out."""
        down, up = self.down, self.up
        sender = OtExtSender(LabelPrg(self.seed + 0x0F), self.backend)
        yield HANDSHAKE

        public = _exact_ot_key(up.recv_message("otx_public"), "otx_public")
        down.send_message(
            "otx_points", ints_to_bytes(sender.points(public), _POINT_BYTES)
        )
        sender.derive_pads()
        yield HANDSHAKE

        seed_ciphers = _exact_ints(
            up.recv_message("otx_seeds"), _LABEL_BYTES, 2 * OT_KAPPA, "otx_seeds"
        )
        matrix = up.recv_message("otx_matrix")
        if len(matrix) != OT_KAPPA // 8 * len(pairs):
            raise SessionAborted(
                f"otx_matrix: expected {OT_KAPPA} x {len(pairs)} packed bits, "
                f"got {len(matrix)} bytes"
            )
        down.send_message(
            "otx_ciphers", ints_to_bytes(sender.encrypt(seed_ciphers, matrix, pairs))
        )

    def report(self) -> Dict[str, object]:
        """What the finished garbler contributes to the session result."""
        return {
            "output_bits": self.output_bits,
            "sent_bytes": dict(self.down.bytes_by_class),
        }


class EvaluatorRole(_Role):
    """Bob: obtains his labels by OT, evaluates one table block per AND
    level as it arrives, decodes and shares the output."""

    party = "evaluator"
    #: AND levels whose tables were delivered over the wire so far.
    streamed_levels = 0
    #: Origin of the ``first_level_s`` clock.  The first turn stamps it
    #: unless the scheduler already has (the fused drive starts the
    #: clock before the garbler's opening turn).
    started_at: Optional[float] = None
    #: ``started_at`` to the first AND level evaluated, once reached.
    first_level_s: Optional[float] = None
    #: Hex digest of the delivered garbler->evaluator transcript, once
    #: verified against the garbler's claim.
    transcript_digest: Optional[str] = None

    def _turns(self) -> Iterator[str]:
        circuit, down, up = self.circuit, self.down, self.up
        if self.started_at is None:
            self.started_at = time.perf_counter()
        ot_labels = yield from self._ot_turns()
        labels = down.recv_message("garbler_labels")
        if len(labels) != _LABEL_BYTES * circuit.n_garbler_inputs:
            raise SessionAborted(
                f"garbler_labels: expected {circuit.n_garbler_inputs} labels, "
                f"got {len(labels)} bytes"
            )
        labels += ints_to_bytes(ot_labels)
        store = BlockEvaluatorStore(circuit, labels, self.backend, self.hasher)
        self.levels = store.plan
        yield LEVEL  # the schedule always has its depth-0 phase

        for index in range(len(self.levels)):
            block = b""
            m = len(self.levels.and_batch(index))
            if m:
                block = down.recv_message("tables")
                self.streamed_levels += 1
                if len(block) != _TABLE_BYTES * m:
                    raise SessionAborted(
                        f"table block mismatch: {m} AND gates need "
                        f"{_TABLE_BYTES * m} bytes, got {len(block)}"
                    )
            store.evaluate_level(index, block)
            if m and self.first_level_s is None:
                self.first_level_s = time.perf_counter() - self.started_at
            yield self._after_level()

        decode_bits = _unpack_bits(
            down.recv_message("decode"), len(circuit.outputs), "decode"
        )
        self.output_bits = [
            bit ^ decode
            for bit, decode in zip(
                store.permute_bits(circuit.outputs), decode_bits
            )
        ]
        up.send_message("outputs", pack_bits(self.output_bits))
        yield FINISH

        self.transcript_digest = _verify_transcript(down).hex()
        up.send_message(DIGEST_KIND, up.send_digest())

    def _ot_direct(self) -> Iterator[str]:
        """Chou-Orlandi per choice; returns the chosen labels."""
        down, up = self.down, self.up
        receiver = OtReceiver(LabelPrg(self.seed + 0xB0B), backend=self.backend)
        receiver.draw(self.bits)
        public = _exact_ot_key(down.recv_message("ot_public"), "ot_public")
        up.send_message(
            "ot_points", ints_to_bytes(receiver.points(public), _POINT_BYTES)
        )
        receiver.derive_pads()
        yield HANDSHAKE

        ciphers = _exact_ints(
            down.recv_message("ot_ciphers"),
            _LABEL_BYTES,
            2 * len(self.bits),
            "ot_ciphers",
        )
        return receiver.open(list(zip(ciphers[0::2], ciphers[1::2])))

    def _ot_extended(self) -> Iterator[str]:
        """OT extension: base key out, base points in, seed ciphertexts
        and matrix out, ciphertexts in; returns the chosen labels."""
        down, up = self.down, self.up
        receiver = OtExtReceiver(LabelPrg(self.seed + 0xB0B), self.bits, self.backend)
        up.send_message("otx_public", receiver.public.to_bytes(_POINT_BYTES, "big"))
        receiver.prepare()
        yield HANDSHAKE

        points = _exact_ot_points(
            down.recv_message("otx_points"), OT_KAPPA, "otx_points"
        )
        up.send_message("otx_seeds", ints_to_bytes(receiver.respond(points)))
        up.send_message("otx_matrix", receiver.matrix)
        receiver.derive_pads()
        yield HANDSHAKE

        return receiver.decrypt(
            _exact_ints(
                down.recv_message("otx_ciphers"),
                _LABEL_BYTES,
                2 * len(self.bits),
                "otx_ciphers",
            )
        )

    def report(self) -> Dict[str, object]:
        """What the finished evaluator contributes to the session result."""
        return {
            "output_bits": self.output_bits,
            "transcript_digest": self.transcript_digest,
            "sent_bytes": dict(self.up.bytes_by_class),
            "streamed_levels": self.streamed_levels,
            "first_level_s": self.first_level_s,
            "levels": self.levels_done,
            "and_gates": self.circuit.op.count(OP_AND),
            "hash_calls": self.hasher.calls,
        }
