"""Level-streamed session: equivalence, edge cases, degradation ledger."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import Gate, GateOp
from repro.circuits.stdlib.integer import encode_int, less_than
from repro.faults import (
    FaultKindUnsupported,
    FaultPlan,
    FrameTimeout,
    ProtocolFault,
    SessionAborted,
)
from repro.gc import protocol as protocol_mod
from repro.gc.channel import LossyWire
from repro.gc.ot import GROUP_P
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party
from repro.gc.roles import _POINT_BYTES, EvaluatorRole, GarblerRole
from repro.serve import PeerSocketWire, SessionMultiplexer
from repro.serve.procs import make_party_channels
from tests.conftest import circuit_from_gates
from tests.gc.session_oracle import run_oracle_session


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


class TestStreamedEquivalence:
    @pytest.mark.parametrize("fixture", ["tiny_circuit", "adder_circuit", "mixed_circuit"])
    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_matches_oracle(self, request, fixture, backend):
        circuit = request.getfixturevalue(fixture)
        g, e = _bits(circuit)
        oracle = run_oracle_session(circuit, g, e)
        streamed = run_two_party(circuit, g, e, backend=backend)
        assert streamed.output_bits == oracle.output_bits
        assert streamed.and_gates == oracle.and_gates
        assert streamed.hash_calls_evaluator == oracle.hash_calls_evaluator
        assert streamed.transcript_digest
        assert streamed.recovery_events == []
        assert streamed.fault_events == []

    def test_streams_one_block_per_and_level(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        result = run_two_party(mixed_circuit, g, e)
        and_levels = sum(
            1
            for and_positions, _ in mixed_circuit.and_level_schedule()
            if and_positions
        )
        assert result.streamed_levels == and_levels
        assert result.first_level_s is not None and result.first_level_s > 0

    def test_backend_choice_is_transcript_invariant(self, adder_circuit):
        g, e = _bits(adder_circuit)
        reference = run_two_party(adder_circuit, g, e)
        batched = run_two_party(adder_circuit, g, e, backend="auto")
        assert batched.output_bits == reference.output_bits
        assert batched.transcript_digest == reference.transcript_digest

    def test_exhaustive_tiny(self, tiny_circuit):
        for a in (0, 1):
            for b in (0, 1):
                oracle = run_oracle_session(tiny_circuit, [a], [b])
                streamed = run_two_party(tiny_circuit, [a], [b])
                assert streamed.output_bits == oracle.output_bits
                assert streamed.output_bits == [(a & b) ^ (1 - a)]

    def test_seed_changes_digest_not_outputs(self, adder_circuit):
        g, e = _bits(adder_circuit)
        one = run_two_party(adder_circuit, g, e, seed=1)
        two = run_two_party(adder_circuit, g, e, seed=2)
        assert one.output_bits == two.output_bits
        assert one.transcript_digest != two.transcript_digest


class TestZeroLengthEdges:
    """Degenerate shapes stream on either label-hash backend: the
    serializers and the batched kernels see zero-length payloads here."""

    @pytest.fixture
    def no_evaluator_inputs(self):
        gates = [
            Gate(GateOp.AND, 0, 1, 2),
            Gate(GateOp.XOR, 0, 2, 3),
        ]
        return circuit_from_gates(2, 0, gates, [3], "no-eval-inputs")

    @pytest.fixture
    def xor_only(self):
        gates = [
            Gate(GateOp.XOR, 0, 1, 2),
            Gate(GateOp.INV, 2, -1, 3),
        ]
        return circuit_from_gates(1, 1, gates, [3], "xor-only")

    @pytest.fixture
    def single_level(self):
        gates = [Gate(GateOp.AND, 0, 1, 2)]
        return circuit_from_gates(1, 1, gates, [2], "one-and")

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_no_evaluator_inputs(self, no_evaluator_inputs, backend):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(
                    no_evaluator_inputs, [a, b], [], backend=backend
                )
                assert result.output_bits == [a ^ (a & b)]

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_no_and_gates(self, xor_only, backend):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(xor_only, [a], [b], backend=backend)
                assert result.output_bits == [1 ^ a ^ b]
                assert result.and_gates == 0
                assert result.streamed_levels == 0
                assert result.first_level_s is None

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_single_and_level(self, single_level, backend):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(single_level, [a], [b], backend=backend)
                assert result.output_bits == [a & b]
                assert result.streamed_levels == 1

    def test_wrong_input_counts_rejected(self, single_level):
        with pytest.raises(ValueError, match="garbler input bits"):
            run_two_party(single_level, [0, 1], [0])
        with pytest.raises(ValueError, match="evaluator input bits"):
            run_two_party(single_level, [0], [])


class TestFaultWiring:
    def test_explicit_faults_beat_env(self, tiny_circuit, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "drop:1.0,seed=3")
        result = run_two_party(tiny_circuit, [1], [0], faults="seed=1")
        assert result.fault_events == []

    def test_chaos_kind_in_env_stops_nothing(self, tiny_circuit, monkeypatch):
        """A kind the in-process session refuses, named only in the
        environment, is never read: the session runs clean."""
        clean = run_two_party(tiny_circuit, [0], [1])
        monkeypatch.setenv("REPRO_FAULTS", "sever")
        result = run_two_party(tiny_circuit, [0], [1])
        assert result.fault_events == []
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest

    def test_default_entry_point_injects_the_plan(self, mixed_circuit):
        """``run_two_party`` with no other argument consults the plan:
        frames drop, the transport retransmits, and the session lands on
        the fault-free output and transcript."""
        g, e = _bits(mixed_circuit)
        clean = run_two_party(mixed_circuit, g, e)
        result = run_two_party(mixed_circuit, g, e, faults="drop:0.3,seed=3")
        assert result.fault_events
        assert {event.kind for event in result.fault_events} == {"drop"}
        assert any(
            event.kind == "retransmit" for event in result.recovery_events
        )
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest

    @pytest.mark.parametrize("source", ["spec", "plan"])
    def test_chaos_kind_rejected_before_a_frame_moves(
        self, tiny_circuit, monkeypatch, source
    ):
        """An in-process wire cannot kill a party or sever a socket: the
        session refuses those kinds, spec or plan, before it runs.
        Before the check, ``kill_party`` ran a clean session and
        reported nothing."""
        pushed = []
        monkeypatch.setattr(
            LossyWire, "push", lambda self, data, seq: pushed.append(seq)
        )
        faults = {
            "spec": "kill_party,seed=3",
            "plan": FaultPlan({"drop": 0.1, "sever": 1.0}, seed=3),
        }[source]
        with pytest.raises(FaultKindUnsupported, match="in-process session"):
            run_two_party(tiny_circuit, [1], [0], faults=faults)
        session = TwoPartySession(tiny_circuit, faults=faults)
        with pytest.raises(FaultKindUnsupported):
            StreamedDriver(session, [1], [0])
        service = SessionMultiplexer()
        with pytest.raises(FaultKindUnsupported):
            service.submit(session, [1], [0])
        assert service.run_until_complete().sessions == []
        assert pushed == []


class TestWireAccounting:
    def test_total_bytes_are_the_bytes_on_the_wire(self, monkeypatch):
        """A session reports what its frames put on the wire: for the
        32-bit millionaires session, 7,013 B pushed through
        ``LossyWire.push`` (a group element is 96 B, each frame adds
        ``FRAME_OVERHEAD`` and its kind)."""
        builder = CircuitBuilder()
        alice = builder.add_garbler_inputs(32)
        bob = builder.add_evaluator_inputs(32)
        builder.mark_outputs([less_than(builder, bob, alice)])
        circuit = builder.build("millionaires")
        pushed = []
        real_push = LossyWire.push

        def push(self, data, seq):
            pushed.append(len(data))
            return real_push(self, data, seq)

        monkeypatch.setattr(LossyWire, "push", push)
        result = run_two_party(
            circuit,
            encode_int(4_200_000, 32),
            encode_int(3_700_000, 32),
            seed=2023,
        )
        assert result.output_bits == [1]
        assert result.total_bytes == sum(pushed) == 7_013


def _damage_first(channel, kind, damage):
    """Make ``channel`` a stub peer for one message: its first ``kind``
    payload leaves as ``damage(payload)``, framed by the real
    ``send_message`` -- CRC, sequence numbers and the transcript digest
    all hold, so only the receiving role's own checks can object."""
    real_send, done = channel.send_message, []

    def send(sent_kind, payload):
        if sent_kind == kind and not done:
            done.append(True)
            payload = damage(payload)
        return real_send(sent_kind, payload)

    channel.send_message = send


def _resize(delta):
    """Payload damage: ``delta`` zero bytes longer, or shorter."""
    return lambda payload: payload + bytes(delta) if delta > 0 else payload[:delta]


def _split_drive(
    circuit, backend, kind=None, damage=None, *,
    roles=(GarblerRole, EvaluatorRole), io_timeout_s=30.0,
):
    """Both roles straight through ``take_turn`` on a ``socketpair``, no
    driver around either, with the first ``kind`` payload damaged where
    its sender hands it to the transport.  Returns what each party
    raised and each party's ``(down, up)`` channels."""
    bits = dict(zip(("garbler", "evaluator"), _bits(circuit)))
    socks = dict(zip(("garbler", "evaluator"), socket.socketpair()))
    errors, channels = {}, {}

    def party(role_cls):
        name = role_cls.party
        wire = PeerSocketWire(
            socks[name], f"{name} endpoint", io_timeout_s=io_timeout_s
        )
        down, up = channels[name] = make_party_channels(wire)
        _damage_first(down if name == "garbler" else up, kind, damage)
        try:
            role = role_cls(
                circuit, bits[name], seed=3, backend=backend, down=down, up=up,
            )
            while role.next_turn is not None:
                role.take_turn()
        except BaseException as exc:
            errors[name] = exc
        finally:
            wire.close()

    threads = [
        threading.Thread(target=party, args=(role_cls,), daemon=True)
        for role_cls in roles
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    return errors, channels


@pytest.mark.parametrize("backend", ["auto"])
@pytest.mark.parametrize("delta", [-1, -32, 32])
class TestDamagedTableBlock:
    """A table block of the wrong length seals as the role's typed
    ``SessionAborted`` before any array is built from it."""

    def test_fused_drive(self, adder_circuit, backend, delta):
        g, e = _bits(adder_circuit)
        driver = StreamedDriver(
            TwoPartySession(adder_circuit, seed=3, backend=backend), g, e
        )
        _damage_first(driver.pair.to_evaluator, "tables", _resize(delta))
        with pytest.raises(SessionAborted, match="table block mismatch") as caught:
            while not driver.step():
                pass
        # Raised typed by the role, not normalised from a stray error.
        assert caught.value.__cause__ is None
        assert driver.done and driver.result is None
        assert driver.evaluator.first_level_s is None  # no AND level ran

    def test_split_drive(self, adder_circuit, backend, delta):
        """No driver around the evaluator: ``take_turn`` itself must
        raise the typed fault."""
        errors, _ = _split_drive(adder_circuit, backend, "tables", _resize(delta))
        assert isinstance(errors["evaluator"], SessionAborted), errors
        assert "table block mismatch" in str(errors["evaluator"])
        # The garbler only ever sees its peer go away.
        assert isinstance(errors["garbler"], ProtocolFault), errors


def _first_point(value):
    """Payload damage: the leading group element becomes ``value``."""
    return lambda payload: value.to_bytes(_POINT_BYTES, "big") + payload[_POINT_BYTES:]


_KEY_WITNESSES = {
    "zero": _first_point(0),
    "one": _first_point(1),
    "p_minus_1": _first_point(GROUP_P - 1),
    "all_ones": _first_point((1 << (8 * _POINT_BYTES)) - 1),
    "10_bytes": _resize(10 - _POINT_BYTES),
    "192_bytes": _resize(_POINT_BYTES),
}
_POINT_WITNESSES = {
    "one_short": _resize(-_POINT_BYTES),
    "one_extra": _resize(_POINT_BYTES),
    "zero_point": _first_point(0),
    "point_ge_p": _first_point(GROUP_P),
}
_CIPHER_WITNESSES = {
    "16_short": _resize(-16),
    "32_short": _resize(-32),
    "32_long": _resize(32),
}
# kind -> {witness: damage}.  The direct handshake's kinds run on the
# 8-input adder, the extension's on the 211-input ``wide_circuit``.
_OT_WITNESSES = {
    "ot_public": _KEY_WITNESSES,
    "ot_points": _POINT_WITNESSES,
    "ot_ciphers": _CIPHER_WITNESSES,
    "otx_public": _KEY_WITNESSES,
    "otx_points": _POINT_WITNESSES,
    "otx_seeds": {"16_short": _resize(-16), "16_long": _resize(16)},
    "otx_matrix": {
        "1_short": _resize(-1),
        "1_long": _resize(1),
        # 128 rows of ceil(211 / 8) bytes: rows are packed end to end,
        # not padded to a byte each.
        "rows_padded": _resize(128 * 27 - 16 * 211),
    },
    "otx_ciphers": _CIPHER_WITNESSES,
}
# Sent by the evaluator, so the garbler's to refuse; the rest go down.
_UP_KINDS = {"ot_points", "otx_public", "otx_seeds", "otx_matrix"}
# The first message the refusing party would have sent had it accepted.
_REPLY = {
    "ot_public": "ot_points",
    "ot_points": "ot_ciphers",
    "ot_ciphers": "outputs",
    "otx_public": "otx_points",
    "otx_points": "otx_seeds",
    "otx_seeds": "otx_ciphers",
    "otx_matrix": "otx_ciphers",
    "otx_ciphers": "outputs",
}


@pytest.fixture
def ot_circuit(request, kind):
    return request.getfixturevalue(
        "wide_circuit" if kind.startswith("otx_") else "adder_circuit"
    )


@pytest.mark.parametrize("backend", ["auto"])
@pytest.mark.parametrize(
    "kind,damage",
    [
        pytest.param(kind, damage, id=f"{kind}-{witness}")
        for kind, witnesses in _OT_WITNESSES.items()
        for witness, damage in witnesses.items()
    ],
)
class TestDamagedOtPayload:
    """An OT payload of the wrong length, or a group element out of
    range, seals as the receiving role's typed ``SessionAborted`` before
    any OT arithmetic and before anything is sent in reply -- never as a
    completed session with wrong output bits."""

    def test_fused_drive(self, ot_circuit, backend, kind, damage):
        g, e = _bits(ot_circuit)
        driver = StreamedDriver(
            TwoPartySession(ot_circuit, seed=3, backend=backend), g, e
        )
        pair = driver.pair
        sent, replies = (
            (pair.to_garbler, pair.to_evaluator) if kind in _UP_KINDS
            else (pair.to_evaluator, pair.to_garbler)
        )
        _damage_first(sent, kind, damage)
        with pytest.raises(SessionAborted, match=f"^{kind}: ") as caught:
            while not driver.step():
                pass
        assert caught.value.__cause__ is None
        assert driver.done and driver.result is None
        # Nothing that depends on the refuser's secrets left it.
        assert _REPLY[kind] not in replies.bytes_by_class

    def test_split_drive(self, ot_circuit, backend, kind, damage):
        errors, channels = _split_drive(ot_circuit, backend, kind, damage)
        refuser, peer = (
            ("garbler", "evaluator") if kind in _UP_KINDS
            else ("evaluator", "garbler")
        )
        assert isinstance(errors[refuser], SessionAborted), errors
        assert str(errors[refuser]).startswith(f"{kind}: ")
        assert errors[refuser].__cause__ is None
        # The peer only ever sees the refusing party go away.
        assert isinstance(errors[peer], ProtocolFault), errors
        down, up = channels[refuser]
        replies = down if refuser == "garbler" else up
        assert _REPLY[kind] not in replies.bytes_by_class


class _DirectGarbler(GarblerRole):
    _ot_turns = GarblerRole._ot_direct


class _DirectEvaluator(EvaluatorRole):
    _ot_turns = EvaluatorRole._ot_direct


@pytest.mark.parametrize("stubborn", [_DirectGarbler, _DirectEvaluator])
class TestHandshakeModeMismatch:
    """One party on the direct handshake where the circuit calls for the
    extension: the message kinds are the version marker, so the session
    ends in a typed fault within the transport's bound."""

    def test_fused_drive(self, wide_circuit, stubborn, monkeypatch):
        monkeypatch.setattr(protocol_mod, stubborn.__base__.__name__, stubborn)
        g, e = _bits(wide_circuit)
        with pytest.raises(SessionAborted):
            run_two_party(wide_circuit, g, e, backend="auto")

    def test_split_drive(self, wide_circuit, stubborn):
        roles = (
            (stubborn, EvaluatorRole) if stubborn is _DirectGarbler
            else (GarblerRole, stubborn)
        )
        errors, channels = _split_drive(
            wide_circuit, "auto", roles=roles, io_timeout_s=1.0
        )
        assert set(errors) == {"garbler", "evaluator"}, errors
        # A kind mismatch or a bounded wait; the slower party may only
        # see its peer go away.
        assert all(isinstance(e, ProtocolFault) for e in errors.values()), errors
        assert any(
            isinstance(e, (SessionAborted, FrameTimeout)) for e in errors.values()
        ), errors
        for down, up in channels.values():
            assert "tables" not in down.bytes_by_class
