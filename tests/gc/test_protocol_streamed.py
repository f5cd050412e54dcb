"""Level-streamed session: equivalence, edge cases, degradation ledger."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.circuits.netlist import Circuit, Gate, GateOp
from repro.faults import FrameTimeout, ProtocolFault, SessionAborted
from repro.gc import protocol as protocol_mod
from repro.gc.ot import GROUP_P
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party
from repro.gc.roles import _POINT_BYTES, EvaluatorRole, GarblerRole
from repro.serve import PeerSocketWire
from repro.serve.procs import make_party_channels
from repro.sim.config import HaacConfig


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


class TestStreamedEquivalence:
    @pytest.mark.parametrize("fixture", ["tiny_circuit", "adder_circuit", "mixed_circuit"])
    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_matches_monolithic(self, request, fixture, backend):
        circuit = request.getfixturevalue(fixture)
        g, e = _bits(circuit)
        mono = run_two_party(circuit, g, e, backend=backend)
        streamed = run_two_party(circuit, g, e, backend=backend, streamed=True)
        assert streamed.output_bits == mono.output_bits
        assert streamed.and_gates == mono.and_gates
        assert streamed.hash_calls_evaluator == mono.hash_calls_evaluator
        assert streamed.streamed
        assert streamed.transcript_digest
        assert streamed.recovery_events == []
        assert streamed.fault_events == []

    def test_streams_one_block_per_and_level(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        result = run_two_party(mixed_circuit, g, e, streamed=True)
        and_levels = sum(
            1
            for and_positions, _ in mixed_circuit.and_level_schedule()
            if and_positions
        )
        assert result.streamed_levels == and_levels
        assert result.first_level_s is not None and result.first_level_s > 0

    def test_backend_choice_is_transcript_invariant(self, adder_circuit):
        g, e = _bits(adder_circuit)
        reference = run_two_party(adder_circuit, g, e, streamed=True)
        batched = run_two_party(
            adder_circuit, g, e, backend="auto", streamed=True
        )
        assert batched.output_bits == reference.output_bits
        assert batched.transcript_digest == reference.transcript_digest

    def test_exhaustive_tiny(self, tiny_circuit):
        for a in (0, 1):
            for b in (0, 1):
                mono = run_two_party(tiny_circuit, [a], [b])
                streamed = run_two_party(tiny_circuit, [a], [b], streamed=True)
                assert streamed.output_bits == mono.output_bits
                assert streamed.output_bits == [(a & b) ^ (1 - a)]

    def test_seed_changes_digest_not_outputs(self, adder_circuit):
        g, e = _bits(adder_circuit)
        one = run_two_party(adder_circuit, g, e, seed=1, streamed=True)
        two = run_two_party(adder_circuit, g, e, seed=2, streamed=True)
        assert one.output_bits == two.output_bits
        assert one.transcript_digest != two.transcript_digest


class TestZeroLengthEdges:
    """Degenerate shapes must work in both drive modes (satellite: the
    streamed path's serializers see zero-byte payloads here)."""

    @pytest.fixture
    def no_evaluator_inputs(self):
        gates = [
            Gate(GateOp.AND, 0, 1, 2),
            Gate(GateOp.XOR, 0, 2, 3),
        ]
        return Circuit.from_gates(2, 0, gates, [3], "no-eval-inputs")

    @pytest.fixture
    def xor_only(self):
        gates = [
            Gate(GateOp.XOR, 0, 1, 2),
            Gate(GateOp.INV, 2, -1, 3),
        ]
        return Circuit.from_gates(1, 1, gates, [3], "xor-only")

    @pytest.fixture
    def single_level(self):
        gates = [Gate(GateOp.AND, 0, 1, 2)]
        return Circuit.from_gates(1, 1, gates, [2], "one-and")

    @pytest.mark.parametrize("streamed", [False, True])
    def test_no_evaluator_inputs(self, no_evaluator_inputs, streamed):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(
                    no_evaluator_inputs, [a, b], [], streamed=streamed
                )
                assert result.output_bits == [a ^ (a & b)]

    @pytest.mark.parametrize("streamed", [False, True])
    def test_no_and_gates(self, xor_only, streamed):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(xor_only, [a], [b], streamed=streamed)
                assert result.output_bits == [1 ^ a ^ b]
                assert result.and_gates == 0
                if streamed:
                    assert result.streamed_levels == 0
                    assert result.first_level_s is None

    @pytest.mark.parametrize("streamed", [False, True])
    def test_single_and_level(self, single_level, streamed):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(single_level, [a], [b], streamed=streamed)
                assert result.output_bits == [a & b]
                if streamed:
                    assert result.streamed_levels == 1

    @pytest.mark.parametrize("streamed", [False, True])
    def test_wrong_input_counts_rejected(self, single_level, streamed):
        with pytest.raises(ValueError, match="garbler input bits"):
            run_two_party(single_level, [0, 1], [0], streamed=streamed)
        with pytest.raises(ValueError, match="evaluator input bits"):
            run_two_party(single_level, [0], [], streamed=streamed)


class TestConfigWiring:
    def test_config_supplies_fault_spec(self, tiny_circuit):
        config = HaacConfig().with_fault_spec("duplicate:1.0,seed=3")
        result = run_two_party(tiny_circuit, [1], [1], config=config, streamed=True)
        assert result.output_bits == [(1 & 1) ^ 0]
        assert any(event.kind == "duplicate" for event in result.fault_events)

    def test_explicit_faults_beat_config(self, tiny_circuit):
        config = HaacConfig().with_fault_spec("drop:1.0,seed=3")
        result = run_two_party(
            tiny_circuit, [1], [0], config=config, faults="seed=1", streamed=True
        )
        assert result.fault_events == []

    def test_env_spec_consulted(self, tiny_circuit, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "duplicate:1.0,seed=2")
        result = run_two_party(tiny_circuit, [0], [1], streamed=True)
        assert any(event.kind == "duplicate" for event in result.fault_events)


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
                circuit, bits[name], seed=3, rekeyed=True,
                backend=backend, down=down, up=up,
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


@pytest.mark.parametrize("backend", ["auto", "scalar"])
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


@pytest.mark.parametrize("backend", ["auto", "scalar"])
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
            run_two_party(wide_circuit, g, e, backend="auto", streamed=True)

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
