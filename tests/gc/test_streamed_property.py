"""Differential properties over random netlists (ROADMAP item 5).

Two independent implementations bracket the per-level kernels of the
block label stores (``gc/garble.py`` / ``gc/evaluate.py``): the
plaintext evaluator and the per-gate ``garble_circuit`` /
``evaluate_circuit`` walk of ``tests/gc/oracles.py``.  Whatever the
netlist or backend spelling, the streamed session and the level-looped
batched engines must land on exactly what they say -- and the streamed
session must put on the wire exactly the messages the per-gate
exchange of ``session_oracle`` produces, without converting a single
label on the level path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, Gate, GateOp
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.gc import evaluate as evaluate_mod
from repro.gc import garble as garble_mod
from repro.gc import roles as roles_mod
from repro.gc.backends import numpy_backend
from repro.gc.channel import DIGEST_KIND
from repro.gc.evaluate import evaluate_circuit_batched
from repro.gc.garble import garble_circuit_batched
from repro.gc.halfgate import tables_to_bytes
from repro.gc.labels import ints_to_bytes, pack_bits
from repro.gc.protocol import StreamedDriver, TwoPartySession
from repro.workloads import get_workload
from tests.conftest import circuit_from_gates, random_circuit
from tests.gc.oracles import evaluate_circuit, garble_circuit
from tests.gc.session_oracle import run_oracle_session

netlists = st.builds(
    lambda seed, n_gates, and_fraction: (
        seed,
        random_circuit(
            random.Random(seed), n_gates=n_gates, and_fraction=and_fraction
        ),
    ),
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(20, 120),
    and_fraction=st.floats(0.0, 0.9),
)


def _input_bits(seed, circuit):
    rng = random.Random(seed ^ 0xB175)
    return (
        [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)],
        [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)],
    )


@settings(max_examples=25, deadline=None)
@given(netlist=netlists, backend=st.sampled_from([None, "auto"]))
def test_streamed_session_matches_plaintext(netlist, backend):
    seed, circuit = netlist
    g, e = _input_bits(seed, circuit)
    session = TwoPartySession(circuit, seed=seed, backend=backend)
    driver = StreamedDriver(session, g, e)
    while not driver.step():
        pass
    assert driver.result.output_bits == circuit.eval_plain(g, e)


@settings(max_examples=25, deadline=None)
@given(netlist=netlists)
def test_level_kernels_match_the_per_gate_oracle(netlist):
    seed, circuit = netlist
    oracle = garble_circuit(circuit, seed=seed)
    batched = garble_circuit_batched(circuit, seed=seed)
    assert batched.garbled.tables == oracle.garbled.tables
    assert batched.garbled.decode_bits == oracle.garbled.decode_bits
    assert batched.zero_labels == oracle.zero_labels
    assert batched.hasher.calls == oracle.hasher.calls

    g, e = _input_bits(seed, circuit)
    labels = [oracle.input_label(w, bit) for w, bit in enumerate(g + e)]
    want = evaluate_circuit(circuit, oracle.garbled, labels)
    got = evaluate_circuit_batched(circuit, batched.garbled, labels)
    assert got.output_labels == want.output_labels
    assert got.output_bits == want.output_bits == circuit.eval_plain(g, e)
    assert got.hash_calls == want.hash_calls


# ----------------------------------------------------------------------
# Streamed session vs the per-gate exchange
# ----------------------------------------------------------------------


def _recorded(circuit, g, e, seed):
    """Run a fused session, recording every message either role sends:
    ``{(direction, kind): [payload, ...]}``."""
    session = TwoPartySession(circuit, seed=seed)
    driver = StreamedDriver(session, g, e)
    sent = {}
    for direction, channel in (
        ("down", driver.pair.to_evaluator), ("up", driver.pair.to_garbler)
    ):
        def send(kind, payload, _send=channel.send_message, _dir=direction):
            sent.setdefault((_dir, kind), []).append(bytes(payload))
            return _send(kind, payload)

        channel.send_message = send
    while not driver.step():
        pass
    return driver, sent


def _oracle_wire(circuit, g, e, seed):
    """Run the per-gate exchange, returning its result and its messages
    in the streamed wire format (tables cut into the AND levels)."""
    result = run_oracle_session(circuit, g, e, seed=seed)
    sent = result.payloads
    point_bytes = roles_mod._POINT_BYTES
    and_positions = (p for p, op in enumerate(circuit.op) if op == OP_AND)
    table_of = dict(zip(and_positions, sent["down", "tables"]))
    wire = {
        ("down", "ot_public"): [sent["down", "ot_public"].to_bytes(point_bytes, "big")],
        ("up", "ot_points"): [ints_to_bytes(sent["up", "ot_points"], point_bytes)],
        ("down", "ot_ciphers"): [
            ints_to_bytes([c for pair in sent["down", "ot_ciphers"] for c in pair])
        ],
        ("down", "garbler_labels"): [ints_to_bytes(sent["down", "garbler_labels"])],
        ("down", "decode"): [pack_bits(sent["down", "decode"])],
        ("up", "outputs"): [pack_bits(sent["up", "outputs"])],
    }
    levels = [
        tables_to_bytes([table_of[p] for p in batch])
        for batch, _ in circuit.and_level_schedule()
        if batch
    ]
    if levels:
        wire["down", "tables"] = levels
    return result, wire


def _assert_streamed_matches_oracle(circuit, g, e, seed):
    driver, sent = _recorded(circuit, g, e, seed)
    oracle, wire = _oracle_wire(circuit, g, e, seed)
    # garbler_labels, every tables payload, decode, outputs and the OT
    # messages: same kinds, same count, same bytes.  The digests are
    # the streamed transport's own.
    assert sent.pop(("down", DIGEST_KIND)) and sent.pop(("up", DIGEST_KIND))
    assert sent == wire
    assert driver.result.output_bits == oracle.output_bits == circuit.eval_plain(g, e)
    assert driver.evaluator.hasher.calls == oracle.hash_calls_evaluator
    assert driver.garbler.hasher.calls == 2 * oracle.hash_calls_evaluator


@settings(max_examples=25, deadline=None)
@given(netlist=netlists)
def test_streamed_session_sends_the_oracle_bytes(netlist):
    seed, circuit = netlist
    g, e = _input_bits(seed, circuit)
    _assert_streamed_matches_oracle(circuit, g, e, seed)


@pytest.mark.parametrize("name", ["tiny", "adder", "mixed", "hamm64"])
def test_streamed_sends_the_oracle_bytes_on_named_circuits(request, name):
    """Hamm n=64 takes the pad KDF's block kernel in the session (64
    chains) and the scalar chain in the oracle: same ciphertexts."""
    if name == "hamm64":
        circuit = get_workload("Hamm").build(n_bits=64).circuit
    else:
        circuit = request.getfixturevalue(f"{name}_circuit")
    g, e = _input_bits(5, circuit)
    _assert_streamed_matches_oracle(circuit, g, e, seed=5)


@pytest.mark.parametrize(
    "n_garbler, n_evaluator, gates, outputs",
    [
        (2, 0, [Gate(GateOp.AND, 0, 1, 2), Gate(GateOp.XOR, 0, 2, 3)], [3]),
        (1, 1, [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.INV, 2, -1, 3)], [3]),
        (1, 1, [Gate(GateOp.AND, 0, 1, 2)], [2]),
        (0, 2, [Gate(GateOp.AND, 0, 1, 2)], [2]),
        (
            1, 1,
            [Gate(GateOp.AND, 0, 0, 2), Gate(GateOp.AND, 1, 1, 3),
             Gate(GateOp.XOR, 2, 3, 4)],
            [4],
        ),
        (1, 1, [Gate(GateOp.XOR, 0, 1, 2)], [0, 1, 2]),
        (1, 1, [Gate(GateOp.AND, 0, 1, 2)], [2, 2]),
        (
            1, 1,
            [Gate(GateOp.INV, 0, -1, 2), Gate(GateOp.INV, 2, -1, 3),
             Gate(GateOp.AND, 3, 1, 4), Gate(GateOp.INV, 4, -1, 5)],
            [5],
        ),
    ],
    ids=[
        "no-evaluator-inputs", "no-and-gates", "one-and", "no-garbler-inputs",
        "and-of-one-wire", "inputs-as-outputs", "repeated-output", "inv-chain",
    ],
)
def test_streamed_matches_oracle_on_degenerate_shapes(
    n_garbler, n_evaluator, gates, outputs
):
    circuit = circuit_from_gates(n_garbler, n_evaluator, gates, outputs, "edge")
    for bits in range(1 << (n_garbler + n_evaluator)):
        g = [(bits >> i) & 1 for i in range(n_garbler)]
        e = [(bits >> (n_garbler + i)) & 1 for i in range(n_evaluator)]
        _assert_streamed_matches_oracle(circuit, g, e, seed=bits)


# ----------------------------------------------------------------------
# No ints on the level path
# ----------------------------------------------------------------------

_LABEL_BYTES = 16


@pytest.fixture
def conversions(monkeypatch):
    """Count every label conversion and int-hash call, by driver phase:
    ``{(phase, party, function): labels}``.  ``phase`` and ``party`` are
    set by the test as it steps the driver turn by turn."""
    ledger = {"phase": "handshake", "party": None, "counts": {}}

    def note(name, labels):
        key = (ledger["phase"], ledger["party"], name)
        ledger["counts"][key] = ledger["counts"].get(key, 0) + labels

    def wrap_function(module, name):
        original = getattr(module, name)

        def counting(data, width=_LABEL_BYTES, *rest):
            if width == _LABEL_BYTES:  # OT group elements are not labels
                size = len(data) // width if name == "bytes_to_ints" else len(data)
                note(name, size)
            return original(data, width, *rest)

        monkeypatch.setattr(module, name, counting)

    for module in (roles_mod, garble_mod, evaluate_mod, numpy_backend):
        for name in ("ints_to_bytes", "bytes_to_ints"):
            if hasattr(module, name):
                wrap_function(module, name)

    backend_cls = numpy_backend.NumpyLabelHashBackend
    for name in ("hash_labels", "ints_to_blocks", "blocks_to_ints"):
        original = getattr(backend_cls, name)
        static = isinstance(backend_cls.__dict__[name], staticmethod)

        def counting(*args, _original=original, _name=name, _static=static):
            note(_name, len(args[0] if _static else args[1]))
            return _original(*args)

        monkeypatch.setattr(
            backend_cls, name, staticmethod(counting) if static else counting
        )
    return ledger


def _assert_no_ints_on_the_level_path(circuit, ledger):
    g, e = _input_bits(11, circuit)
    session = TwoPartySession(circuit, seed=11, backend="auto")
    driver = StreamedDriver(session, g, e)
    garbler, evaluator = driver.garbler, driver.evaluator
    assert isinstance(garbler.backend, numpy_backend.NumpyLabelHashBackend)
    # Lockstep rounds, garbler first: each turn finds what it receives
    # already sent, and is charged to the role that took it.
    while garbler.next_turn is not None:
        for role in (garbler, evaluator):
            if role.next_turn is not None:
                ledger["phase"], ledger["party"] = role.next_turn, role.party
                role.take_turn()
    assert evaluator.output_bits == garbler.output_bits == circuit.eval_plain(g, e)
    assert evaluator.streamed_levels > 0

    counts = ledger["counts"]
    on_level_path = {
        key: n for key, n in counts.items() if key[0] != roles_mod.HANDSHAKE
    }
    assert on_level_path == {}, on_level_path
    # What remains is the OT boundary and the store fill, once per
    # session: the evaluator's two ciphers per choice and its chosen
    # labels; the garbler's ciphers, its input labels and R.
    budget = circuit.n_inputs + 2 * circuit.n_evaluator_inputs
    per_party = {}
    for (_, party, name), n in counts.items():
        if name in ("ints_to_bytes", "bytes_to_ints"):
            per_party[party] = per_party.get(party, 0) + n
    assert per_party["evaluator"] == 3 * circuit.n_evaluator_inputs <= budget
    assert per_party["garbler"] == budget + 1  # + R
    assert not any(name == "hash_labels" for _, _, name in counts)


def test_level_turns_convert_no_labels_mixed8(mixed_circuit, conversions):
    _assert_no_ints_on_the_level_path(mixed_circuit, conversions)


@pytest.mark.slow
def test_level_turns_convert_no_labels_aes128(conversions):
    _assert_no_ints_on_the_level_path(build_aes128_circuit(), conversions)
