"""Differential properties over random netlists (ROADMAP item 5).

Two independent implementations bracket the per-level kernels of the
label stores (int store and block store, ``gc/garble.py`` /
``gc/evaluate.py``): the plaintext evaluator and the per-gate
``garble_circuit`` / ``evaluate_circuit`` walk.  Whatever the netlist,
window, backend or hash mode, the streamed session and the level-looped
batched engines must land on exactly what they say -- and the two label
stores must put exactly the same bytes on the wire, the block store
without converting a single label on the level path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import Circuit, Gate, GateOp
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.gc import evaluate as evaluate_mod
from repro.gc import garble as garble_mod
from repro.gc import roles as roles_mod
from repro.gc.backends import numpy_backend
from repro.gc.evaluate import evaluate_circuit, evaluate_circuit_batched
from repro.gc.garble import garble_circuit, garble_circuit_batched
from repro.gc.protocol import StreamedDriver, TwoPartySession
from tests.conftest import random_circuit

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


def _streamed(circuit, g, e, seed, backend, rekeyed, window):
    session = TwoPartySession(circuit, seed=seed, rekeyed=rekeyed, backend=backend)
    driver = StreamedDriver(session, g, e, max_inflight_levels=window)
    while not driver.step():
        pass
    return driver.result


@settings(max_examples=25, deadline=None)
@given(
    netlist=netlists,
    window=st.sampled_from([1, 2, 7]),
    backend=st.sampled_from([None, "auto"]),
    rekeyed=st.booleans(),
)
def test_streamed_session_matches_plaintext_at_any_window(
    netlist, window, backend, rekeyed
):
    seed, circuit = netlist
    g, e = _input_bits(seed, circuit)
    result = _streamed(circuit, g, e, seed, backend, rekeyed, window)
    assert result.output_bits == circuit.eval_plain(g, e)
    lockstep = _streamed(circuit, g, e, seed, backend, rekeyed, window=1)
    assert result.transcript_digest == lockstep.transcript_digest
    assert result.traffic == lockstep.traffic


@settings(max_examples=25, deadline=None)
@given(netlist=netlists, rekeyed=st.booleans())
def test_level_kernels_match_the_per_gate_oracle(netlist, rekeyed):
    seed, circuit = netlist
    oracle = garble_circuit(circuit, seed=seed, rekeyed=rekeyed)
    batched = garble_circuit_batched(
        circuit, seed=seed, rekeyed=rekeyed, backend="scalar"
    )
    assert batched.garbled.tables == oracle.garbled.tables
    assert batched.garbled.decode_bits == oracle.garbled.decode_bits
    assert batched.zero_labels == oracle.zero_labels
    assert batched.hasher.calls == oracle.hasher.calls

    g, e = _input_bits(seed, circuit)
    labels = [oracle.input_label(w, bit) for w, bit in enumerate(g + e)]
    want = evaluate_circuit(circuit, oracle.garbled, labels, rekeyed=rekeyed)
    got = evaluate_circuit_batched(
        circuit, batched.garbled, labels, rekeyed=rekeyed, backend="scalar"
    )
    assert got.output_labels == want.output_labels
    assert got.output_bits == want.output_bits == circuit.eval_plain(g, e)
    assert got.hash_calls == want.hash_calls


# ----------------------------------------------------------------------
# Block store vs int store
# ----------------------------------------------------------------------


def _recorded(circuit, g, e, seed, backend, rekeyed, window):
    """Run a fused session, recording every message either role sends."""
    session = TwoPartySession(circuit, seed=seed, rekeyed=rekeyed, backend=backend)
    driver = StreamedDriver(session, g, e, max_inflight_levels=window)
    sent = []
    for channel in (driver.pair.to_evaluator, driver.pair.to_garbler):
        def send(kind, payload, _send=channel.send_message, _name=channel.name):
            sent.append((_name, kind, bytes(payload)))
            return _send(kind, payload)

        channel.send_message = send
    while not driver.step():
        pass
    return driver, sent


def _assert_stores_agree(circuit, g, e, seed, rekeyed, window):
    blocks, block_sent = _recorded(circuit, g, e, seed, "numpy", rekeyed, window)
    ints, int_sent = _recorded(circuit, g, e, seed, "scalar", rekeyed, window)
    assert type(blocks.garbler.backend).__name__ == "NumpyLabelHashBackend"
    # garbler_labels, every tables payload, decode, outputs, both digests
    # (and the OT messages): same kinds, same order, same bytes.
    assert block_sent == int_sent
    assert {kind for _, kind, _ in block_sent} >= {"garbler_labels", "decode", "outputs"}
    assert blocks.result.transcript_digest == ints.result.transcript_digest
    assert blocks.result.output_bits == ints.result.output_bits == circuit.eval_plain(g, e)
    for role in ("garbler", "evaluator"):
        assert getattr(blocks, role).hasher.calls == getattr(ints, role).hasher.calls
    assert blocks.result.traffic == ints.result.traffic


@settings(max_examples=25, deadline=None)
@given(netlist=netlists, window=st.sampled_from([1, 7]), rekeyed=st.booleans())
def test_block_store_and_int_store_send_identical_bytes(netlist, window, rekeyed):
    seed, circuit = netlist
    g, e = _input_bits(seed, circuit)
    _assert_stores_agree(circuit, g, e, seed, rekeyed, window)


@pytest.mark.parametrize(
    "n_garbler, n_evaluator, gates, outputs",
    [
        (2, 0, [Gate(GateOp.AND, 0, 1, 2), Gate(GateOp.XOR, 0, 2, 3)], [3]),
        (1, 1, [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.INV, 2, -1, 3)], [3]),
        (1, 1, [Gate(GateOp.AND, 0, 1, 2)], [2]),
    ],
    ids=["no-evaluator-inputs", "no-and-gates", "one-and"],
)
def test_stores_agree_on_degenerate_shapes(n_garbler, n_evaluator, gates, outputs):
    circuit = Circuit.from_gates(n_garbler, n_evaluator, gates, outputs, "edge")
    for bits in range(1 << (n_garbler + n_evaluator)):
        g = [(bits >> i) & 1 for i in range(n_garbler)]
        e = [(bits >> (n_garbler + i)) & 1 for i in range(n_evaluator)]
        _assert_stores_agree(circuit, g, e, seed=bits, rekeyed=True, window=1)


# ----------------------------------------------------------------------
# No ints on the level path
# ----------------------------------------------------------------------

_LABEL_BYTES = 16


@pytest.fixture
def conversions(monkeypatch):
    """Count every label conversion and int-hash call, by driver phase:
    ``{(phase, party, function): labels}``.  ``phase`` and ``party`` are
    set by the test as it steps the driver turn by turn."""
    monkeypatch.delenv("REPRO_GC_BACKEND", raising=False)  # "auto" means auto
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
    assert garbler.backend.name == "numpy"
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
