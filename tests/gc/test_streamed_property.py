"""Differential properties over random netlists (ROADMAP item 5).

Two independent implementations bracket the shared per-level kernels
(``garble_level`` / ``evaluate_level``): the plaintext evaluator and the
per-gate ``garble_circuit`` / ``evaluate_circuit`` walk.  Whatever the
netlist, window, backend or hash mode, the streamed session and the
level-looped batched engines must land on exactly what they say.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
