"""Whole-circuit garbling + evaluation vs plaintext ground truth."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import GateOp
from repro.gc.evaluate import evaluate_circuit_batched
from repro.gc.garble import GarbledCircuit
from tests.conftest import random_circuit
from tests.gc.oracles import evaluate_circuit, garble_circuit


def _roundtrip(circuit, garbler_bits, evaluator_bits, seed=0):
    garbler = garble_circuit(circuit, seed=seed)
    labels = [
        garbler.input_label(w, bit)
        for w, bit in enumerate(list(garbler_bits) + list(evaluator_bits))
    ]
    result = evaluate_circuit(circuit, garbler.garbled, labels)
    return result, garbler


class TestTinyCircuit:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_all_inputs(self, tiny_circuit, a, b):
        result, _ = _roundtrip(tiny_circuit, [a], [b])
        assert result.output_bits == tiny_circuit.eval_plain([a], [b])

    def test_garbler_can_decode(self, tiny_circuit):
        result, garbler = _roundtrip(tiny_circuit, [1], [0])
        assert garbler.decode(result.output_labels) == result.output_bits


class TestAdder:
    def test_exhaustive_small_values(self, adder_circuit):
        for a in (0, 1, 127, 200, 255):
            for b in (0, 1, 128, 255):
                ga = [(a >> i) & 1 for i in range(8)]
                gb = [(b >> i) & 1 for i in range(8)]
                result, _ = _roundtrip(adder_circuit, ga, gb)
                got = sum(bit << i for i, bit in enumerate(result.output_bits))
                assert got == (a + b) % 256


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_plaintext(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_inputs=6, n_gates=48)
        garbler_bits = [rng.randint(0, 1) for _ in range(circuit.n_garbler_inputs)]
        evaluator_bits = [rng.randint(0, 1) for _ in range(circuit.n_evaluator_inputs)]
        result, _ = _roundtrip(circuit, garbler_bits, evaluator_bits, seed=seed)
        assert result.output_bits == circuit.eval_plain(garbler_bits, evaluator_bits)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_property_random_circuit(self, data):
        seed = data.draw(st.integers(0, 10_000))
        rng = random.Random(seed)
        circuit = random_circuit(
            rng,
            n_inputs=data.draw(st.integers(2, 10)),
            n_gates=data.draw(st.integers(4, 80)),
        )
        garbler_bits = [rng.randint(0, 1) for _ in range(circuit.n_garbler_inputs)]
        evaluator_bits = [rng.randint(0, 1) for _ in range(circuit.n_evaluator_inputs)]
        result, _ = _roundtrip(circuit, garbler_bits, evaluator_bits, seed=seed)
        assert result.output_bits == circuit.eval_plain(garbler_bits, evaluator_bits)


class TestDeterminismAndAccounting:
    def test_same_seed_same_tables(self, mixed_circuit):
        g1 = garble_circuit(mixed_circuit, seed=9)
        g2 = garble_circuit(mixed_circuit, seed=9)
        assert g1.garbled.tables == g2.garbled.tables
        assert g1.r == g2.r

    def test_different_seed_different_tables(self, mixed_circuit):
        g1 = garble_circuit(mixed_circuit, seed=9)
        g2 = garble_circuit(mixed_circuit, seed=10)
        assert g1.garbled.tables != g2.garbled.tables

    def test_table_count_equals_and_gates(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=0)
        n_and = sum(1 for g in mixed_circuit.gates if g.op is GateOp.AND)
        assert len(garbler.garbled.tables) == n_and

    def test_garbler_hashes_4_per_and(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=0)
        n_and = garbler.garbled.n_and_gates
        assert garbler.hasher.calls == 4 * n_and

    def test_evaluator_hashes_2_per_and(self, mixed_circuit):
        result, garbler = _roundtrip(
            mixed_circuit,
            [0] * mixed_circuit.n_garbler_inputs,
            [1] * mixed_circuit.n_evaluator_inputs,
        )
        assert result.hash_calls == 2 * garbler.garbled.n_and_gates


class TestErrors:
    def test_wrong_label_count(self, tiny_circuit):
        garbler = garble_circuit(tiny_circuit, seed=0)
        with pytest.raises(ValueError):
            evaluate_circuit(tiny_circuit, garbler.garbled, [1, 2, 3])

    def test_input_label_bad_wire(self, tiny_circuit):
        garbler = garble_circuit(tiny_circuit, seed=0)
        with pytest.raises(ValueError):
            garbler.input_label(4, 0)  # wire 4 is a gate output

    def test_batched_wrong_label_count(self, tiny_circuit):
        garbler = garble_circuit(tiny_circuit, seed=0)
        with pytest.raises(ValueError, match="expected 2 input labels"):
            evaluate_circuit_batched(tiny_circuit, garbler.garbled, [1, 2, 3])

    def test_batched_missing_table(self, tiny_circuit):
        garbler = garble_circuit(tiny_circuit, seed=0)
        garbled = GarbledCircuit(tables=[], decode_bits=[0], n_and_gates=0)
        labels = [garbler.input_label(w, 0) for w in range(2)]
        with pytest.raises(ValueError, match="does not match circuit AND count"):
            evaluate_circuit_batched(tiny_circuit, garbled, labels)


@pytest.mark.parametrize(
    "evaluate", [evaluate_circuit, evaluate_circuit_batched],
    ids=["per_gate", "batched"],
)
class TestTableStreamChecks:
    """Both evaluators refuse a table stream that does not fit the
    circuit, before any label is returned."""

    def _inputs(self, circuit):
        garbler = garble_circuit(circuit, seed=0)
        labels = [garbler.input_label(w, 1) for w in range(circuit.n_inputs)]
        return garbler.garbled, labels

    def test_count_disagrees_with_stream(self, tiny_circuit, evaluate):
        garbled, labels = self._inputs(tiny_circuit)
        garbled.n_and_gates += 1
        with pytest.raises(ValueError, match="inconsistent"):
            evaluate(tiny_circuit, garbled, labels)

    def test_extra_table(self, tiny_circuit, evaluate):
        garbled, labels = self._inputs(tiny_circuit)
        garbled.tables.append(garbled.tables[0])
        garbled.n_and_gates += 1
        with pytest.raises(ValueError):
            evaluate(tiny_circuit, garbled, labels)
