"""Circuit IR invariants, validation and analysis."""

import random
from array import array

import pytest

from repro.circuits.netlist import (
    OP_AND,
    OP_INV,
    OP_XOR,
    Circuit,
    CircuitError,
    Gate,
    GateOp,
)
from tests.conftest import random_circuit

#: One malformed two-input netlist per message of the column checker:
#: (id, outputs, op, a, b, out, message).  Columns can be supplied
#: without passing through ``Gate.__post_init__``, so every invariant
#: the value type used to guard is checked here too.
MALFORMED = [
    ("ragged", [2], [OP_AND], [0], [1], [], "different lengths"),
    ("inv_with_b", [2], [OP_INV], [0], [1], [2], "INV must have b == -1"),
    ("unknown_op", [2], [7], [0], [1], [2], "unknown op code"),
    ("negative_a", [2], [OP_XOR], [-1], [1], [2], "non-negative"),
    ("and_without_b", [2], [OP_AND], [0], [-1], [2], "non-negative"),
    ("negative_out", [0], [OP_XOR], [0], [1], [-1], "non-negative"),
    ("beyond_n_wires", [2], [OP_XOR], [0], [9], [2], "n_wires"),
    ("read_before_defined", [3], [OP_XOR, OP_AND], [0, 0], [3, 1], [2, 3],
     "before it is defined"),
    ("overwrites_input", [1], [OP_XOR], [0], [1], [1], "overwrites input"),
    ("ssa", [2], [OP_XOR, OP_AND], [0, 0], [1, 1], [2, 2], "defined twice"),
    ("negative_output", [-1], [OP_AND], [0], [1], [2], "output wire -1"),
    ("undefined_output", [9], [OP_AND], [0], [1], [2], "output wire 9"),
]


def malformed_circuit(outputs, op, a, b, out) -> Circuit:
    return Circuit.from_columns(
        2, 0, list(outputs), bytearray(op),
        array("q", a), array("q", b), array("q", out), "bad",
    )


class TestGate:
    def test_inv_requires_single_input(self):
        with pytest.raises(CircuitError):
            Gate(GateOp.INV, 0, 1, 2)

    def test_binary_requires_two_inputs(self):
        with pytest.raises(CircuitError):
            Gate(GateOp.AND, 0, -1, 2)

    def test_negative_wires_rejected(self):
        with pytest.raises(CircuitError):
            Gate(GateOp.XOR, -2, 0, 1)

    def test_gate_eval(self):
        assert Gate(GateOp.AND, 0, 1, 2).eval(1, 1) == 1
        assert Gate(GateOp.AND, 0, 1, 2).eval(1, 0) == 0
        assert Gate(GateOp.XOR, 0, 1, 2).eval(1, 1) == 0
        assert Gate(GateOp.INV, 0, -1, 1).eval(1) == 0

    def test_inputs_iteration(self):
        assert list(Gate(GateOp.AND, 3, 4, 5).inputs()) == [3, 4]
        assert list(Gate(GateOp.INV, 3, -1, 5).inputs()) == [3]


class TestValidation:
    def test_valid_circuit(self, tiny_circuit):
        tiny_circuit.validate()  # should not raise

    def test_read_before_define(self):
        gates = [Gate(GateOp.XOR, 0, 3, 2), Gate(GateOp.XOR, 0, 1, 3)]
        with pytest.raises(CircuitError, match="before it is defined"):
            Circuit(1, 1, [3], gates).validate()

    def test_ssa_violation(self):
        gates = [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.AND, 0, 1, 2)]
        with pytest.raises(CircuitError, match="SSA"):
            Circuit(1, 1, [2], gates).validate()

    def test_overwrite_input(self):
        gates = [Gate(GateOp.XOR, 0, 1, 1)]
        with pytest.raises(CircuitError, match="overwrites input"):
            Circuit(1, 1, [1], gates).validate()

    def test_undefined_output(self):
        gates = [Gate(GateOp.XOR, 0, 1, 2)]
        with pytest.raises(CircuitError, match="output"):
            Circuit(1, 1, [9], gates).validate()

    def test_wire_out_of_range(self):
        gates = [Gate(GateOp.XOR, 0, 99, 2)]
        with pytest.raises(CircuitError):
            Circuit(1, 1, [2], gates).validate()

    def test_negative_output_wire_is_not_the_last_wire(self):
        # defined[-1] / values[-1] used to alias the last wire.
        circuit = Circuit(1, 1, [-1], [Gate(GateOp.AND, 0, 1, 2)])
        with pytest.raises(CircuitError, match="output wire -1"):
            circuit.validate()

    @pytest.mark.parametrize(
        "outputs,op,a,b,out,message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_column_checker_messages(self, outputs, op, a, b, out, message):
        with pytest.raises(CircuitError, match=message):
            malformed_circuit(outputs, op, a, b, out).validate()

    def test_gates_view_is_read_only(self, tiny_circuit):
        with pytest.raises(TypeError):
            tiny_circuit.gates[0] = Gate(GateOp.XOR, 0, 1, 2)
        assert len(tiny_circuit.gates) == 3
        assert tiny_circuit.gates == list(tiny_circuit.gates)


class TestAnalysis:
    def test_levels(self, tiny_circuit):
        # AND and INV read inputs (level 1); XOR reads both (level 2).
        assert tiny_circuit.gate_levels() == [1, 1, 2]
        assert tiny_circuit.depth() == 2

    def test_stats(self, tiny_circuit):
        stats = tiny_circuit.stats()
        assert stats.gates == 3
        assert stats.and_gates == 1
        assert stats.xor_gates == 1
        assert stats.inv_gates == 1
        assert stats.levels == 2
        assert stats.ilp == pytest.approx(1.5)
        assert stats.and_fraction == pytest.approx(1 / 3)

    def test_stats_row(self, tiny_circuit):
        row = tiny_circuit.stats().as_row()
        assert row["levels"] == 2
        assert row["and_pct"] == pytest.approx(100 / 3)

    def test_fanout(self, tiny_circuit):
        fanout = tiny_circuit.fanout()
        assert fanout[0] == 2  # wire 0 feeds AND and INV
        assert fanout[2] == 1
        assert fanout[4] == 0  # final output is not an internal consumer

    def test_producer_map(self, tiny_circuit):
        assert tiny_circuit.producer_map() == {2: 0, 3: 1, 4: 2}

    def test_empty_circuit_depth(self):
        circuit = Circuit(1, 0, [0], [])
        assert circuit.depth() == 0
        assert circuit.stats().ilp == 0.0


class TestEvalPlain:
    def test_truth_table(self, tiny_circuit):
        # out = (a AND b) XOR (NOT a)
        for a in (0, 1):
            for b in (0, 1):
                expected = (a & b) ^ (a ^ 1)
                assert tiny_circuit.eval_plain([a], [b]) == [expected]

    def test_input_count_checked(self, tiny_circuit):
        with pytest.raises(CircuitError):
            tiny_circuit.eval_plain([0, 1], [0])
        with pytest.raises(CircuitError):
            tiny_circuit.eval_plain([0], [])

    def test_non_bit_inputs_masked(self, tiny_circuit):
        assert tiny_circuit.eval_plain([3], [2]) == tiny_circuit.eval_plain([1], [0])


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_validate(self, seed):
        circuit = random_circuit(random.Random(seed), n_gates=100)
        circuit.validate()
        assert circuit.depth() >= 1
        assert len(circuit.gate_levels()) == 100

    def test_levels_strictly_increase_along_edges(self):
        circuit = random_circuit(random.Random(9), n_gates=200)
        levels = circuit.wire_levels()
        for gate in circuit.gates:
            for wire in gate.inputs():
                assert levels[gate.out] > levels[wire]


class TestAndLevelSchedule:
    def test_empty_circuit(self):
        circuit = Circuit(1, 0, [0], [])
        assert circuit.and_level_schedule() == [([], [])]

    """The multiplicative-depth batches behind the vectorized garbler."""

    def _replay(self, circuit, garbler_bits, evaluator_bits):
        """Plaintext replay following the phase schedule exactly."""
        values = [None] * circuit.n_wires
        for wire, bit in enumerate(list(garbler_bits) + list(evaluator_bits)):
            values[wire] = bit & 1
        for and_batch, free_groups in circuit.and_level_schedule():
            for position in and_batch:
                gate = circuit.gates[position]
                assert values[gate.a] is not None and values[gate.b] is not None
                values[gate.out] = values[gate.a] & values[gate.b]
            for group in free_groups:
                for position in group:
                    gate = circuit.gates[position]
                    assert all(values[w] is not None for w in gate.inputs())
                    if gate.op is GateOp.XOR:
                        values[gate.out] = values[gate.a] ^ values[gate.b]
                    else:
                        values[gate.out] = values[gate.a] ^ 1
        return [values[w] for w in circuit.outputs]

    @pytest.mark.parametrize("seed", range(3))
    def test_schedule_respects_dependences(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_gates=200)
        garbler_bits = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
        evaluator_bits = [
            rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)
        ]
        got = self._replay(circuit, garbler_bits, evaluator_bits)
        assert got == circuit.eval_plain(garbler_bits, evaluator_bits)

    def test_covers_every_gate_once(self):
        circuit = random_circuit(random.Random(7), n_gates=180)
        seen = []
        for and_batch, free_groups in circuit.and_level_schedule():
            seen.extend(and_batch)
            for group in free_groups:
                seen.extend(group)
        assert sorted(seen) == list(range(180))

    def test_and_batches_much_coarser_than_asap_levels(self):
        # The whole point of the schedule: far fewer hash batches than
        # ASAP levels on XOR-heavy circuits.
        from repro.circuits.stdlib.aes_circuit import build_aes128_circuit

        circuit = build_aes128_circuit()
        phases = circuit.and_level_schedule()
        n_and_batches = sum(1 for and_batch, _ in phases if and_batch)
        assert n_and_batches < circuit.depth() // 10

    def test_schedule_is_cached(self):
        circuit = random_circuit(random.Random(1), n_gates=50)
        assert circuit.and_level_schedule() is circuit.and_level_schedule()
