"""CircuitBuilder DSL behaviour."""

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import CircuitError, GateOp


class TestInputs:
    def test_garbler_before_evaluator(self):
        builder = CircuitBuilder()
        builder.add_evaluator_inputs(2)
        with pytest.raises(CircuitError):
            builder.add_garbler_inputs(1)

    def test_inputs_frozen_after_gate(self):
        builder = CircuitBuilder()
        wires = builder.add_garbler_inputs(2)
        builder.XOR(wires[0], wires[1])
        with pytest.raises(CircuitError):
            builder.add_evaluator_inputs(1)

    def test_no_inputs_no_gates(self):
        builder = CircuitBuilder()
        with pytest.raises(CircuitError):
            builder.XOR(0, 0)

    def test_wire_ids_sequential(self):
        builder = CircuitBuilder()
        assert builder.add_garbler_inputs(3) == [0, 1, 2]
        assert builder.add_evaluator_inputs(2) == [3, 4]


class TestGates:
    def test_derived_ops_semantics(self):
        builder = CircuitBuilder()
        a, b = builder.add_garbler_inputs(2)
        outs = [
            builder.OR(a, b),
            builder.XNOR(a, b),
        ]
        builder.mark_outputs(outs)
        circuit = builder.build()
        for va in (0, 1):
            for vb in (0, 1):
                got = circuit.eval_plain([va, vb], [])
                assert got == [va | vb, 1 - (va ^ vb)]

    def test_unknown_wire_rejected(self):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(1)
        with pytest.raises(CircuitError):
            builder.AND(0, 5)

    def test_gate_count_tracking(self):
        builder = CircuitBuilder()
        a, b = builder.add_garbler_inputs(2)
        builder.AND(a, b)
        builder.XOR(a, b)
        assert builder.n_gates == 2
        assert builder.n_wires == 4


def _message(call) -> str:
    with pytest.raises(CircuitError) as caught:
        call()
    return str(caught.value)


class TestErrorContract:
    """Exact messages and their precedence, as recorded when each gate
    checked its operands one call at a time: the first bad operand is
    named, and a rejected gate emits nothing."""

    @pytest.mark.parametrize("gate", ["AND", "XOR", "OR"])
    @pytest.mark.parametrize(
        "a,b,bad", [(7, 0, 7), (0, 7, 7), (7, 9, 7), (2, 0, 2), (-1, 0, -1), (0, -1, -1)]
    )
    def test_binary_gate(self, gate, a, b, bad):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(2)
        call = getattr(builder, gate)
        assert _message(lambda: call(a, b)) == f"wire {bad} does not exist yet"
        assert builder.n_gates == 0 and builder.n_wires == 2

    @pytest.mark.parametrize("a", [7, 2, -1])
    def test_not(self, a):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(2)
        assert _message(lambda: builder.NOT(a)) == f"wire {a} does not exist yet"
        assert builder.n_gates == 0

    @pytest.mark.parametrize("gate", ["AND", "XOR", "OR"])
    def test_binary_gate_before_any_input(self, gate):
        call = getattr(CircuitBuilder(), gate)
        assert _message(lambda: call(0, 0)) == "wire 0 does not exist yet"

    def test_not_before_any_input(self):
        assert _message(lambda: CircuitBuilder().NOT(0)) == "wire 0 does not exist yet"

    @pytest.mark.parametrize("const", ["const_zero", "const_one"])
    def test_constant_before_any_input(self, const):
        builder = CircuitBuilder()
        message = _message(getattr(builder, const))
        assert message == "circuit must have at least one input wire"
        # Nothing was emitted, so inputs may still be added.
        assert builder.add_garbler_inputs(1) == [0]


class TestConstants:
    def test_const_values(self):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(1)
        zero = builder.const_zero()
        one = builder.const_one()
        builder.mark_outputs([zero, one])
        circuit = builder.build()
        for bit in (0, 1):
            assert circuit.eval_plain([bit], []) == [0, 1]

    def test_consts_are_cached(self):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(1)
        assert builder.const_zero() == builder.const_zero()
        assert builder.const_one() == builder.const_one()

    def test_const_bits_little_endian(self):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(1)
        bits = builder.const_bits(0b1011, 6)
        builder.mark_outputs(bits)
        circuit = builder.build()
        assert circuit.eval_plain([0], []) == [1, 1, 0, 1, 0, 0]

    def test_const_bits_rejects_bad_width(self):
        builder = CircuitBuilder()
        builder.add_garbler_inputs(1)
        with pytest.raises(CircuitError):
            builder.const_bits(1, 0)


class TestBuild:
    def test_requires_outputs(self):
        builder = CircuitBuilder()
        a, b = builder.add_garbler_inputs(2)
        builder.XOR(a, b)
        with pytest.raises(CircuitError):
            builder.build()

    def test_built_circuit_is_validated(self):
        builder = CircuitBuilder()
        a, b = builder.add_garbler_inputs(2)
        builder.mark_outputs([builder.AND(a, b)])
        circuit = builder.build("named")
        assert circuit.name == "named"
        assert circuit.gates[0].op is GateOp.AND

    def test_output_order_preserved(self):
        builder = CircuitBuilder()
        a, b = builder.add_garbler_inputs(2)
        x = builder.AND(a, b)
        y = builder.XOR(a, b)
        builder.mark_outputs([y])
        builder.mark_outputs([x])
        circuit = builder.build()
        assert circuit.outputs == [y, x]
