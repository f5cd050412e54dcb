"""Assembler, INV lowering and the HaacProgram contract."""

import random

import pytest

from repro.circuits.netlist import Circuit, CircuitError, Gate, GateOp
from repro.core.assembler import assemble, lower_inv
from repro.core.isa import HaacOp
from repro.core.program import HaacProgram, ProgramError
from tests.conftest import random_circuit


class TestLowerInv:
    def test_no_inv_passthrough(self, adder_circuit):
        lowered = lower_inv(adder_circuit)
        # The adder uses NOT via sub? adder has no INV; builder's add uses
        # only XOR/AND, so the circuit is returned untouched.
        if not any(g.op is GateOp.INV for g in adder_circuit.gates):
            assert lowered.circuit is adder_circuit
            assert not lowered.has_one_wire

    def test_inv_becomes_xor(self, tiny_circuit):
        lowered = lower_inv(tiny_circuit)
        assert lowered.has_one_wire
        assert all(g.op is not GateOp.INV for g in lowered.circuit.gates)
        assert lowered.circuit.n_evaluator_inputs == (
            tiny_circuit.n_evaluator_inputs + 1
        )

    def test_semantics_preserved(self, tiny_circuit, rng):
        lowered = lower_inv(tiny_circuit)
        for a in (0, 1):
            for b in (0, 1):
                g, e = lowered.adapt_inputs([a], [b])
                assert lowered.circuit.eval_plain(g, e) == tiny_circuit.eval_plain(
                    [a], [b]
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuit_semantics(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_inputs=6, n_gates=60, inv_fraction=0.3)
        lowered = lower_inv(circuit)
        lowered.circuit.validate()
        for _ in range(8):
            g = [rng.randint(0, 1) for _ in range(circuit.n_garbler_inputs)]
            e = [rng.randint(0, 1) for _ in range(circuit.n_evaluator_inputs)]
            g2, e2 = lowered.adapt_inputs(g, e)
            assert lowered.circuit.eval_plain(g2, e2) == circuit.eval_plain(g, e)

    @pytest.mark.parametrize("fixture", ["tiny_circuit", "adder_circuit"])
    @pytest.mark.parametrize("party", ["garbler", "evaluator"])
    @pytest.mark.parametrize("change, message", [
        (2, "{} input bits must be 0 or 1"),
        (-1, "{} input bits must be 0 or 1"),
        ("short", "wrong number of {} input bits"),
    ])
    def test_adapt_inputs_rejects_bad_bits(
        self, request, fixture, party, change, message
    ):
        """The adapter raises ``check_input_bits``' :class:`CircuitError`
        for a bad original-circuit input, with (``tiny_circuit``) and
        without (``adder_circuit``) the appended constant-one bit."""
        circuit = request.getfixturevalue(fixture)
        bits = {
            "garbler": [0] * circuit.n_garbler_inputs,
            "evaluator": [0] * circuit.n_evaluator_inputs,
        }
        if change == "short":
            bits[party].pop()
        else:
            bits[party][0] = change
        with pytest.raises(CircuitError, match=message.format(party)):
            lower_inv(circuit).adapt_inputs(bits["garbler"], bits["evaluator"])


class TestAssemble:
    def test_three_op_program(self, tiny_circuit):
        program, lowered = assemble(tiny_circuit)
        assert all(i.op in (HaacOp.AND, HaacOp.XOR) for i in program.instructions)
        assert len(program.instructions) == len(tiny_circuit.gates)

    def test_all_live_by_default(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        assert all(i.live for i in program.instructions)
        assert program.live_fraction() == 1.0

    def test_out_addr_is_sequential(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        for position in range(len(program.instructions)):
            assert program.out_addr(position) == program.n_inputs + position

    def test_counts(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        stats = mixed_circuit.stats()
        assert program.n_and == stats.and_gates
        # INVs become XORs.
        assert program.n_xor == stats.xor_gates + stats.inv_gates


class TestProgramValidation:
    def test_valid_program_passes(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        program.validate()

    def test_non_renamed_netlist_rejected(self):
        # Gate writes wire 3 but position 0 demands wire 2.
        gates = [Gate(GateOp.XOR, 0, 1, 3), Gate(GateOp.XOR, 0, 3, 2)]
        # This isn't even valid SSA order; build a crafted case instead:
        circuit = Circuit(1, 1, [3], [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.XOR, 2, 0, 3)])
        circuit.validate()
        program = HaacProgram.from_netlist(circuit)
        # Corrupt: swap netlist outputs so they are out of order.
        program.netlist.out.reverse()
        with pytest.raises(ProgramError):
            program.validate()

    def test_inv_rejected(self, tiny_circuit):
        with pytest.raises(ProgramError):
            HaacProgram.from_netlist(tiny_circuit)

    def test_stats_dict(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        stats = program.stats()
        assert stats["instructions"] == len(program.instructions)
        assert stats["live_pct"] == 100.0
