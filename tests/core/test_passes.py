"""Compiler passes: reorder (full/segment/DFS), rename, ESW."""

import random

import pytest

from repro.circuits.netlist import GateOp
from repro.core.assembler import lower_inv
from repro.core.passes.esw import eliminate_spent_wires
from repro.core.passes.rename import rename
from repro.core.passes.reorder import depth_first_order, full_reorder, segment_reorder
from repro.core.program import HaacProgram
from repro.core.sww import SlidingWindow
from tests.conftest import random_circuit
from tests.core.test_sww import eviction_frontier


def _random_lowered(seed, n_gates=120):
    rng = random.Random(seed)
    circuit = random_circuit(rng, n_inputs=8, n_gates=n_gates, inv_fraction=0.15)
    return lower_inv(circuit).circuit, rng


def _check_semantics(original, transformed, rng, trials=6):
    for _ in range(trials):
        g = [rng.randint(0, 1) for _ in range(original.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(original.n_evaluator_inputs)]
        assert transformed.eval_plain(g, e) == original.eval_plain(g, e)


class TestReorder:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_reorder_is_level_order(self, seed):
        circuit, _ = _random_lowered(seed)
        reordered = full_reorder(circuit)
        levels = reordered.gate_levels()
        assert levels == sorted(levels)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_reorder_valid_and_semantics(self, seed):
        circuit, rng = _random_lowered(seed)
        reordered = full_reorder(circuit)
        reordered.validate()
        _check_semantics(circuit, reordered, rng)

    # 2 and 5: the segments of the 4- and 10-wire windows.
    @pytest.mark.parametrize("segment", [1, 2, 5, 8, 32, 1000])
    def test_segment_reorder_valid(self, segment):
        circuit, rng = _random_lowered(1)
        reordered = segment_reorder(circuit, segment)
        reordered.validate()
        _check_semantics(circuit, reordered, rng)

    def test_segment_covering_program_equals_full(self):
        circuit, _ = _random_lowered(2)
        assert (
            segment_reorder(circuit, len(circuit.gates)).gates
            == full_reorder(circuit).gates
        )

    def test_segment_size_validation(self):
        circuit, _ = _random_lowered(0)
        with pytest.raises(ValueError):
            segment_reorder(circuit, 0)

    def test_depth_first_valid_and_semantics(self):
        circuit, rng = _random_lowered(3)
        dfs = depth_first_order(circuit)
        dfs.validate()
        _check_semantics(circuit, dfs, rng)

    def test_depth_first_chains_are_tight(self, adder_circuit):
        """DFS must place at least some consumers right after producers."""
        dfs = depth_first_order(adder_circuit)
        adjacent = 0
        previous_out = None
        for gate in dfs.gates:
            if previous_out is not None and previous_out in set(gate.inputs()):
                adjacent += 1
            previous_out = gate.out
        assert adjacent >= len(dfs.gates) // 3

    def test_reorder_preserves_gate_multiset(self):
        circuit, _ = _random_lowered(4)
        reordered = full_reorder(circuit)
        assert sorted(g.out for g in reordered.gates) == sorted(
            g.out for g in circuit.gates
        )


class TestRename:
    def test_outputs_sequential_after_rename(self):
        circuit, _ = _random_lowered(5)
        renamed = rename(full_reorder(circuit))
        for position, gate in enumerate(renamed.gates):
            assert gate.out == renamed.n_inputs + position

    def test_inputs_unchanged(self):
        circuit, _ = _random_lowered(6)
        renamed = rename(full_reorder(circuit))
        assert renamed.n_inputs == circuit.n_inputs

    def test_semantics_preserved(self):
        circuit, rng = _random_lowered(7)
        renamed = rename(full_reorder(circuit))
        _check_semantics(circuit, renamed, rng)

    def test_rename_is_idempotent_on_renamed(self):
        circuit, _ = _random_lowered(8)
        renamed = rename(circuit)
        again = rename(renamed)
        assert [g.out for g in again.gates] == [g.out for g in renamed.gates]


class TestEsw:
    def _program(self, seed=9, n_gates=200):
        circuit, rng = _random_lowered(seed, n_gates)
        renamed = rename(full_reorder(circuit))
        return HaacProgram.from_netlist(renamed), rng

    def test_outputs_always_live(self):
        program, _ = self._program()
        window = SlidingWindow(capacity=16)
        optimized, report = eliminate_spent_wires(program, window)
        n_inputs = program.n_inputs
        for out_wire in program.outputs:
            if out_wire >= n_inputs:
                assert optimized.instructions[out_wire - n_inputs].live

    def test_live_iff_read_after_eviction(self):
        program, _ = self._program()
        window = SlidingWindow(capacity=16)
        optimized, _ = eliminate_spent_wires(program, window)
        n_inputs = program.n_inputs
        outputs = set(program.outputs)
        needed = [False] * len(program.instructions)
        for position, gate in enumerate(program.netlist.gates):
            frontier = program.out_addr(position)
            for wire in gate.inputs():
                if wire >= n_inputs and frontier >= eviction_frontier(window, wire):
                    needed[wire - n_inputs] = True
        for position, instr in enumerate(optimized.instructions):
            expected = needed[position] or program.out_addr(position) in outputs
            assert instr.live == expected

    def test_huge_window_keeps_only_outputs_live(self):
        program, _ = self._program()
        window = SlidingWindow(capacity=1 << 20)
        optimized, report = eliminate_spent_wires(program, window)
        live_positions = {
            position
            for position, instr in enumerate(optimized.instructions)
            if instr.live
        }
        expected = {
            w - program.n_inputs for w in program.outputs if w >= program.n_inputs
        }
        assert live_positions == expected

    def test_smaller_window_more_live(self):
        program, _ = self._program()
        _, small = eliminate_spent_wires(program, SlidingWindow(capacity=8))
        _, large = eliminate_spent_wires(program, SlidingWindow(capacity=256))
        assert small.live >= large.live

    def test_report_percentages(self):
        program, _ = self._program()
        _, report = eliminate_spent_wires(program, SlidingWindow(capacity=64))
        assert report.spent + report.live == report.total_outputs
        assert report.spent_pct == pytest.approx(100.0 * report.spent / report.total_outputs)

    def test_original_program_unmodified(self):
        program, _ = self._program()
        eliminate_spent_wires(program, SlidingWindow(capacity=8))
        assert all(instr.live for instr in program.instructions)
