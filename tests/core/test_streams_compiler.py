"""Stream generation and the compiler driver."""

import random

import pytest

from repro.circuits.netlist import GateOp
from repro.core.compiler import OptLevel, compile_best, compile_circuit
from repro.core.isa import HaacOp, InstructionEncoding, decode_instruction
from repro.core.passes.streams import ScheduleParams, generate_streams
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig
from tests.conftest import compile_all_levels, random_circuit


@pytest.fixture
def config():
    return HaacConfig(n_ges=4, sww_bytes=64 * 16)  # 64-wire window


@pytest.fixture
def compiled(mixed_circuit, config):
    return compile_circuit(
        mixed_circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )


class TestStreamPartitioning:
    def test_every_instruction_assigned_once(self, compiled):
        streams = compiled.streams
        seen = sorted(
            position for ge in streams.ges for position in ge.positions
        )
        assert seen == list(range(len(streams.program.instructions)))

    def test_ge_streams_in_program_order(self, compiled):
        for ge in compiled.streams.ges:
            assert list(ge.positions) == sorted(ge.positions)

    def test_table_counts_sum_to_ands(self, compiled):
        streams = compiled.streams
        assert sum(ge.n_tables for ge in streams.ges) == streams.program.n_and

    def test_issue_cycles_respect_dependences(self, compiled):
        streams = compiled.streams
        program = streams.program
        params = streams.params
        for position, gate in enumerate(program.netlist.gates):
            issue = streams.issue_cycle[position]
            for wire in gate.inputs():
                if wire < program.n_inputs:
                    continue
                producer = wire - program.n_inputs
                producer_instr = program.instructions[producer]
                latency = (
                    params.and_latency
                    if producer_instr.op is HaacOp.AND
                    else params.xor_latency
                )
                assert issue >= streams.issue_cycle[producer] + latency or (
                    # same-GE forwarding cannot beat the producer latency
                    False
                )

    def test_per_ge_one_issue_per_cycle(self, compiled):
        streams = compiled.streams
        for ge_id, ge in enumerate(streams.ges):
            issues = [streams.issue_cycle[p] for p in ge.positions]
            assert all(b > a for a, b in zip(issues, issues[1:]))


class TestOorAnalysis:
    def test_oor_flags_match_window(self, compiled):
        streams = compiled.streams
        program = streams.program
        window = streams.window
        for ge in streams.ges:
            for local, position in enumerate(ge.positions):
                gate = program.netlist.gates[position]
                out = program.out_addr(position)
                assert ge.oor_a[local] == window.is_oor(gate.a, out)
                assert ge.oor_b[local] == window.is_oor(gate.b, out)

    def test_oor_queue_order_matches_flags(self, compiled):
        streams = compiled.streams
        program = streams.program
        for ge in streams.ges:
            expected = []
            for local, position in enumerate(ge.positions):
                gate = program.netlist.gates[position]
                if ge.oor_a[local]:
                    expected.append(gate.a)
                if ge.oor_b[local]:
                    expected.append(gate.b)
            assert list(ge.oor_addresses) == expected

    def test_large_window_no_oor(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=1 << 22)
        result = compile_circuit(
            mixed_circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        assert result.streams.oor_reads == 0


class TestWindowSync:
    def test_writer_waits_for_slot_readers(self, compiled):
        """No wire may be overwritten (slot collision) before its last
        program-order-earlier in-window reader issues."""
        streams = compiled.streams
        program = streams.program
        capacity = streams.window.capacity
        last_read = {}
        for position, gate in enumerate(program.netlist.gates):
            issue = streams.issue_cycle[position]
            out = program.out_addr(position)
            evicted = out - capacity
            if evicted >= 0 and evicted in last_read:
                assert issue >= last_read[evicted]
            for wire in gate.inputs():
                last_read[wire] = max(last_read.get(wire, 0), issue + 1)


class TestMachineEncoding:
    def test_machine_words_decode(self, compiled):
        streams = compiled.streams
        window = streams.window
        encoding = InstructionEncoding.for_sww_wires(window.capacity + 1)
        for ge in streams.ges:
            words = ge.encode_machine_words(window)
            assert len(words) == len(ge.instructions)
            for word, instr, a_oor, b_oor in zip(
                words, ge.instructions, ge.oor_a, ge.oor_b
            ):
                decoded = decode_instruction(word, encoding)
                assert decoded.op is instr.op
                assert (decoded.wa == 0) == a_oor
                assert (decoded.wb == 0) == b_oor
                if not a_oor:
                    assert decoded.wa == (instr.wa % window.capacity) + 1


class TestCompilerDriver:
    def test_all_levels_compile_and_validate(self, mixed_circuit, config):
        results = compile_all_levels(mixed_circuit, config)
        for opt, result in results.items():
            result.program.validate()
            assert result.opt is opt

    def test_esw_reduces_live(self, mixed_circuit, config):
        results = compile_all_levels(mixed_circuit, config)
        assert (
            results[OptLevel.RO_RN_ESW].program.n_live
            <= results[OptLevel.RO_RN].program.n_live
        )

    def test_without_esw_all_live(self, mixed_circuit, config):
        results = compile_all_levels(mixed_circuit, config)
        for opt in (OptLevel.BASELINE, OptLevel.RO_RN, OptLevel.SEG_RN):
            assert results[opt].program.live_fraction() == 1.0

    def test_reorder_reduces_makespan(self, config):
        rng = random.Random(13)
        # A deep chain-heavy circuit where reordering matters.
        circuit = random_circuit(rng, n_inputs=8, n_gates=400, and_fraction=0.5)
        results = compile_all_levels(circuit, config)
        assert (
            results[OptLevel.RO_RN].streams.makespan
            <= results[OptLevel.BASELINE].streams.makespan
        )

    def test_compile_best_picks_minimum(self, mixed_circuit, config):
        def score(result):
            return float(result.streams.makespan)

        best, scores = compile_best(
            mixed_circuit, config.window, config.n_ges, score,
            params=config.schedule_params(),
        )
        assert scores[best.opt] == min(scores.values())

    def test_applied_passes_recorded(self, compiled):
        passes = compiled.program.applied_passes
        assert any("full_reorder" in p for p in passes)
        assert any("rename" in p for p in passes)
        assert any("esw" in p for p in passes)

    def test_more_ges_never_increases_makespan_much(self, mixed_circuit, config):
        window = config.window
        params = config.schedule_params()
        one = compile_circuit(mixed_circuit, window, 1, OptLevel.RO_RN_ESW, params)
        many = compile_circuit(mixed_circuit, window, 8, OptLevel.RO_RN_ESW, params)
        assert many.streams.makespan <= one.streams.makespan
