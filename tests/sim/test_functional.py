"""Functional HAAC machine: compiled streams + real crypto == plaintext.

This is the reproduction's core validation (paper section 5
"Correctness"): every compiler configuration must produce streams that,
executed through the physical SWW/queue model with genuine Half-Gate
cryptography, decode to the plaintext result.
"""

import random

import pytest

from repro.core.compiler import OptLevel, compile_circuit
from repro.sim.config import HaacConfig
from repro.sim.functional import FunctionalRun, HaacMachineError, run_functional
from tests.conftest import random_circuit


def _compile(circuit, config, opt):
    return compile_circuit(
        circuit, config.window, config.n_ges, opt=opt,
        params=config.schedule_params(),
    )


@pytest.fixture
def tiny_config():
    # 64-wire SWW: windows slide constantly, OoR paths well exercised.
    return HaacConfig(n_ges=4, sww_bytes=64 * 16)


class TestEndToEnd:
    @pytest.mark.parametrize("opt", list(OptLevel))
    def test_mixed_circuit_all_levels(self, mixed_circuit, tiny_config, opt, rng):
        result = _compile(mixed_circuit, tiny_config, opt)
        g = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)]
        g2, e2 = result.lowered.adapt_inputs(g, e)
        run = run_functional(result.streams, g2, e2, seed=3)
        assert run.output_bits == mixed_circuit.eval_plain(g, e)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_with_inv(self, tiny_config, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, n_inputs=8, n_gates=150, inv_fraction=0.2)
        result = _compile(circuit, tiny_config, OptLevel.RO_RN_ESW)
        g = [rng.randint(0, 1) for _ in range(circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(circuit.n_evaluator_inputs)]
        g2, e2 = result.lowered.adapt_inputs(g, e)
        run = run_functional(result.streams, g2, e2, seed=seed)
        assert run.output_bits == circuit.eval_plain(g, e)

    def test_single_ge(self, mixed_circuit, rng):
        config = HaacConfig(n_ges=1, sww_bytes=64 * 16)
        result = _compile(mixed_circuit, config, OptLevel.SEG_RN_ESW)
        g = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)]
        g2, e2 = result.lowered.adapt_inputs(g, e)
        run = run_functional(result.streams, g2, e2, seed=1)
        assert run.output_bits == mixed_circuit.eval_plain(g, e)

    def test_large_window_no_oor_pops(self, mixed_circuit, rng):
        config = HaacConfig(n_ges=4, sww_bytes=1 << 22)
        result = _compile(mixed_circuit, config, OptLevel.RO_RN_ESW)
        g = [0] * mixed_circuit.n_garbler_inputs
        e = [1] * mixed_circuit.n_evaluator_inputs
        g2, e2 = result.lowered.adapt_inputs(g, e)
        run = run_functional(result.streams, g2, e2)
        assert run.oor_pops == 0


class TestAccounting:
    def test_pop_counts_match_compiler(self, mixed_circuit, tiny_config, rng):
        result = _compile(mixed_circuit, tiny_config, OptLevel.RO_RN_ESW)
        g = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)]
        g2, e2 = result.lowered.adapt_inputs(g, e)
        run = run_functional(result.streams, g2, e2)
        assert run.oor_pops == result.streams.oor_reads
        assert run.table_pops == result.program.n_and
        assert run.dram_wire_writes == result.program.n_live
        assert run.hash_calls == 2 * result.program.n_and

    def test_esw_reduces_dram_writes(self, mixed_circuit, tiny_config, rng):
        g = [1] * mixed_circuit.n_garbler_inputs
        e = [0] * mixed_circuit.n_evaluator_inputs
        writes = {}
        for opt in (OptLevel.RO_RN, OptLevel.RO_RN_ESW):
            result = _compile(mixed_circuit, tiny_config, opt)
            g2, e2 = result.lowered.adapt_inputs(g, e)
            writes[opt] = run_functional(result.streams, g2, e2).dram_wire_writes
        assert writes[OptLevel.RO_RN_ESW] < writes[OptLevel.RO_RN]


class TestHardwareInvariants:
    def test_missing_live_bit_detected(self, mixed_circuit, tiny_config, rng):
        """Clearing a needed live bit must trip the machine's DRAM check."""
        result = _compile(mixed_circuit, tiny_config, OptLevel.RO_RN_ESW)
        streams = result.streams
        # Find an instruction whose output is read OoR later and clear it.
        target = None
        for ge in streams.ges:
            for wire in ge.oor_addresses:
                if wire >= result.program.n_inputs:
                    target = wire - result.program.n_inputs
                    break
            if target is not None:
                break
        if target is None:
            pytest.skip("no internal OoR wires in this compile")
        result.program.live[target] = 0
        g = [0] * mixed_circuit.n_garbler_inputs
        e = [0] * mixed_circuit.n_evaluator_inputs
        g2, e2 = result.lowered.adapt_inputs(g, e)
        with pytest.raises(HaacMachineError):
            run_functional(streams, g2, e2)

    def test_corrupted_table_changes_output(self, mixed_circuit, tiny_config, rng):
        """Flipping one garbled-table bit must corrupt the computation --
        the crypto path is real, not a pass-through."""
        from repro.gc.halfgate import GarbledTable
        from tests.gc.oracles import garble_circuit

        result = _compile(mixed_circuit, tiny_config, OptLevel.RO_RN_ESW)
        g = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)]
        g2, e2 = result.lowered.adapt_inputs(g, e)

        garbler = garble_circuit(result.program.netlist, seed=3)
        clean = run_functional(result.streams, g2, e2, garbler=garbler)
        # Corrupt the first garbled table.
        first = garbler.garbled.tables[0]
        garbler.garbled.tables[0] = GarbledTable(
            first.generator_row ^ 1, first.evaluator_row
        )
        corrupted = run_functional(result.streams, g2, e2, garbler=garbler)
        assert corrupted.output_labels != clean.output_labels

    def test_corrupted_oor_queue_detected(self, mixed_circuit, tiny_config):
        result = _compile(mixed_circuit, tiny_config, OptLevel.RO_RN_ESW)
        streams = result.streams
        corrupted = False
        for ge in streams.ges:
            if len(ge.oor_addresses) >= 2:
                ge.oor_addresses[0], ge.oor_addresses[1] = (
                    ge.oor_addresses[1],
                    ge.oor_addresses[0],
                )
                corrupted = ge.oor_addresses[0] != ge.oor_addresses[1]
                break
        if not corrupted:
            pytest.skip("no GE with two distinct OoR pops")
        g = [0] * mixed_circuit.n_garbler_inputs
        e = [0] * mixed_circuit.n_evaluator_inputs
        g2, e2 = result.lowered.adapt_inputs(g, e)
        with pytest.raises(HaacMachineError):
            run_functional(streams, g2, e2)


class TestFunctionalRunInvariants:
    _CONSISTENT = dict(
        output_bits=[1, 0], output_labels=[5, 6], sww_reads=4, oor_pops=0,
        table_pops=3, dram_wire_writes=2, hash_calls=6,
    )

    def test_consistent_record_builds(self):
        assert FunctionalRun(**self._CONSISTENT).hash_calls == 6

    @pytest.mark.parametrize(
        "change, match",
        [
            (dict(hash_calls=5), "hash_calls 5 != 2 \\* table_pops 3"),
            (dict(output_labels=[5]), "2 output bits for 1 output labels"),
        ],
        ids=["hash_calls", "output_labels"],
    )
    def test_inconsistent_record_raises(self, change, match):
        with pytest.raises(ValueError, match=match):
            FunctionalRun(**{**self._CONSISTENT, **change})
