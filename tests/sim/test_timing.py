"""Timing simulator invariants and the decoupled traffic model."""

from dataclasses import replace

import pytest

from repro.core.compiler import OptLevel, compile_circuit
from repro.sim.config import HaacConfig, Role
from repro.sim.coupled import coupled_runtime_batch, pull_based_runtime
from repro.sim.dram import DDR4, HBM2, BandwidthLedger
from repro.sim.stats import SimResult, StallBreakdown
from repro.sim.timing import _traffic_ledgers, simulate, simulate_batch
from repro.workloads import get_workload
from tests.sim.test_coupled import coupled_at


def _run(circuit, config, opt=OptLevel.RO_RN_ESW):
    result = compile_circuit(
        circuit, config.window, config.n_ges, opt=opt,
        params=config.schedule_params(),
    )
    return result, simulate(result.streams, config)


class TestTrafficModel:
    def test_byte_accounting(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        result, sim = _run(mixed_circuit, config)
        ledger = sim.ledger
        program = result.program
        assert ledger.bytes_by_stream["input_rd"] == program.n_inputs * 16
        assert (
            ledger.bytes_by_stream["instr_rd"]
            == len(program.instructions) * config.instr_bytes
        )
        assert ledger.bytes_by_stream["table_rd"] == program.n_and * 32
        assert ledger.bytes_by_stream["oorw_rd"] == result.streams.oor_reads * 20
        assert ledger.bytes_by_stream["live_wr"] == program.n_live * 16
        assert ledger.total_bytes == sum(ledger.bytes_by_stream.values())

    def test_read_write_split(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        ledger = sim.ledger
        assert ledger.read_bytes + ledger.write_bytes == ledger.total_bytes

    def test_hbm_reduces_traffic_time(self, mixed_circuit):
        ddr = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=DDR4)
        hbm = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=HBM2)
        _, sim_ddr = _run(mixed_circuit, ddr)
        _, sim_hbm = _run(mixed_circuit, hbm)
        ratio = sim_ddr.traffic_cycles / sim_hbm.traffic_cycles
        assert ratio == pytest.approx(HBM2.bandwidth_gb_s / DDR4.bandwidth_gb_s)

    def test_runtime_is_max_of_components(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        assert sim.runtime_cycles == max(
            float(sim.compute_cycles), sim.traffic_cycles
        )
        assert sim.memory_bound == (sim.traffic_cycles > sim.compute_cycles)


class TestComputeScaling:
    def test_more_ges_never_slower(self, mixed_circuit):
        cycles = []
        for n_ges in (1, 2, 4, 8):
            config = HaacConfig(n_ges=n_ges, sww_bytes=64 * 16)
            _, sim = _run(mixed_circuit, config)
            cycles.append(sim.compute_cycles)
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))

    def test_single_ge_issue_bound(self, mixed_circuit):
        """One GE issues at most one instruction per cycle."""
        config = HaacConfig(n_ges=1, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        assert sim.compute_cycles >= sim.n_instructions

    def test_garbler_pipeline_deeper(self, mixed_circuit):
        ev = HaacConfig(n_ges=2, sww_bytes=64 * 16, role=Role.EVALUATOR)
        gb = HaacConfig(n_ges=2, sww_bytes=64 * 16, role=Role.GARBLER)
        _, sim_ev = _run(mixed_circuit, ev)
        _, sim_gb = _run(mixed_circuit, gb)
        assert sim_gb.compute_cycles >= sim_ev.compute_cycles

    def test_all_instructions_counted(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        assert sum(sim.issued_per_ge.values()) == sim.n_instructions


class TestStalls:
    def test_baseline_stalls_more_than_reordered(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim_base = _run(mixed_circuit, config, OptLevel.BASELINE)
        _, sim_ro = _run(mixed_circuit, config, OptLevel.RO_RN)
        assert sim_base.stalls.dependence >= sim_ro.stalls.dependence

    def test_stall_taxonomy_nonnegative(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        breakdown = sim.stalls.as_dict()
        assert all(v >= 0 for v in breakdown.values())
        assert sim.stalls.total == sum(breakdown.values())

    def test_bank_conflicts_only_when_modelled(self, mixed_circuit):
        off = HaacConfig(n_ges=4, sww_bytes=64 * 16, model_bank_conflicts=False)
        on = HaacConfig(n_ges=4, sww_bytes=64 * 16, model_bank_conflicts=True)
        _, sim_off = _run(mixed_circuit, off)
        _, sim_on = _run(mixed_circuit, on)
        assert sim_off.stalls.bank_conflict == 0
        assert sim_on.compute_cycles >= sim_off.compute_cycles

    def test_fewer_banks_more_conflicts(self, mixed_circuit):
        few = HaacConfig(
            n_ges=4, sww_bytes=64 * 16, banks_per_ge=1, model_bank_conflicts=True
        )
        many = HaacConfig(
            n_ges=4, sww_bytes=64 * 16, banks_per_ge=8, model_bank_conflicts=True
        )
        _, sim_few = _run(mixed_circuit, few)
        _, sim_many = _run(mixed_circuit, many)
        assert sim_few.stalls.bank_conflict >= sim_many.stalls.bank_conflict


class TestSummary:
    def test_summary_fields(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        _, sim = _run(mixed_circuit, config)
        summary = sim.summary()
        assert summary["runtime_us"] > 0
        assert summary["cycles_per_gate"] > 0


class TestTrafficBatch:
    """The batched traffic walk must be bit-identical, per point, to the
    serial single-config ledger (same charges, same order, same sums)."""

    def _serial_ledger(self, streams, config):
        # The pre-batching walk, charge for charge, as an independent
        # reference.
        from repro.core.sww import WIRE_BYTES
        from repro.sim.config import OOR_ADDR_BYTES, TABLE_BYTES
        from repro.sim.dram import BandwidthLedger

        program = streams.program
        ledger = BandwidthLedger()
        ledger.charge("input_rd", program.n_inputs * WIRE_BYTES)
        ledger.charge("instr_rd", len(program.instructions) * config.instr_bytes)
        ledger.charge("table_rd", program.n_and * TABLE_BYTES)
        ledger.charge("oorw_rd", streams.oor_reads * (WIRE_BYTES + OOR_ADDR_BYTES))
        ledger.charge("live_wr", program.n_live * WIRE_BYTES)
        return ledger

    def _configs(self):
        base = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        return [
            base,
            base.variants(dram=[DDR4, HBM2])[0],
            HaacConfig(n_ges=2, sww_bytes=64 * 16, role=Role.GARBLER),
            HaacConfig(n_ges=8, sww_bytes=64 * 16),
        ]

    def test_batch_matches_serial_walk_per_point(self, mixed_circuit):
        configs = self._configs()
        result = compile_circuit(
            mixed_circuit, configs[0].window, configs[0].n_ges,
            opt=OptLevel.RO_RN_ESW, params=configs[0].schedule_params(),
        )
        ledgers = _traffic_ledgers(result.streams, configs, result.program.n_and)
        assert len(ledgers) == len(configs)
        for config, batched in zip(configs, ledgers):
            serial = self._serial_ledger(result.streams, config)
            # Bit-identical: same charge names in the same order, same
            # per-stream byte counts, same totals.
            assert list(batched.bytes_by_stream) == list(serial.bytes_by_stream)
            assert batched.as_dict() == serial.as_dict()
            assert batched.total_bytes == serial.total_bytes

    def test_batch_ledgers_independent(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        result = compile_circuit(
            mixed_circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        first, second = (
            sim.ledger for sim in simulate_batch(result.streams, [config, config])
        )
        first.charge("input_rd", 1)
        assert second.as_dict() != first.as_dict()


#: Every timing model that takes a config, called on (streams, config).
MODELS = {
    "simulate": simulate,
    "simulate_batch": lambda streams, config: simulate_batch(streams, [config]),
    "coupled": coupled_at,
    "coupled_batch": lambda streams, config: coupled_runtime_batch(
        streams, config, [64, 4096]
    ),
    "pull_based": pull_based_runtime,
}


class TestCompiledShape:
    """A config is timed only on the machine it was compiled for: the
    streams fix the GE count and the SWW capacity, so another value of
    either raises instead of silently replaying the compiled shape."""

    @pytest.fixture(scope="class")
    def relu16(self):
        config = HaacConfig.paper_default()
        built = get_workload("ReLU").build(k=16, width=8)
        result = compile_circuit(
            built.circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=False,
        )
        return result.streams, config

    @pytest.mark.parametrize("engine", ["numpy", "reference"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_ge_count_mismatch(self, relu16, model, engine):
        streams, config = relu16
        with pytest.raises(ValueError, match="4 GEs, 131072-wire SWW"):
            MODELS[model](streams, replace(config, n_ges=4).with_sim_engine(engine))

    @pytest.mark.parametrize("engine", ["numpy", "reference"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_sww_capacity_mismatch(self, relu16, model, engine):
        streams, config = relu16
        mismatched = replace(config, sww_bytes=1024).with_sim_engine(engine)
        with pytest.raises(ValueError, match="16 GEs, 64-wire SWW"):
            MODELS[model](streams, mismatched)

    def test_supplied_baseline_does_not_skip_the_check(self, relu16):
        streams, config = relu16
        baseline = simulate(streams, config)
        with pytest.raises(ValueError, match="does not match"):
            coupled_runtime_batch(streams, replace(config, n_ges=4), [64], baseline)


class TestSimResultInvariants:
    """A result that breaks a cheap invariant raises at construction."""

    @staticmethod
    def _result(**overrides):
        fields = dict(
            name="bad", compute_cycles=10, traffic_cycles=0.0,
            ledger=BandwidthLedger(), stalls=StallBreakdown(),
            n_instructions=6, n_and=2, ge_clock_hz=1e9,
            issued_per_ge={0: 4, 1: 2},
        )
        fields.update(overrides)
        return SimResult(**fields)

    def test_consistent_result_constructs(self):
        assert self._result().n_instructions == 6
        assert self._result(
            compute_cycles=0, n_instructions=0, n_and=0, issued_per_ge={}
        ).runtime_cycles == 0

    def test_issued_must_sum_to_instructions(self):
        with pytest.raises(ValueError, match="sum"):
            self._result(issued_per_ge={0: 4, 1: 1})

    def test_a_ge_issues_at_most_once_per_cycle(self):
        with pytest.raises(ValueError, match="one instruction per cycle"):
            self._result(compute_cycles=3)

    def test_n_and_within_instructions(self):
        for n_and in (-1, 7):
            with pytest.raises(ValueError, match="n_and"):
                self._result(n_and=n_and)

    def test_stall_terms_non_negative(self):
        for term in ("dependence", "window_sync", "bank_conflict", "drain"):
            with pytest.raises(ValueError, match="negative"):
                self._result(stalls=StallBreakdown(**{term: -1}))
