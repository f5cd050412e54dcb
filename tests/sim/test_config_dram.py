"""Hardware configuration and DRAM models."""

import pytest

from repro.core.passes.streams import ScheduleParams
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig, Role
from repro.sim.dram import DDR4, HBM2, BandwidthLedger, DramSpec
from repro.sim.pipeline import run_best_reorder, run_haac


class TestDramSpec:
    def test_paper_bandwidths(self):
        assert DDR4.bandwidth_gb_s == 35.2
        assert HBM2.bandwidth_gb_s == 512.0

    def test_seconds_for(self):
        assert DDR4.seconds_for(35.2e9) == pytest.approx(1.0)
        assert HBM2.seconds_for(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DDR4.seconds_for(-1)


class TestLedger:
    def test_charges_accumulate(self):
        ledger = BandwidthLedger()
        ledger.charge("instr_rd", 100)
        ledger.charge("instr_rd", 50)
        ledger.charge("live_wr", 30)
        assert ledger.bytes_by_stream["instr_rd"] == 150
        assert ledger.total_bytes == 180
        assert ledger.write_bytes == 30
        assert ledger.read_bytes == 150

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            BandwidthLedger().charge("x", -1)


class TestHaacConfig:
    def test_paper_default(self):
        config = HaacConfig.paper_default()
        assert config.n_ges == 16
        assert config.sww_bytes == 2 * 1024 * 1024
        assert config.n_banks == 64
        assert config.window.capacity == 131072
        assert config.and_latency == 18  # evaluator

    def test_garbler_latency(self):
        config = HaacConfig(role=Role.GARBLER)
        assert config.and_latency == 21

    def test_with_helpers(self):
        config = HaacConfig.paper_default()
        assert config.with_ges(4).n_ges == 4
        assert config.with_dram(HBM2).dram is HBM2
        assert config.with_sww_bytes(1 << 20).window.capacity == 65536
        assert config.with_role(Role.GARBLER).and_latency == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            HaacConfig(n_ges=0)
        with pytest.raises(ValueError):
            HaacConfig(sww_bytes=16)

    @pytest.mark.parametrize("field", [
        "evaluator_and_stages", "garbler_and_stages", "xor_latency",
    ])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_physical_latency_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            HaacConfig(n_ges=4, sww_bytes=1024, **{field: value})

    def test_negative_forward_rejected(self):
        with pytest.raises(ValueError, match="cross_ge_forward must be >= 0"):
            HaacConfig(cross_ge_forward=-1)
        # A free forward is physical.
        assert HaacConfig(cross_ge_forward=0).schedule_params().cross_ge_forward == 0

    @pytest.mark.parametrize("field,value", [
        ("and_latency", 0), ("xor_latency", -2), ("cross_ge_forward", -1),
    ])
    def test_schedule_params_reject_non_physical(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            ScheduleParams(**{field: value})

    def test_schedule_params_follow_role(self):
        ev = HaacConfig(role=Role.EVALUATOR).schedule_params()
        gb = HaacConfig(role=Role.GARBLER).schedule_params()
        assert ev.and_latency == 18
        assert gb.and_latency == 21

    def test_dram_bytes_per_cycle(self):
        config = HaacConfig.paper_default()
        assert config.dram_bytes_per_ge_cycle == pytest.approx(35.2)


class TestPipeline:
    def test_run_haac(self, mixed_circuit):
        run = run_haac(mixed_circuit, HaacConfig(n_ges=2, sww_bytes=64 * 16))
        assert run.runtime_s > 0
        assert run.sim.n_instructions == len(run.compile_result.program.instructions)

    def test_run_best_reorder_picks_min(self, mixed_circuit):
        config = HaacConfig(n_ges=2, sww_bytes=64 * 16)
        best, times = run_best_reorder(mixed_circuit, config)
        assert best.runtime_s == min(times.values())
