"""Hardware configuration and DRAM models."""

import math
import re
from dataclasses import replace

import pytest

from repro.core.passes.streams import ScheduleParams
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig, Role
from repro.sim.dram import DDR4, HBM2, BandwidthLedger, DramSpec


class TestDramSpec:
    def test_paper_bandwidths(self):
        assert DDR4.bandwidth_gb_s == 35.2
        assert HBM2.bandwidth_gb_s == 512.0

    @pytest.mark.parametrize("value", [-1, 0, math.nan, math.inf])
    def test_non_physical_bandwidth_rejected(self, value):
        message = f"bandwidth_gb_s must be finite and > 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DramSpec(name="bad", bandwidth_gb_s=value)


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
        with pytest.raises(ValueError, match="non-negative"):
            BandwidthLedger().charge("table_rd", -1)

    def test_charge_is_the_only_way_in(self):
        # A dict constructor would bypass charge's stream and sign checks.
        with pytest.raises(TypeError, match="bytes_by_stream"):
            BandwidthLedger(bytes_by_stream={"tabel_rd": 32, "live_wr": -5})

    @pytest.mark.parametrize("stream", ["x", "table", "live_rd", "Instr_rd", ""])
    def test_unknown_stream_rejected(self, stream):
        ledger = BandwidthLedger()
        with pytest.raises(ValueError, match="unknown stream"):
            ledger.charge(stream, 16)
        assert ledger.total_bytes == 0 and ledger.read_bytes == 0


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
        assert replace(config, sww_bytes=1 << 20).window.capacity == 65536
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

    @pytest.mark.parametrize("field,value,message", [
        ("banks_per_ge", 0, "banks_per_ge must be >= 1, got 0"),
        ("instr_bytes", 0, "instr_bytes must be >= 1, got 0"),
        ("writeback_stages", -1, "writeback_stages must be >= 0, got -1"),
        ("queue_sram_bytes", -1, "queue_sram_bytes must be >= 0, got -1"),
        ("ge_clock_hz", -1e9, "ge_clock_hz must be finite and > 0, got -1000000000.0"),
        ("ge_clock_hz", 0, "ge_clock_hz must be finite and > 0, got 0"),
        ("ge_clock_hz", math.nan, "ge_clock_hz must be finite and > 0, got nan"),
        ("ge_clock_hz", math.inf, "ge_clock_hz must be finite and > 0, got inf"),
        ("sww_clock_hz", 0, "sww_clock_hz must be finite and > 0, got 0"),
        ("sww_clock_hz", math.nan, "sww_clock_hz must be finite and > 0, got nan"),
    ])
    def test_non_physical_hardware_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HaacConfig(n_ges=4, sww_bytes=1024, **{field: value})

    def test_zero_stage_and_queue_counts_are_physical(self):
        config = HaacConfig(writeback_stages=0, queue_sram_bytes=0)
        assert config.writeback_stages == config.queue_sram_bytes == 0

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
