"""Coupled / pull-based memory models (decoupling ablation)."""

import pytest

from repro.core.compiler import OptLevel, compile_circuit
from repro.sim.config import HaacConfig
from repro.sim.coupled import (
    DRAM_LATENCY_CYCLES,
    CoupledResult,
    coupled_runtime_batch,
    pull_based_runtime,
)
from repro.sim.timing import simulate


def coupled_at(streams, config, queue_bytes=None) -> CoupledResult:
    """One queue size of :func:`coupled_runtime_batch` (``None``: the
    config's ``queue_sram_bytes`` split over its GEs)."""
    return coupled_runtime_batch(streams, config, [queue_bytes])[0]


def slowdown(result: CoupledResult) -> float:
    """Coupled cycles over the decoupled replay's (1.0 when both are 0)."""
    if result.decoupled_cycles == 0:
        return 1.0
    return result.cycles / result.decoupled_cycles


@pytest.fixture
def compiled_and_config(mixed_circuit):
    config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
    result = compile_circuit(
        mixed_circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )
    return result, config


class TestCoupled:
    def test_generous_queues_match_decoupled(self, compiled_and_config):
        result, config = compiled_and_config
        coupled = coupled_at(result.streams, config, 1 << 30)
        assert slowdown(coupled) == pytest.approx(1.0, abs=1e-9)

    def test_never_faster_than_decoupled(self, compiled_and_config):
        result, config = compiled_and_config
        for queue_bytes in (64, 1024, 1 << 20):
            coupled = coupled_at(result.streams, config, queue_bytes)
            assert slowdown(coupled) >= 1.0 - 1e-9

    def test_smaller_queues_never_faster(self, compiled_and_config):
        result, config = compiled_and_config
        small = coupled_at(result.streams, config, 64)
        large = coupled_at(result.streams, config, 64 * 1024)
        assert small.cycles >= large.cycles - 1e-9

    def test_stall_cycles_nonnegative(self, compiled_and_config):
        result, config = compiled_and_config
        coupled = coupled_at(result.streams, config, 256)
        assert coupled.stall_cycles >= 0

    def test_runtime_seconds(self, compiled_and_config):
        result, config = compiled_and_config
        coupled = coupled_at(result.streams, config)
        assert coupled.runtime_s == pytest.approx(
            coupled.cycles / config.ge_clock_hz
        )


class TestPullBased:
    def test_never_faster_than_decoupled(self, compiled_and_config):
        result, config = compiled_and_config
        pull = pull_based_runtime(result.streams, config)
        assert slowdown(pull) >= 1.0 - 1e-9

    def test_latency_scales_penalty(self, compiled_and_config):
        result, config = compiled_and_config
        if result.streams.oor_reads == 0:
            pytest.skip("no OoR reads at this window size")
        cheap = pull_based_runtime(result.streams, config, miss_latency=10)
        expensive = pull_based_runtime(result.streams, config, miss_latency=200)
        assert expensive.cycles > cheap.cycles

    def test_no_oor_means_no_penalty(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=1 << 22)  # everything fits
        result = compile_circuit(
            mixed_circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        pull = pull_based_runtime(result.streams, config)
        decoupled = simulate(result.streams, config)
        assert pull.cycles == pytest.approx(decoupled.runtime_cycles)

    def test_default_latency_sane(self):
        assert 20 <= DRAM_LATENCY_CYCLES <= 200


class TestCoupledResultInvariants:
    """A record that contradicts itself is refused at construction."""

    FIELDS = dict(
        name="coupled(64B/GE)", cycles=120.0, decoupled_cycles=100.0,
        stall_cycles=30.0, ge_clock_hz=1e9,
    )

    def test_consistent_record_is_accepted(self):
        assert slowdown(CoupledResult(**self.FIELDS)) == 1.2

    @pytest.mark.parametrize("field", ["cycles", "decoupled_cycles", "stall_cycles"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_cycle_counts_are_finite_and_non_negative(self, field, value):
        with pytest.raises(
            ValueError, match=rf"^{field} must be finite and >= 0, got {value}$"
        ):
            CoupledResult(**{**self.FIELDS, field: value})

    @pytest.mark.parametrize("value", [0.0, -1e9, float("nan"), float("inf")])
    def test_clock_is_finite_and_positive(self, value):
        with pytest.raises(
            ValueError, match=rf"^ge_clock_hz must be finite and > 0, got {value}$"
        ):
            CoupledResult(**{**self.FIELDS, "ge_clock_hz": value})

    def test_zero_cycles_are_allowed(self):
        record = CoupledResult(**{
            **self.FIELDS, "cycles": 0.0, "decoupled_cycles": 0.0, "stall_cycles": 0.0,
        })
        assert slowdown(record) == 1.0
