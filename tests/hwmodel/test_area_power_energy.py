"""Area/power/energy models vs the paper's Table 4 and Figure 9."""

from dataclasses import replace

import pytest

from repro.core.compiler import OptLevel, compile_circuit
from repro.hwmodel.area import PAPER_AREA_MM2, area_model
from repro.hwmodel.energy import energy_model
from repro.hwmodel.power import CPU_POWER_W, PAPER_POWER_MW, power_model
from repro.sim.config import HaacConfig
from repro.sim.dram import HBM2
from repro.sim.timing import simulate


@pytest.fixture
def paper_config():
    return HaacConfig.paper_default()


class TestArea:
    def test_reproduces_table4(self, paper_config):
        area = area_model(paper_config)
        for key, expected in PAPER_AREA_MM2.items():
            if key == "total_haac":
                continue
            assert getattr(area, key) == pytest.approx(expected, rel=1e-6)
        assert area.total_haac == pytest.approx(4.33, abs=0.02)

    def test_total_excludes_phy(self, paper_config):
        area = area_model(paper_config)
        assert area.hbm2_phy == pytest.approx(14.9)
        parts = area.as_dict()
        assert area.total_haac == pytest.approx(
            sum(v for k, v in parts.items() if k not in ("total_haac", "hbm2_phy"))
        )

    def test_scales_with_ges(self, paper_config):
        half = area_model(replace(paper_config, n_ges=8))
        full = area_model(paper_config)
        assert half.halfgate == pytest.approx(full.halfgate / 2)
        # Forwarding scales with GE pairs.
        assert half.fwd == pytest.approx(full.fwd / 4)

    def test_scales_with_sww(self, paper_config):
        half = area_model(replace(paper_config, sww_bytes=1024 * 1024))
        full = area_model(paper_config)
        assert half.sww_sram == pytest.approx(full.sww_sram / 2)


class TestPower:
    def test_reproduces_table4(self, paper_config):
        power = power_model(paper_config)
        for key, expected in PAPER_POWER_MW.items():
            if key == "total_haac":
                continue
            assert getattr(power, key) == pytest.approx(expected, rel=1e-6)
        assert power.total_haac == pytest.approx(1502, abs=1)

    def test_power_density_matches_paper(self, paper_config):
        power = power_model(paper_config)
        area = area_model(paper_config)
        assert power.power_density_w_mm2(area.total_haac) == pytest.approx(
            0.35, abs=0.01
        )


class TestEnergy:
    def _sim(self, circuit, config):
        result = compile_circuit(
            circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        return simulate(result.streams, config)

    def test_halfgate_dominates(self, mixed_circuit):
        """Figure 9: the Half-Gate unit consumes most of the energy."""
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=HBM2)
        sim = self._sim(mixed_circuit, config)
        energy = energy_model(sim, config)
        shares = energy.normalized()
        assert shares["Half-Gate"] > 0.4
        assert max(shares, key=shares.get) == "Half-Gate"

    def test_shares_sum_to_one(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=HBM2)
        energy = energy_model(self._sim(mixed_circuit, config), config)
        assert sum(energy.normalized().values()) == pytest.approx(1.0)

    def test_efficiency_vs_cpu_positive(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=HBM2)
        energy = energy_model(self._sim(mixed_circuit, config), config)
        # CPU at 25 W for 1 ms vs micro-joules on HAAC.
        assert energy.efficiency_vs_cpu(1e-3) > 100

    def test_cpu_power_constant(self):
        assert CPU_POWER_W == 25.0

    def test_total_is_sum(self, mixed_circuit):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=HBM2)
        energy = energy_model(self._sim(mixed_circuit, config), config)
        parts = (
            energy.halfgate + energy.freexor + energy.fwd
            + energy.crossbar + energy.sram + energy.hbm2_phy
        )
        assert energy.total == pytest.approx(parts)
