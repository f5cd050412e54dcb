"""Energy model (paper Figure 9).

Converts the busy powers of :mod:`repro.hwmodel.power` into per-workload
energies using activity counts from a simulation:

* Half-Gate unit: busy while streaming AND gates -- one initiation per
  AND per GE pipeline, so busy time is ``n_AND / n_GE`` GE cycles;
* FreeXOR: likewise over XOR instructions;
* SRAM (SWW + queues) and crossbar: active per instruction (two operand
  reads + one write, plus queue pushes/pops);
* forwarding network: active per instruction;
* HBM2/DDR PHY: busy for the streaming-traffic time.

Clock gating is assumed when idle (the components are simple streaming
pipelines), matching the paper's average-power methodology.  The module
reproduces Figure 9's two outputs: the normalized component breakdown
and the energy-efficiency-over-CPU multiplier printed above each bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.config import HaacConfig
from ..sim.stats import SimResult
from .power import CPU_POWER_W, power_model

__all__ = ["EnergyBreakdown", "energy_model"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy (joules) for one workload execution."""

    halfgate: float
    freexor: float
    fwd: float
    crossbar: float
    sram: float  # SWW + queues, grouped as "SRAM" like Figure 9
    hbm2_phy: float

    @property
    def total(self) -> float:
        return (
            self.halfgate
            + self.freexor
            + self.fwd
            + self.crossbar
            + self.sram
            + self.hbm2_phy
        )

    def normalized(self) -> Dict[str, float]:
        """Fractions matching Figure 9's stacked bars.

        FreeXOR and the forwarding network are grouped as "Others", as
        in the paper ("so small, they are grouped as Others").
        """
        total = self.total
        if total == 0:
            return {}
        return {
            "Half-Gate": self.halfgate / total,
            "Crossbar": self.crossbar / total,
            "SRAM": self.sram / total,
            "Others": (self.freexor + self.fwd) / total,
            "HBM2 PHY": self.hbm2_phy / total,
        }

    def efficiency_vs_cpu(self, cpu_runtime_s: float) -> float:
        """Energy-efficiency multiplier over the CPU (Figure 9's red text)."""
        cpu_energy = CPU_POWER_W * cpu_runtime_s
        return cpu_energy / self.total if self.total else float("inf")


def energy_model(sim: SimResult, config: HaacConfig) -> EnergyBreakdown:
    """Energy of one simulated execution on ``config``."""
    power = power_model(config)
    f = config.ge_clock_hz
    n_ges = config.n_ges
    n_and = sim.n_and
    n_xor = sim.n_instructions - sim.n_and

    # Busy times in seconds (per-unit streaming occupancy).
    t_and = (n_and / n_ges) / f
    t_xor = (n_xor / n_ges) / f
    t_instr = (sim.n_instructions / n_ges) / f
    t_traffic = sim.traffic_s

    mw = 1e-3
    return EnergyBreakdown(
        halfgate=power.halfgate * mw * t_and,
        freexor=power.freexor * mw * t_xor,
        fwd=power.fwd * mw * t_instr,
        crossbar=power.crossbar * mw * t_instr,
        sram=(power.sww_sram + power.queues_sram) * mw * t_instr,
        hbm2_phy=power.hbm2_phy * mw * t_traffic,
    )
