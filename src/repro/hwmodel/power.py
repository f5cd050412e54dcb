"""Power model (paper Table 4, right column).

Average powers are anchored to the paper's 16 nm numbers for the
reference design and scale with the same structural ratios as the area
model.  These are *streaming* powers: the value while the unit is busy
every cycle, which is how the energy model (:mod:`repro.hwmodel.energy`)
converts them into per-event energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.config import HaacConfig
from .technology import TSMC_16, TechNode

__all__ = ["PowerBreakdown", "power_model", "PAPER_POWER_MW", "CPU_POWER_W"]

# Paper Table 4 power column (mW), 16 nm reference design.
PAPER_POWER_MW: Dict[str, float] = {
    "halfgate": 1253.0,
    "freexor": 0.321,
    "fwd": 0.255,
    "crossbar": 16.6,
    "sww_sram": 196.0,
    "queues_sram": 35.5,
    "total_haac": 1502.0,
    "hbm2_phy": 225.0,  # TDP
}

# Paper section 6.4: the CPU dissipates an average of 25 W across
# benchmarks (measured with a commercial tool on the i7-10700K).
CPU_POWER_W = 25.0

_REF_GES = 16
_REF_SWW_BYTES = 2 * 1024 * 1024
_REF_BANKS = 64
_REF_QUEUE_BYTES = 64 * 1024


@dataclass(frozen=True)
class PowerBreakdown:
    """Component powers in mW for one design point (busy/streaming)."""

    halfgate: float
    freexor: float
    fwd: float
    crossbar: float
    sww_sram: float
    queues_sram: float
    hbm2_phy: float

    @property
    def total_haac(self) -> float:
        return (
            self.halfgate
            + self.freexor
            + self.fwd
            + self.crossbar
            + self.sww_sram
            + self.queues_sram
        )

    def power_density_w_mm2(self, area_mm2: float) -> float:
        """Power density of the HAAC IP (paper: 0.35 W/mm^2)."""
        return (self.total_haac / 1e3) / area_mm2

    def as_dict(self) -> Dict[str, float]:
        return {
            "halfgate": self.halfgate,
            "freexor": self.freexor,
            "fwd": self.fwd,
            "crossbar": self.crossbar,
            "sww_sram": self.sww_sram,
            "queues_sram": self.queues_sram,
            "total_haac": self.total_haac,
            "hbm2_phy": self.hbm2_phy,
        }


def power_model(config: HaacConfig, node: TechNode = TSMC_16) -> PowerBreakdown:
    """Busy power of ``config`` anchored to the paper's reference design."""
    ge_ratio = config.n_ges / _REF_GES
    factor = node.power_factor
    return PowerBreakdown(
        halfgate=PAPER_POWER_MW["halfgate"] * ge_ratio * factor,
        freexor=PAPER_POWER_MW["freexor"] * ge_ratio * factor,
        fwd=PAPER_POWER_MW["fwd"] * (config.n_ges**2 / _REF_GES**2) * factor,
        crossbar=PAPER_POWER_MW["crossbar"]
        * (config.n_ges * config.n_banks) / (_REF_GES * _REF_BANKS)
        * factor,
        sww_sram=PAPER_POWER_MW["sww_sram"]
        * (config.sww_bytes / _REF_SWW_BYTES)
        * factor,
        queues_sram=PAPER_POWER_MW["queues_sram"]
        * (config.queue_sram_bytes / _REF_QUEUE_BYTES)
        * factor,
        hbm2_phy=PAPER_POWER_MW["hbm2_phy"],
    )
