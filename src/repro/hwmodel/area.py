"""Chip area model (paper Table 4).

Component areas are anchored to the paper's post-layout 16 nm numbers
for the 16 GE / 2 MB SWW / 64-bank design and parameterised by design
point:

* Half-Gate and FreeXOR units scale linearly with GE count;
* the forwarding network spans all GEs (all-to-all wire matching), so it
  scales with GE pairs, normalised to the paper's 16 GE figure;
* the crossbar connects GEs to SWW banks and scales with ports x banks;
* SRAM macros (SWW, queues) scale linearly with capacity;
* the HBM2 PHY is a fixed IP block, reported separately exactly as the
  paper does ("we focus on reporting HAAC IP area").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.config import HaacConfig
from .technology import TSMC_16, TechNode

__all__ = ["AreaBreakdown", "area_model", "PAPER_AREA_MM2"]

# Paper Table 4, 16 nm, 16 GEs / 2 MB SWW (64 banks) / 64 KB queues.
PAPER_AREA_MM2: Dict[str, float] = {
    "halfgate": 2.15,
    "freexor": 9.51e-4,
    "fwd": 1.80e-3,
    "crossbar": 7.27e-2,
    "sww_sram": 1.94,
    "queues_sram": 0.173,
    "total_haac": 4.33,
    "hbm2_phy": 14.9,
}

_REF_GES = 16
_REF_SWW_BYTES = 2 * 1024 * 1024
_REF_BANKS = 64
_REF_QUEUE_BYTES = 64 * 1024


@dataclass(frozen=True)
class AreaBreakdown:
    """Component areas in mm^2 for one design point."""

    halfgate: float
    freexor: float
    fwd: float
    crossbar: float
    sww_sram: float
    queues_sram: float
    hbm2_phy: float

    @property
    def total_haac(self) -> float:
        """HAAC IP area (PHY excluded, as in the paper's headline 4.3 mm^2)."""
        return (
            self.halfgate
            + self.freexor
            + self.fwd
            + self.crossbar
            + self.sww_sram
            + self.queues_sram
        )

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


def area_model(config: HaacConfig, node: TechNode = TSMC_16) -> AreaBreakdown:
    """Area of ``config`` anchored to the paper's reference design."""
    ge_ratio = config.n_ges / _REF_GES
    factor = node.area_factor
    return AreaBreakdown(
        halfgate=PAPER_AREA_MM2["halfgate"] * ge_ratio * factor,
        freexor=PAPER_AREA_MM2["freexor"] * ge_ratio * factor,
        # All-to-all forwarding comparators grow with GE pairs.
        fwd=PAPER_AREA_MM2["fwd"] * (config.n_ges**2 / _REF_GES**2) * factor,
        crossbar=PAPER_AREA_MM2["crossbar"]
        * (config.n_ges * config.n_banks) / (_REF_GES * _REF_BANKS)
        * factor,
        sww_sram=PAPER_AREA_MM2["sww_sram"]
        * (config.sww_bytes / _REF_SWW_BYTES)
        * factor,
        queues_sram=PAPER_AREA_MM2["queues_sram"]
        * (config.queue_sram_bytes / _REF_QUEUE_BYTES)
        * factor,
        hbm2_phy=PAPER_AREA_MM2["hbm2_phy"],  # fixed IP, node-independent here
    )
