"""The anchored component model and chip area (paper Table 4).

Table 4 reports, per component, the post-layout 16 nm area and average
power of the 16 GE / 2 MB SWW / 64-bank design.  One scaling function,
:func:`anchored_model`, takes either column to another design point:

* Half-Gate and FreeXOR units scale linearly with GE count;
* the forwarding network spans all GEs (all-to-all wire matching), so it
  scales with GE pairs, normalised to the paper's 16 GE figure;
* the crossbar connects GEs to SWW banks and scales with ports x banks;
* SRAM macros (SWW, queues) scale linearly with capacity;
* the HBM2 PHY is a fixed IP block, reported separately exactly as the
  paper does ("we focus on reporting HAAC IP area").

:func:`area_model` applies it to :data:`PAPER_AREA_MM2`;
:func:`repro.hwmodel.power.power_model` to the power column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.config import HaacConfig

__all__ = ["ComponentBreakdown", "anchored_model", "area_model", "PAPER_AREA_MM2"]

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
class ComponentBreakdown:
    """Per-component values for one design point: mm^2 from
    :func:`area_model`, busy mW from ``power_model``."""

    halfgate: float
    freexor: float
    fwd: float
    crossbar: float
    sww_sram: float
    queues_sram: float
    hbm2_phy: float

    @property
    def total_haac(self) -> float:
        """HAAC IP total (PHY excluded, as in the paper's headline 4.3 mm^2)."""
        return (
            self.halfgate
            + self.freexor
            + self.fwd
            + self.crossbar
            + self.sww_sram
            + self.queues_sram
        )

    def power_density_w_mm2(self, area_mm2: float) -> float:
        """Power density of the HAAC IP, for a power breakdown (paper:
        0.35 W/mm^2)."""
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


def anchored_model(anchor: Dict[str, float], config: HaacConfig) -> ComponentBreakdown:
    """One Table 4 column (``anchor``) scaled to ``config``'s design point."""
    ge_ratio = config.n_ges / _REF_GES
    return ComponentBreakdown(
        halfgate=anchor["halfgate"] * ge_ratio,
        freexor=anchor["freexor"] * ge_ratio,
        # All-to-all forwarding comparators grow with GE pairs.
        fwd=anchor["fwd"] * (config.n_ges**2 / _REF_GES**2),
        crossbar=anchor["crossbar"]
        * (config.n_ges * config.n_banks) / (_REF_GES * _REF_BANKS),
        sww_sram=anchor["sww_sram"] * (config.sww_bytes / _REF_SWW_BYTES),
        queues_sram=anchor["queues_sram"]
        * (config.queue_sram_bytes / _REF_QUEUE_BYTES),
        hbm2_phy=anchor["hbm2_phy"],  # fixed IP
    )


def area_model(config: HaacConfig) -> ComponentBreakdown:
    """Area (mm^2) of ``config`` anchored to the paper's reference design."""
    return anchored_model(PAPER_AREA_MM2, config)
