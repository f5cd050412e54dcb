"""Power model (paper Table 4, right column).

Average powers are anchored to the paper's 16 nm numbers for the
reference design and scale with the same structural ratios as the area
(:func:`repro.hwmodel.area.anchored_model`).  These are *streaming*
powers: the value while the unit is busy every cycle, which is how the
energy model (:mod:`repro.hwmodel.energy`) converts them into per-event
energies.
"""

from __future__ import annotations

from typing import Dict

from ..sim.config import HaacConfig
from .area import ComponentBreakdown, anchored_model

__all__ = ["power_model", "PAPER_POWER_MW", "CPU_POWER_W"]

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


def power_model(config: HaacConfig) -> ComponentBreakdown:
    """Busy power (mW) of ``config`` anchored to the paper's reference design."""
    return anchored_model(PAPER_POWER_MW, config)
