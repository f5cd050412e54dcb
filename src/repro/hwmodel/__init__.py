"""Area, power and energy models anchored to the paper's Table 4."""

from .area import PAPER_AREA_MM2, ComponentBreakdown, anchored_model, area_model
from .energy import EnergyBreakdown, energy_model
from .power import CPU_POWER_W, PAPER_POWER_MW, power_model

__all__ = [
    "ComponentBreakdown",
    "anchored_model",
    "area_model",
    "PAPER_AREA_MM2",
    "power_model",
    "PAPER_POWER_MW",
    "CPU_POWER_W",
    "EnergyBreakdown",
    "energy_model",
]
