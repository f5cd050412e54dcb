"""HAAC hardware model: config, DRAM, timing and functional simulation."""

from .config import INSTR_BYTES, OOR_ADDR_BYTES, TABLE_BYTES, HaacConfig, Role
from .coupled import CoupledResult, coupled_runtime_batch, pull_based_runtime
from .dram import DDR4, HBM2, BandwidthLedger, DramSpec
from .functional import FunctionalRun, HaacMachineError, run_functional
from .stats import SimResult, StallBreakdown
from .timing import simulate, simulate_batch

__all__ = [
    "coupled_runtime_batch",
    "pull_based_runtime",
    "CoupledResult",
    "HaacConfig",
    "Role",
    "TABLE_BYTES",
    "INSTR_BYTES",
    "OOR_ADDR_BYTES",
    "DramSpec",
    "DDR4",
    "HBM2",
    "BandwidthLedger",
    "simulate",
    "simulate_batch",
    "SimResult",
    "StallBreakdown",
    "run_functional",
    "FunctionalRun",
    "HaacMachineError",
]
