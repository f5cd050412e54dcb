"""Hardware configuration for the HAAC simulator (paper section 5).

Defaults mirror the paper's evaluated design point: 16 GEs at 1 GHz, a
2 MB SWW at 2 GHz with 4 banks per GE, DDR4-4400 (35.2 GB/s) or HBM2
(512 GB/s), Evaluator Half-Gate pipeline of 18 stages (Garbler 21),
single-cycle FreeXOR, 2-cycle write-back, and 64 KB of queue SRAM per
accelerator.  The paper's 3-cycle SWW read has no field: no timing,
traffic or energy model here charges it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.passes.streams import ScheduleParams, check_at_least
from ..core.sww import WIRE_BYTES, SlidingWindow
from .dram import DDR4, DramSpec, check_finite_positive

__all__ = ["Role", "HaacConfig", "TABLE_BYTES", "INSTR_BYTES", "OOR_ADDR_BYTES"]

TABLE_BYTES = 32  # one garbled Half-Gate table
INSTR_BYTES = 5  # dense 37-bit packing (2b op + 2x17b addr + live) rounded
#                  to bytes -- the paper's encoding for a 2 MB SWW; the
#                  stream words' 39 bits (18b addr) round to the same.  A
#                  byte-aligned 8 B charge is selectable via
#                  HaacConfig.instr_bytes for sensitivity studies.
OOR_ADDR_BYTES = 4  # 32-bit OoR wire addresses (paper section 3.1.4)


class Role(enum.Enum):
    """Which party's pipeline the accelerator implements."""

    GARBLER = "garbler"
    EVALUATOR = "evaluator"


@dataclass(frozen=True)
class HaacConfig:
    """One HAAC design point."""

    n_ges: int = 16
    sww_bytes: int = 2 * 1024 * 1024
    banks_per_ge: int = 4
    dram: DramSpec = DDR4
    role: Role = Role.EVALUATOR
    ge_clock_hz: float = 1e9
    sww_clock_hz: float = 2e9
    evaluator_and_stages: int = 18
    garbler_and_stages: int = 21
    xor_latency: int = 1
    writeback_stages: int = 2
    cross_ge_forward: int = 1
    queue_sram_bytes: int = 64 * 1024
    instr_bytes: int = INSTR_BYTES
    model_bank_conflicts: bool = False
    # Timing-replay engine for every model that consumes this config:
    # "numpy" (array closed form / level replay, the default; None names
    # it too) or "reference" (per-gate oracle, and the one bank-conflict
    # replay; see repro.sim.engine).  Any other name raises ValueError.
    sim_engine: "str | None" = None

    def __post_init__(self) -> None:
        check_at_least(self, n_ges=1, banks_per_ge=1, evaluator_and_stages=1,
                       garbler_and_stages=1, xor_latency=1, writeback_stages=0,
                       cross_ge_forward=0, queue_sram_bytes=0, instr_bytes=1)
        check_finite_positive(self, "ge_clock_hz", "sww_clock_hz")
        if self.sww_bytes < 4 * WIRE_BYTES:
            raise ValueError("SWW too small")
        if self.sim_engine not in (None, "numpy", "reference"):
            raise ValueError(
                f"unknown sim_engine {self.sim_engine!r}; expected "
                "'numpy' or 'reference'"
            )

    @property
    def and_latency(self) -> int:
        """Half-Gate pipeline depth for the configured role."""
        if self.role is Role.GARBLER:
            return self.garbler_and_stages
        return self.evaluator_and_stages

    @property
    def window(self) -> SlidingWindow:
        return SlidingWindow.from_bytes(self.sww_bytes)

    @property
    def n_banks(self) -> int:
        return self.n_ges * self.banks_per_ge

    @property
    def dram_bytes_per_ge_cycle(self) -> float:
        """Streaming DRAM bandwidth expressed per GE clock cycle."""
        return self.dram.bandwidth_bytes_per_s / self.ge_clock_hz

    def schedule_params(self) -> ScheduleParams:
        """Latencies handed to the compiler's greedy GE mapping."""
        return ScheduleParams(
            and_latency=self.and_latency,
            xor_latency=self.xor_latency,
            cross_ge_forward=self.cross_ge_forward,
        )

    def with_role(self, role: Role) -> "HaacConfig":
        return self._replace(role=role)

    def with_sim_engine(self, sim_engine: "str | None") -> "HaacConfig":
        return self._replace(sim_engine=sim_engine)

    def _replace(self, **changes) -> "HaacConfig":
        from dataclasses import replace

        return replace(self, **changes)

    def variants(self, **sweeps) -> "list[HaacConfig]":
        """Design points over the cartesian product of field sweeps.

        Each keyword names a config field and maps to an iterable of
        values; the result is one config per combination, with the last
        keyword varying fastest (row-major, like nested loops)::

            config.variants(dram=[DDR4, HBM2], role=list(Role))

        A scalar (non-iterable, or a string) is treated as a
        single-value sweep, so fixed overrides mix freely with swept
        axes.  The returned list feeds
        :func:`repro.sim.timing.simulate_batch` and friends directly.
        """
        axes = []
        for name, values in sweeps.items():
            if isinstance(values, (str, bytes)) or not hasattr(
                values, "__iter__"
            ):
                values = [values]
            axes.append((name, list(values)))
        configs = [self]
        for name, values in axes:
            configs = [
                config._replace(**{name: value})
                for config in configs
                for value in values
            ]
        return configs

    @staticmethod
    def paper_default(dram: DramSpec = DDR4) -> "HaacConfig":
        """The 16 GE / 2 MB SWW / 64-bank design of the evaluation."""
        return HaacConfig(dram=dram)
