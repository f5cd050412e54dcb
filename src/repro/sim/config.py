"""Hardware configuration for the HAAC simulator (paper section 5).

Defaults mirror the paper's evaluated design point: 16 GEs at 1 GHz, a
2 MB SWW at 2 GHz with 4 banks per GE, DDR4-4400 (35.2 GB/s) or HBM2
(512 GB/s), Evaluator Half-Gate pipeline of 18 stages (Garbler 21),
single-cycle FreeXOR, 3-cycle SWW reads, 2-cycle write-back, and 64 KB
of queue SRAM per accelerator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.passes.streams import ScheduleParams, check_at_least
from ..core.sww import WIRE_BYTES, SlidingWindow
from .dram import DDR4, HBM2, DramSpec

__all__ = ["Role", "HaacConfig", "TABLE_BYTES", "INSTR_BYTES", "OOR_ADDR_BYTES"]

TABLE_BYTES = 32  # one garbled Half-Gate table
INSTR_BYTES = 5  # dense 37-bit packing (2b op + 2x17b addr + live) rounded
#                  to bytes -- the paper's encoding for a 2 MB SWW.  A
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
    sww_read_stages: int = 3
    writeback_stages: int = 2
    cross_ge_forward: int = 1
    queue_sram_bytes: int = 64 * 1024
    instr_bytes: int = INSTR_BYTES
    model_bank_conflicts: bool = False
    # Label-hash substrate for the functional machine's garbling step
    # (pass this config to sim.functional.run_functional): None keeps
    # the audited per-gate scalar path, "auto"/"numpy"/"scalar" selects
    # a batched repro.gc.backends engine ("auto" is "numpy").  The
    # REPRO_GC_BACKEND environment variable overrides "auto" resolution.
    gc_backend: "str | None" = None
    # Persistent compiled-program cache for sim-layer helpers that
    # compile internally (simulate_multicore, run_haac sweeps): None
    # defers to the REPRO_PROG_CACHE environment variable, True uses
    # the default ~/.cache/repro/progcache store, False disables, a
    # string is a directory path (see repro.core.progcache).
    prog_cache: "str | bool | None" = None
    # Deterministic fault-injection spec for chaos runs (see
    # repro.faults.parse_fault_spec), e.g. "drop:0.05,seed=7": consumed
    # by TwoPartySession (pass the config, or let resolve_fault_plan
    # consult it); None defers to the REPRO_FAULTS environment variable
    # and then to no injection.
    fault_spec: "str | None" = None
    # Timing-replay engine for every model that consumes this config:
    # None defers to the REPRO_SIM_ENGINE environment variable;
    # "numpy" (array closed form / level replay, the default) or "reference"
    # (per-gate oracle, and the one bank-conflict replay) pins one
    # engine; any other name raises ValueError when a model runs (see
    # repro.sim.engine.engine_mode).
    sim_engine: "str | None" = None

    def __post_init__(self) -> None:
        check_at_least(self, n_ges=1, evaluator_and_stages=1, garbler_and_stages=1,
                       xor_latency=1, cross_ge_forward=0)
        if self.sww_bytes < 4 * WIRE_BYTES:
            raise ValueError("SWW too small")

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

    def with_dram(self, dram: DramSpec) -> "HaacConfig":
        return self._replace(dram=dram)

    def with_ges(self, n_ges: int) -> "HaacConfig":
        return self._replace(n_ges=n_ges)

    def with_sww_bytes(self, sww_bytes: int) -> "HaacConfig":
        return self._replace(sww_bytes=sww_bytes)

    def with_role(self, role: Role) -> "HaacConfig":
        return self._replace(role=role)

    def with_gc_backend(self, gc_backend: "str | None") -> "HaacConfig":
        return self._replace(gc_backend=gc_backend)

    def with_prog_cache(self, prog_cache: "str | bool | None") -> "HaacConfig":
        return self._replace(prog_cache=prog_cache)

    def with_fault_spec(self, fault_spec: "str | None") -> "HaacConfig":
        return self._replace(fault_spec=fault_spec)

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

    @staticmethod
    def paper_hbm() -> "HaacConfig":
        return HaacConfig(dram=HBM2)
