"""Simulation statistics containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .dram import BandwidthLedger

__all__ = ["StallBreakdown", "SimResult"]


@dataclass
class StallBreakdown:
    """Issue-stall cycles by cause, in GE cycles summed over all
    instructions.  GEs stall in parallel, so a sum can exceed the run's
    ``compute_cycles``.  With ``earliest`` an instruction's in-order
    slot (its GE's previous issue + 1) and ``data`` its operand
    readiness (producer issue + latency, + the forwarding penalty across
    GEs), each term is what the closed form over the issue vector, the
    compile's or the replay's, computes (``sim/engine.py::
    _scheduled_rows``); the reference replay attributes the same
    cycles gate by gate."""

    dependence: int = 0
    """``sum(max(0, data - earliest))``: cycles waiting on an operand
    still in a GE pipeline."""

    window_sync: int = 0
    """``sum(max(0, issue - max(earliest, data)))``: cycles a write is
    held for the last access of the SWW slot it overwrites (the tagless
    window's hazard)."""

    bank_conflict: int = 0
    """Cycles an issue slipped for SWW bank ports; non-zero only with
    ``model_bank_conflicts``."""

    drain: int = 0
    """``max(0, compute_cycles - (last issue + 1))``: pipeline drain and
    writeback after the last issue.  Counted once, not per instruction."""

    @property
    def total(self) -> int:
        return self.dependence + self.window_sync + self.bank_conflict + self.drain

    def as_dict(self) -> Dict[str, int]:
        return {
            "dependence": self.dependence,
            "window_sync": self.window_sync,
            "bank_conflict": self.bank_conflict,
            "drain": self.drain,
        }


@dataclass
class SimResult:
    """Outcome of one timing simulation.

    The decoupled-streaming model reports the compute component and the
    off-chip traffic component separately; the runtime is their max (all
    movement overlaps execution -- paper sections 3.1.4 and 6.2).
    """

    name: str
    """Name of the simulated program."""

    compute_cycles: int
    """GE cycles until the last result is written back:
    ``max(issue + latency) + writeback_stages`` over all instructions."""

    traffic_cycles: float
    """GE cycles to stream ``ledger.total_bytes`` at the DRAM bandwidth:
    bytes / ``dram_bytes_per_ge_cycle``, not rounded.  That bandwidth is
    not a whole number of bytes per cycle (DDR4 is 35.2 B at 1 GHz), so
    this is fractional, and so is ``runtime_cycles`` whenever a program
    is traffic-bound -- e.g. MatMult at the paper design point, 82,651.278
    cycles (``perf/run.py``'s ``compile_cold`` ``sim_cycles``)."""

    ledger: BandwidthLedger
    """Off-chip bytes by stream (input, instruction, table, OoRW,
    live write-back)."""

    stalls: StallBreakdown
    """Issue-stall GE cycles by cause."""

    n_instructions: int
    """Instructions executed (gates after INV lowering)."""

    n_and: int
    """AND instructions, one garbled table each."""

    ge_clock_hz: float
    """GE clock in Hz, converting cycles to seconds."""

    issued_per_ge: Dict[int, int] = field(default_factory=dict)
    """Instructions issued per GE index; GEs that issue none are absent."""

    def __post_init__(self) -> None:
        issued = self.issued_per_ge.values()
        if sum(issued) != self.n_instructions:
            raise ValueError("issued_per_ge does not sum to n_instructions")
        if self.compute_cycles < max(issued, default=0):
            raise ValueError("a GE issues at most one instruction per cycle")
        if not 0 <= self.n_and <= self.n_instructions:
            raise ValueError("n_and is not within [0, n_instructions]")
        if min(self.stalls.as_dict().values()) < 0:
            raise ValueError("a stall term is negative")

    @property
    def runtime_cycles(self) -> float:
        """GE cycles: ``max(compute_cycles, traffic_cycles)``."""
        return max(float(self.compute_cycles), self.traffic_cycles)

    @property
    def runtime_s(self) -> float:
        return self.runtime_cycles / self.ge_clock_hz

    @property
    def compute_s(self) -> float:
        return self.compute_cycles / self.ge_clock_hz

    @property
    def traffic_s(self) -> float:
        return self.traffic_cycles / self.ge_clock_hz

    @property
    def memory_bound(self) -> bool:
        return self.traffic_cycles > self.compute_cycles

    @property
    def cycles_per_gate(self) -> float:
        if not self.n_instructions:
            return 0.0
        return self.runtime_cycles / self.n_instructions

    @property
    def gates_per_second(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.n_instructions / self.runtime_s

    def summary(self) -> Dict[str, float]:
        return {
            "runtime_us": self.runtime_s * 1e6,
            "compute_us": self.compute_s * 1e6,
            "traffic_us": self.traffic_s * 1e6,
            "cycles_per_gate": self.cycles_per_gate,
            "memory_bound": float(self.memory_bound),
            "total_bytes": float(self.ledger.total_bytes),
        }
