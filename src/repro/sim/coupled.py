"""Coupled (finite-buffering) memory model -- decoupling ablation.

The paper's architecture converts every off-chip access into a stream
and claims *complete* decoupling: execution never waits on memory except
through aggregate bandwidth (runtime = max(compute, traffic)).  That
claim holds only because the queues are provisioned and OoR wires are
pushed ahead of need.  This module quantifies what decoupling is worth
by simulating the counterfactuals:

* ``coupled_runtime_batch`` -- finite per-GE queue credit: the
  instruction, table and OoRW streams are prefetched through a shared
  bandwidth pipe into bounded queue SRAM; a GE stalls when it outruns
  its prefetcher.  With generous SRAM this converges to the decoupled
  result.
* ``pull_based_runtime`` -- the strawman the paper argues against
  (section 3.1.4): each OoR wire is a demand miss costing a full DRAM
  round trip on the GE's critical path instead of a queued push.

Both reuse the exact same streams and byte accounting as
:mod:`repro.sim.timing`, so the three models are directly comparable.
The coupled model reads the stream set through the schedule plan of
:mod:`repro.sim.engine`: one array pass over a leading queue axis.  Its
per-instruction oracle is ``tests/sim/scalar_coupled.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.passes.streams import StreamSet
from ..core.sww import WIRE_BYTES
from .config import OOR_ADDR_BYTES, TABLE_BYTES, HaacConfig
from .engine import check_compiled_for, schedule_plan
from .timing import simulate

__all__ = [
    "CoupledResult",
    "coupled_runtime_batch",
    "pull_based_runtime",
    "DRAM_LATENCY_CYCLES",
]

#: Demand-miss round trip (row activation + transfer + controller), in
#: GE cycles at 1 GHz.  Typical DDR4 closed-page random read latency.
DRAM_LATENCY_CYCLES = 60


@dataclass
class CoupledResult:
    """Runtime under a finite-buffering or pull-based memory model."""

    name: str
    """Model and its parameter: ``coupled(<bytes>B/GE)`` or
    ``pull-based(<cycles>cyc)``."""

    cycles: float
    """Runtime in GE cycles: the model's compute finish, floored by the
    decoupled traffic cycles (aggregate DRAM bandwidth)."""

    decoupled_cycles: float
    """Runtime in GE cycles of the decoupled model on the same streams
    and config (``SimResult.runtime_cycles``)."""

    stall_cycles: float
    """Memory stall in GE cycles; the definition differs per model.
    Coupled: the per-instruction issue lag behind the compiler's
    schedule, summed over all instructions -- GEs stall in parallel, so
    it can exceed ``cycles``.  Pull-based: the worst GE's serialised
    demand-miss cycles, the amount added to the decoupled compute."""

    ge_clock_hz: float
    """GE clock in Hz, converting cycles to seconds."""

    def __post_init__(self) -> None:
        for name in ("cycles", "decoupled_cycles", "stall_cycles"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.ge_clock_hz) and self.ge_clock_hz > 0):
            raise ValueError(
                f"ge_clock_hz must be finite and > 0, got {self.ge_clock_hz}"
            )

    @property
    def runtime_s(self) -> float:
        return self.cycles / self.ge_clock_hz


def coupled_runtime_batch(
    streams: StreamSet,
    config: HaacConfig,
    queue_bytes_list,
    decoupled=None,
) -> "list[CoupledResult]":
    """Runtime with finite queue SRAM coupling compute to the prefetcher,
    for a whole queue-size sweep in one pass.

    Model: the memory controller fills queues in program order at the
    DRAM bandwidth; a GE may run at most ``queue_bytes`` worth of stream
    data ahead of the fill frontier (``None`` means
    ``config.queue_sram_bytes // n_ges``).  Instruction ``p`` therefore
    cannot issue before ``(prefix_bytes(p) - credit) / bandwidth``.
    The other lower bound, the base issue, is the compile's schedule
    ``streams.issue_cycle``: exactly the decoupled replay's issue cycles
    when ``config`` is on the compile's schedule (its latencies are
    ``streams.params``), the compiler's own when it is not.  Aggregate
    bandwidth still bounds the whole run: the decoupled traffic cycles
    floor each row.

    The decoupled baseline simulates once and the per-instruction byte
    prefix sums once; the fill-time recurrence then broadcasts over a
    leading queue axis (``(Q, n)``), so a whole queue sweep costs one
    replay plus Q rows of elementwise array ops.  Each row is
    bit-identical to the per-instruction loop of
    ``tests/sim/scalar_coupled.py`` -- the recurrence is elementwise on
    the shared exact-integer prefix sums, and ``np.cumsum`` accumulates
    each row strictly left-to-right like the serial stall sum.

    ``decoupled`` accepts the caller's already-simulated baseline
    ``SimResult`` for ``(streams, config)`` (sweeps usually have one in
    hand); omitted, it is simulated here.  Replays are deterministic,
    so either way the results are identical.
    """
    queue_list = [
        queue_bytes
        if queue_bytes is not None
        else config.queue_sram_bytes // max(1, config.n_ges)
        for queue_bytes in queue_bytes_list
    ]
    check_compiled_for(streams, config)
    if not queue_list:
        return []
    if decoupled is None:
        decoupled = simulate(streams, config)
    bandwidth = config.dram_bytes_per_ge_cycle
    input_bytes = streams.program.n_inputs * WIRE_BYTES
    plan = schedule_plan(streams)
    oor_cost = WIRE_BYTES + OOR_ADDR_BYTES
    costs = (
        float(config.instr_bytes)
        + TABLE_BYTES * plan.is_and
        + oor_cost * plan.oor_a
        + oor_cost * plan.oor_b
        + WIRE_BYTES * plan.live
    )
    prefix = np.cumsum(costs)
    # One (Q, n) buffer updated in place in the serial loop's order: fill
    # time, issue, then issue + latency + writeback_stages.  The lags sum
    # strictly left to right after a 0 column, like the serial stall.
    queues = np.asarray(queue_list, dtype=np.float64)[:, None]
    issue = np.subtract(input_bytes + prefix, queues)
    issue /= bandwidth
    base = plan.issue.astype(np.float64)
    np.maximum(base, issue, out=issue)
    lag = np.zeros((len(queue_list), len(prefix) + 1))
    np.subtract(issue, base, out=lag[:, 1:])
    stall_rows = np.cumsum(lag, axis=1, out=lag)[:, -1]
    issue += np.where(plan.is_and, config.and_latency, config.xor_latency)
    issue += config.writeback_stages
    finish_rows = issue.max(axis=1, initial=0.0)
    return [
        CoupledResult(
            name=f"coupled({queue_bytes}B/GE)",
            cycles=max(float(finish), decoupled.traffic_cycles),
            decoupled_cycles=decoupled.runtime_cycles,
            stall_cycles=float(stall),
            ge_clock_hz=config.ge_clock_hz,
        )
        for queue_bytes, finish, stall in zip(
            queue_list, finish_rows, stall_rows
        )
    ]


def pull_based_runtime(
    streams: StreamSet,
    config: HaacConfig,
    miss_latency: int = DRAM_LATENCY_CYCLES,
) -> CoupledResult:
    """Runtime if OoR wires were demand misses instead of pushed streams.

    Every OoR operand stalls its GE for a DRAM round trip.  This is the
    design the paper's OoRW queue eliminates ("pull-based access event,
    which would introduce costly stalls into HAAC's in-order pipeline").
    Serialisation is per GE: misses on different GEs overlap.
    """
    decoupled = simulate(streams, config)
    extra = max(
        (miss_latency * len(ge.oor_addresses) for ge in streams.ges), default=0
    )
    cycles = max(decoupled.compute_cycles + extra, decoupled.traffic_cycles)
    return CoupledResult(
        name=f"pull-based({miss_latency}cyc)",
        cycles=cycles,
        decoupled_cycles=decoupled.runtime_cycles,
        stall_cycles=float(extra),
        ge_clock_hz=config.ge_clock_hz,
    )
