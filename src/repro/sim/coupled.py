"""Coupled (finite-buffering) memory model -- decoupling ablation.

The paper's architecture converts every off-chip access into a stream
and claims *complete* decoupling: execution never waits on memory except
through aggregate bandwidth (runtime = max(compute, traffic)).  That
claim holds only because the queues are provisioned and OoR wires are
pushed ahead of need.  This module quantifies what decoupling is worth
by simulating the counterfactuals:

* ``coupled_runtime`` -- finite per-GE queue credit: the instruction,
  table and OoRW streams are prefetched through a shared bandwidth pipe
  into bounded queue SRAM; a GE stalls when it outruns its prefetcher.
  With generous SRAM this converges to the decoupled result.
* ``pull_based_runtime`` -- the strawman the paper argues against
  (section 3.1.4): each OoR wire is a demand miss costing a full DRAM
  round trip on the GE's critical path instead of a queued push.

Both reuse the exact same streams and byte accounting as
:mod:`repro.sim.timing`, so the three models are directly comparable.
Like the decoupled model, the replay runs on the shared compiled arrays
of :mod:`repro.sim.engine`: ``numpy`` (the default) is one array pass
over a leading queue axis, ``REPRO_SIM_ENGINE=reference`` the per-gate
loop the equivalence suite diffs it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import HaacOp
from ..core.passes.streams import StreamSet
from ..core.sww import WIRE_BYTES
from .config import OOR_ADDR_BYTES, TABLE_BYTES, HaacConfig
from .engine import (
    ENGINE_NUMPY,
    check_compiled_for,
    compiled_arrays,
    engine_mode,
    schedule_plan,
)
from .timing import simulate

__all__ = [
    "CoupledResult",
    "coupled_runtime",
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

    @property
    def runtime_s(self) -> float:
        return self.cycles / self.ge_clock_hz

    @property
    def slowdown_vs_decoupled(self) -> float:
        if self.decoupled_cycles == 0:
            return 1.0
        return self.cycles / self.decoupled_cycles


def _per_instruction_bytes(streams: StreamSet, config: HaacConfig) -> list[float]:
    """Prefetch bytes each instruction consumes, in program order.

    Reference formulation: walks the program columns and each
    instruction's owning GE stream.  The numpy path computes the same
    values from the schedule plan's program-order arrays; both must stay
    cost-identical.
    """
    program = streams.program
    costs = []
    oor_cost = WIRE_BYTES + OOR_ADDR_BYTES
    for position, (op, live) in enumerate(zip(program.op, program.live)):
        ge = streams.ges[streams.ge_of[position]]
        cost = float(config.instr_bytes)
        if op == HaacOp.AND:
            cost += TABLE_BYTES
        if ge.oor_a_of[position]:
            cost += oor_cost
        if ge.oor_b_of[position]:
            cost += oor_cost
        if live:
            cost += WIRE_BYTES
        costs.append(cost)
    return costs


def coupled_runtime(
    streams: StreamSet, config: HaacConfig, queue_bytes_per_ge: int | None = None
) -> CoupledResult:
    """Runtime with finite queue SRAM coupling compute to the prefetcher.

    Model: the memory controller fills queues in program order at the
    DRAM bandwidth; a GE may run at most ``queue_bytes_per_ge`` worth of
    stream data ahead of the fill frontier.  Instruction ``p`` therefore
    cannot issue before ``(prefix_bytes(p) - credit) / bandwidth``.
    The other lower bound, the base issue, is the compile's schedule
    ``streams.issue_cycle``: exactly the decoupled replay's issue cycles
    when ``config`` is on the compile's schedule (its latencies are
    ``streams.params``), the compiler's own when it is not.

    On ``numpy`` this is a one-row :func:`coupled_runtime_batch`; the
    loop below is the ``reference`` replay.
    """
    queue_bytes = (
        queue_bytes_per_ge
        if queue_bytes_per_ge is not None
        else config.queue_sram_bytes // max(1, config.n_ges)
    )
    decoupled = simulate(streams, config)
    if engine_mode(config.sim_engine) == ENGINE_NUMPY:
        return coupled_runtime_batch(streams, config, [queue_bytes], decoupled)[0]
    bandwidth = config.dram_bytes_per_ge_cycle
    program = streams.program
    input_bytes = program.n_inputs * WIRE_BYTES
    costs = _per_instruction_bytes(streams, config)
    # Issue replay with the extra prefetch constraint.
    prefix = 0.0
    stall = 0.0
    finish = 0.0
    for position, base_issue in enumerate(streams.issue_cycle):
        prefix += costs[position]
        # The bytes for this instruction (minus the credit window)
        # must have streamed in before it can issue.
        fill_time = (input_bytes + prefix - queue_bytes) / bandwidth
        issue = max(base_issue, fill_time)
        stall += issue - base_issue
        latency = (
            config.and_latency
            if program.op[position] == HaacOp.AND
            else config.xor_latency
        )
        finish = max(finish, issue + latency + config.writeback_stages)

    # Aggregate bandwidth still bounds the whole execution.
    cycles = max(finish, decoupled.traffic_cycles)
    return CoupledResult(
        name=f"coupled({queue_bytes}B/GE)",
        cycles=cycles,
        decoupled_cycles=decoupled.runtime_cycles,
        stall_cycles=stall,
        ge_clock_hz=config.ge_clock_hz,
    )


def coupled_runtime_batch(
    streams: StreamSet,
    config: HaacConfig,
    queue_bytes_list,
    decoupled=None,
) -> "list[CoupledResult]":
    """Finite-queue runtimes for a whole queue-size sweep in one pass.

    On the numpy engine the decoupled baseline simulates once and the
    per-instruction byte prefix sums once; the fill-time recurrence then
    broadcasts over a leading queue axis (``(Q, n)``), so a whole queue
    sweep costs one replay plus Q rows of elementwise array ops.  Each
    row is bit-identical to ``coupled_runtime(streams, config, q)`` --
    the recurrence is elementwise on the shared exact-integer prefix
    sums, and ``np.cumsum`` accumulates each row strictly left-to-right
    like the serial stall sum.  The ``reference`` engine falls back to
    per-point :func:`coupled_runtime` calls.

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
    if engine_mode(config.sim_engine) != ENGINE_NUMPY or not queue_list:
        return [
            coupled_runtime(streams, config, queue_bytes)
            for queue_bytes in queue_list
        ]
    if decoupled is None:
        decoupled = simulate(streams, config)
    bandwidth = config.dram_bytes_per_ge_cycle
    input_bytes = streams.program.n_inputs * WIRE_BYTES
    plan = schedule_plan(compiled_arrays(streams))
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
