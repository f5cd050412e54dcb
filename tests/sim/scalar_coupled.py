"""The coupled model's per-instruction replay, kept as the test oracle.

This is ``sim/coupled.py``'s ``_per_instruction_bytes`` and the
reference loop of ``coupled_runtime`` as they stood when the coupled
model had two implementations, moved here verbatim: ``src/`` keeps one
(:func:`repro.sim.coupled.coupled_runtime_batch`, a ``(Q, n)`` array
pass), and the differential tests hold each of its rows to this loop.
"""

from __future__ import annotations

from repro.core.isa import HaacOp
from repro.core.passes.streams import StreamSet
from repro.core.sww import WIRE_BYTES
from repro.sim.config import OOR_ADDR_BYTES, TABLE_BYTES, HaacConfig
from repro.sim.coupled import CoupledResult
from repro.sim.timing import simulate


def per_instruction_bytes(streams: StreamSet, config: HaacConfig) -> list[float]:
    """Prefetch bytes each instruction consumes, in program order.

    Walks the program columns and each instruction's owning GE stream;
    ``coupled_runtime_batch`` computes the same values from the schedule
    plan's program-order arrays.
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


def scalar_coupled_runtime(
    streams: StreamSet, config: HaacConfig, queue_bytes_per_ge: int | None = None
) -> CoupledResult:
    """One queue size of ``coupled_runtime_batch``, one instruction at a
    time: the fill-time bound ``(input + prefix - credit) / bandwidth``
    against the compile's ``issue_cycle``, floored by the decoupled
    traffic cycles of ``simulate(streams, config)``."""
    queue_bytes = (
        queue_bytes_per_ge
        if queue_bytes_per_ge is not None
        else config.queue_sram_bytes // max(1, config.n_ges)
    )
    decoupled = simulate(streams, config)
    bandwidth = config.dram_bytes_per_ge_cycle
    program = streams.program
    input_bytes = program.n_inputs * WIRE_BYTES
    costs = per_instruction_bytes(streams, config)
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
