"""Cycle-level timing simulation of the HAAC accelerator.

The model follows the paper's decoupled-streaming architecture
(sections 3.1.4, 6.2): gate execution and off-chip movement overlap
completely, so runtime is ``max(compute, traffic)`` -- exactly the two
bars of the paper's Figure 7.

**Compute component** -- replays the compiler's per-GE instruction
streams in order.  Instruction ``p`` on GE ``g`` issues at::

    issue(p) = max(last_issue(g) + 1,                  # 1 instr/cycle, in-order
                   max over operands of value_ready,   # forwarding network
                   last access of the evicted slot)    # window sync

where ``value_ready = issue(producer) + exec_latency`` (+1 cycle when the
producer ran on a different GE), ``exec_latency`` is 1 for FreeXOR and
the Half-Gate pipeline depth for AND (18 Evaluator / 21 Garbler).  The
compiler's greedy GE mapping applies the same rule, so at the compile's
own latencies the replay is read off ``streams.issue_cycle``.  An
optional mode models SWW bank conflicts (each single-ported bank at the
2 GHz SWW clock serves two accesses per 1 GHz GE cycle).

**Traffic component** -- exact byte counts over the streaming DRAM pipe:
preloaded inputs, instruction streams, garbled tables (read by the
Evaluator, written by the Garbler -- same bytes), OoR wire reads plus
their 4-byte address stream, and live-wire write-backs.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.passes.streams import StreamSet
from ..core.sww import WIRE_BYTES
from .config import OOR_ADDR_BYTES, TABLE_BYTES, HaacConfig
from .dram import BandwidthLedger
from .engine import compute_cycles_batch
from .stats import SimResult, StallBreakdown

__all__ = ["simulate", "simulate_batch", "compute_traffic", "compute_traffic_batch"]


def compute_traffic(streams: StreamSet, config: HaacConfig) -> BandwidthLedger:
    """Exact off-chip byte counts for one program execution."""
    return compute_traffic_batch(streams, (config,))[0]


def compute_traffic_batch(
    streams: StreamSet, configs: Sequence[HaacConfig]
) -> List[BandwidthLedger]:
    """Byte ledgers for one program under many configs at once.

    Only the instruction-stream charge depends on the config (its
    encoding width); the other four charges are pure functions of the
    compiled program, so they are summed once and reused across the
    whole config axis instead of re-walking the stream set per grid
    point.  Each returned ledger is bit-identical to the serial
    ``compute_traffic`` walk for its config (asserted by the batched
    test suite) -- same charge names, same order, same totals.
    """
    return _traffic_ledgers(streams, configs, streams.program.n_and)


def _traffic_ledgers(streams, configs, n_and: int) -> List[BandwidthLedger]:
    program = streams.program
    input_rd = program.n_inputs * WIRE_BYTES
    n_instructions = len(program.op)
    table_rd = n_and * TABLE_BYTES
    oorw_rd = streams.oor_reads * (WIRE_BYTES + OOR_ADDR_BYTES)
    live_wr = program.n_live * WIRE_BYTES
    ledgers: List[BandwidthLedger] = []
    for config in configs:
        ledger = BandwidthLedger()
        ledger.charge("input_rd", input_rd)
        ledger.charge("instr_rd", n_instructions * config.instr_bytes)
        ledger.charge("table_rd", table_rd)
        ledger.charge("oorw_rd", oorw_rd)
        ledger.charge("live_wr", live_wr)
        ledgers.append(ledger)
    return ledgers


def simulate(streams: StreamSet, config: HaacConfig) -> SimResult:
    """Run the decoupled timing model for one compiled program.

    A one-config :func:`simulate_batch`.  On the ``numpy`` engine (the
    default) a config at the latencies the program was compiled under
    -- every ``src/`` path compiles with ``config.schedule_params()`` --
    is read off ``streams.issue_cycle`` with no replay, any other is a
    one-row level replay; ``REPRO_SIM_ENGINE=reference`` (or
    ``config.sim_engine``) selects the per-gate oracle, bit-identical,
    and bank conflicts always run on it.
    """
    return simulate_batch(streams, [config])[0]


def simulate_batch(
    streams: StreamSet, configs: Sequence[HaacConfig]
) -> List[SimResult]:
    """Decoupled timing model for one program under many configs at once.

    The compute component runs batched
    (:func:`repro.sim.engine.compute_cycles_batch`): configs at the
    compile's latencies share one closed form over
    ``streams.issue_cycle``, the other numpy configs one level replay
    with a row per distinct ``(and_latency, xor_latency,
    cross_ge_forward)`` (a bandwidth or writeback sweep adds no row),
    and ``reference`` or bank-conflict configs replay per config.  Each
    :class:`SimResult` is bit-identical to ``simulate(streams, config)``.
    A config whose GE count or SWW capacity is not the compile's raises
    :class:`ValueError`.
    """
    configs = list(configs)
    stalls_list = [StallBreakdown() for _ in configs]
    compute = compute_cycles_batch(streams, configs, stalls_list)
    program = streams.program
    n_and = program.n_and  # a count over the op column: once per call
    ledgers = _traffic_ledgers(streams, configs, n_and)
    return [
        SimResult(
            name=program.name,
            compute_cycles=cycles,
            traffic_cycles=ledger.total_bytes / config.dram_bytes_per_ge_cycle,
            ledger=ledger,
            stalls=stalls,
            n_instructions=len(program.op),
            n_and=n_and,
            ge_clock_hz=config.ge_clock_hz,
            issued_per_ge=issued,
        )
        for config, (cycles, issued), stalls, ledger in zip(
            configs, compute, stalls_list, ledgers
        )
    ]
