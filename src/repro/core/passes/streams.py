"""Queue-stream generation (paper section 4.1, final compiler step).

All HAAC queues are GE-local, so the compiler must decide, ahead of
time, (1) which instructions run on which GE, (2) the per-GE garbled-
table order, and (3) the per-GE out-of-range wire order.  The paper does
the GE mapping by replaying a greedy "next instruction to the next
non-stalled GE" schedule in its simulator; we reproduce that with an
earliest-issue greedy list scheduler using the GE latencies (XOR one
cycle, AND the Half-Gate pipeline depth, +1 cycle for cross-GE
forwarding).

Out-of-range analysis compares every operand against the SWW window at
the instruction's output frontier (:mod:`repro.core.sww`).  OoR operands
are flagged (the ISA encodes them as wire address 0) and their DRAM
addresses appended to the owning GE's OoRW queue in pop order; when both
operands are OoR the first operand is queued first, matching hardware.

Physical ISA addressing: the encoding reserves address 0 as the OoR
sentinel, so a logical wire ``w`` is encoded as ``(w % capacity) + 1``
-- unique within any window because the window spans exactly
``capacity`` consecutive addresses.  The one lost SWW slot is negligible
(paper section 3.3) and is not modelled in the capacity.

Both the greedy mapping and the OoR analysis run on the shared
dependence graph's flat arrays (:mod:`repro.core.depgraph`); the graph
rides along on the returned :class:`StreamSet` so the sim engines and
the program cache reuse it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ...circuits.netlist import ColumnView, column_view, int_column
from ..depgraph import DepGraph, dep_graph
from ..isa import HaacOp, InstructionEncoding, encode_fields
from ..program import HaacProgram
from ..sww import SlidingWindow

__all__ = ["GeStreams", "StreamSet", "generate_streams", "ScheduleParams"]

#: Greedy tie-break policies among GEs freeing at the same cycle (the
#: schedule-search neighborhood's cheapest axis -- same program, same
#: passes, different GE mapping):
#:
#: * ``producer`` -- prefer an operand's producer GE (dodges the
#:   forwarding penalty); the paper-faithful default.
#: * ``lowest``  -- always the lowest-indexed free GE.
#: * ``highest`` -- the highest-indexed GE freeing at that cycle.
TIE_BREAKS = ("producer", "lowest", "highest")


def check_at_least(owner, **bounds: int) -> None:
    """Raise ``ValueError`` if a named field of ``owner`` is below its bound."""
    for name, bound in bounds.items():
        if getattr(owner, name) < bound:
            raise ValueError(f"{name} must be >= {bound}, got {getattr(owner, name)}")


@dataclass(frozen=True)
class ScheduleParams:
    """Latencies used by the compile-time greedy GE mapping.

    Defaults follow the paper: single-cycle FreeXOR, deep Half-Gate
    pipelines (18-stage Evaluator, 21-stage Garbler), one extra cycle to
    forward a wire between GEs.  ``tie_break`` selects the greedy
    tie-break policy (see :data:`TIE_BREAKS`); ``producer`` reproduces
    the paper's schedule and is what every figure uses.
    """

    and_latency: int = 18
    xor_latency: int = 1
    cross_ge_forward: int = 1
    tie_break: str = "producer"

    def __post_init__(self) -> None:
        check_at_least(self, and_latency=1, xor_latency=1, cross_ge_forward=0)
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(
                f"unknown tie_break {self.tie_break!r}; expected one of "
                f"{', '.join(TIE_BREAKS)}"
            )

    @staticmethod
    def evaluator() -> "ScheduleParams":
        return ScheduleParams(and_latency=18)

    @staticmethod
    def garbler() -> "ScheduleParams":
        return ScheduleParams(and_latency=21)


@dataclass
class GeStreams:
    """The three streams of one gate engine.

    Owns ``positions`` (the program positions this GE executes, in
    order -- they give the implicit output addresses and the garbled
    table to pop) and ``oor_addresses`` (its OoRW queue in pop order).
    Everything else is read through ``positions`` from columns shared
    with the whole stream set: ``program`` and the program-order OoR
    flags ``oor_a_of`` / ``oor_b_of``.  ``instructions`` (logical wire
    addresses), ``oor_a`` and ``oor_b`` are read-only views of those.
    """

    program: HaacProgram
    oor_a_of: bytearray
    oor_b_of: bytearray
    positions: array
    oor_addresses: array

    def _view(self, column) -> ColumnView:
        positions = self.positions
        return ColumnView(positions, lambda: [column[p] for p in positions])

    @cached_property
    def instructions(self) -> ColumnView:
        return self._view(self.program.instructions)

    @cached_property
    def oor_a(self) -> ColumnView:
        return self._view(self.oor_a_of)

    @cached_property
    def oor_b(self) -> ColumnView:
        return self._view(self.oor_b_of)

    def __getstate__(self):
        # Columns only: a materialised view is never pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_tables(self) -> int:
        op = column_view(self.program.op)[column_view(self.positions)]
        return int(np.count_nonzero(op == HaacOp.AND))

    def encode_machine_words(
        self, window: SlidingWindow, encoding: InstructionEncoding | None = None
    ) -> List[int]:
        """Binary instruction words with physical (sentinel-safe) addressing."""
        enc = encoding or InstructionEncoding.for_sww_wires(window.capacity + 1)
        capacity = window.capacity
        program = self.program
        oor_a, oor_b = self.oor_a_of, self.oor_b_of
        return [
            encode_fields(
                program.op[p],
                0 if oor_a[p] else program.wa[p] % capacity + 1,
                0 if oor_b[p] else program.wb[p] % capacity + 1,
                program.live[p],
                enc,
            )
            for p in self.positions
        ]


@dataclass
class StreamSet:
    """All compiler-generated streams for one program/config pair.

    ``depgraph`` is the shared dependence graph of ``program.netlist``;
    it is persisted with the stream set through the program cache,
    sharing its columns with the netlist, the program and the engine's
    ``CompiledArrays`` in the same pickle.
    """

    program: HaacProgram
    window: SlidingWindow
    n_ges: int
    params: ScheduleParams
    ge_of: List[int]
    issue_cycle: List[int]
    ges: List[GeStreams]
    makespan: int
    depgraph: DepGraph

    @property
    def oor_reads(self) -> int:
        """Total wires streamed in through OoRW queues."""
        return sum(len(ge.oor_addresses) for ge in self.ges)

    @property
    def live_writes(self) -> int:
        """Total wires written back to DRAM (live bits)."""
        return self.program.n_live

    def wire_traffic_wires(self) -> Tuple[int, int, int]:
        """(live writes, OoR reads, total) in wires -- Table 3's columns."""
        return (self.live_writes, self.oor_reads, self.live_writes + self.oor_reads)


def _greedy_schedule(
    program: HaacProgram,
    n_ges: int,
    params: ScheduleParams,
    capacity: int,
    graph: DepGraph,
) -> Tuple[List[int], List[int], int]:
    """Assign each instruction to the next *non-stalled* GE, as the paper
    does ("mapping instructions from the program to non-stalled GEs each
    cycle in our simulator").

    Instruction ``p`` is handed to the GE that frees up earliest
    (regardless of whether ``p``'s operands are ready); if they are not,
    that GE sits stalled -- head-of-line blocking, the behaviour that
    makes depth-first baseline programs slow on in-order GEs and
    level-order reordering valuable (paper section 4.2.1).  Among GEs
    freeing at the same cycle, ``params.tie_break`` decides: the default
    prefers an operand's producer (it dodges the forwarding penalty),
    then the lowest index.  The GEs sit in a bucket queue of int bitmasks
    (any ``n_ges``): ``free`` at the accept ``cycle``, ``nxt`` freeing at
    ``cycle + 1``, ``later`` keyed by the cycle a stalled issue frees
    them; a pick is a bit test, not a scan -- on full-scale MatMult
    (178,701 instructions, 16 GEs) the cycle advances 11,197 times and
    156 instructions stall.

    Returns (ge_of, issue_cycle, makespan).  ``done[w]`` is the cycle a
    wire's value exists (forwardable); primary inputs come from the
    sentinel GE ``n_ges`` (never free, never chosen), so they are done at
    ``-cross_ge_forward`` to be ready at 0 after the forwarding penalty.

    Besides dependences, the schedule enforces the **window-sync**
    hazard of the tagless SWW: writing wire ``o`` lands in the physical
    slot of wire ``o - capacity``, so the write may not issue before
    every (program-order earlier) access of ``o - capacity`` has issued
    -- its in-window readers *and* the write that produced it (a wire
    with no readers, e.g. a live write-back consumed only via OoR,
    would otherwise let the evicting write land first and the lagging
    producer stomp the slot afterwards: a WAW hazard on the slot).  The
    write is therefore recorded as its own first slot access below.
    The hardware has no tags to detect this; the co-design contract
    makes the compiler responsible, exactly like the paper's "remains
    valid ... for at least the time it takes to process instructions
    proportional to half of the SWW size" argument.  The same two edge
    directions appear in :func:`repro.core.depgraph.engine_levels`,
    which partitions this schedule for the level-parallel replay.
    """
    n_inputs = program.n_inputs
    and_latency = params.and_latency
    xor_latency = params.xor_latency
    penalty = params.cross_ge_forward
    prefer_producer = params.tie_break == "producer"
    prefer_highest = params.tie_break == "highest"

    n_wires = n_inputs + graph.n_gates
    done = [-penalty] * n_inputs + [0] * graph.n_gates
    producer_ge = [n_ges] * n_wires
    ge_of: List[int] = []
    issue_cycle: List[int] = []
    last_read_issue = [0] * n_wires
    cycle, free, nxt, later = 0, (1 << n_ges) - 1, 0, {}

    out = n_inputs
    for a, b, is_and in zip(graph.a_of, graph.b_of, graph.is_and):
        # Next-free GE (paper's non-stalled-GE policy), then the tie-break.
        if not free:
            cycle += 1
            free = nxt | later.pop(cycle, 0)
            nxt = 0
            if not free:  # nothing frees at cycle + 1: skip to the stalls
                cycle = min(later)
                free = later.pop(cycle)
        source_a = producer_ge[a]
        source_b = producer_ge[b]
        if prefer_producer and free >> source_a & 1:
            chosen = source_a
        elif prefer_producer and free >> source_b & 1:
            chosen = source_b
        elif prefer_highest:
            chosen = free.bit_length() - 1
        else:
            chosen = (free & -free).bit_length() - 1
        bit = 1 << chosen
        free ^= bit

        issue = cycle
        if out >= capacity and last_read_issue[out - capacity] > issue:
            # Window sync: the evicted slot's accesses have all issued.
            issue = last_read_issue[out - capacity]
        available = done[a]
        if source_a != chosen:
            available += penalty
        if available > issue:
            issue = available
        available = done[b]
        if source_b != chosen:
            available += penalty
        if available > issue:
            issue = available

        ge_of.append(chosen)
        issue_cycle.append(issue)
        issued = issue + 1
        if issue == cycle:
            nxt |= bit
        else:
            later[issued] = later.get(issued, 0) | bit
        done[out] = issue + (and_latency if is_and else xor_latency)
        producer_ge[out] = chosen
        # The write is the slot's first access: the instruction evicting
        # `out` must issue strictly after it, readers or not.
        last_read_issue[out] = issued
        if issued > last_read_issue[a]:
            last_read_issue[a] = issued
        if issued > last_read_issue[b]:
            last_read_issue[b] = issued
        out += 1

    # Every gate finishes at cycle >= 1, after every input.
    return ge_of, issue_cycle, max(done[n_inputs:], default=0)


def _buckets(
    values: np.ndarray, owner: np.ndarray, n_ges: int
) -> List[array]:
    """``values`` split by owning GE, each bucket in the given order."""
    values = values[np.argsort(owner, kind="stable")]
    bounds = np.cumsum(np.bincount(owner, minlength=n_ges))[:-1]
    return [int_column(bucket) for bucket in np.split(values, bounds)]


def generate_streams(
    program: HaacProgram,
    window: SlidingWindow,
    n_ges: int,
    params: ScheduleParams | None = None,
    graph: Optional[DepGraph] = None,
) -> StreamSet:
    """Run the full stream-generation pass.

    ``program`` must be in renamed (sequential-output) form.  When the
    compiler supplies the netlist's dependence ``graph``, the graph's
    construction already validated the netlist (and ``from_netlist``
    the instruction correspondence), so the redundant ``validate()`` is
    skipped; public callers without a graph keep the legacy check.  The
    returned :class:`StreamSet` contains everything the functional
    machine and the timing simulator consume, plus the graph itself.
    """
    if n_ges < 1:
        raise ValueError("need at least one GE")
    if graph is None:
        program.validate()
        graph = dep_graph(program.netlist)
    params = params or ScheduleParams.evaluator()

    ge_of, issue_cycle, makespan = _greedy_schedule(
        program, n_ges, params, window.capacity, graph
    )

    oor_a, oor_b = graph.oor_flags(window.capacity)
    owner = np.asarray(ge_of, dtype=np.int64)
    # OoRW queues in pop order: program order, first operand first --
    # the row-major order of the (a, b) operand pairs.
    flagged = np.stack([column_view(oor_a), column_view(oor_b)], axis=1) != 0
    operands = np.stack(
        [column_view(graph.a_of), column_view(graph.b_of)], axis=1
    )
    positions = _buckets(np.arange(graph.n_gates), owner, n_ges)
    oor_addresses = _buckets(
        operands[flagged], owner[np.nonzero(flagged)[0]], n_ges
    )
    ges = [
        GeStreams(program, oor_a, oor_b, *streams)
        for streams in zip(positions, oor_addresses)
    ]

    return StreamSet(
        program=program,
        window=window,
        n_ges=n_ges,
        params=params,
        ge_of=ge_of,
        issue_cycle=issue_cycle,
        ges=ges,
        makespan=makespan,
        depgraph=graph,
    )
