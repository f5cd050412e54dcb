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
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import List, Optional, Tuple

from ...circuits.netlist import ColumnView
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
    positions: array = field(default_factory=lambda: array("q"))
    oor_addresses: array = field(default_factory=lambda: array("q"))

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
        op = self.program.op
        return sum(1 for p in self.positions if op[p] == HaacOp.AND)

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
    then the lowest index.

    Returns (ge_of, issue_cycle, makespan).  ``done[w]`` is the cycle a
    wire's value exists (forwardable); primary inputs are ready at 0.

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
    import heapq

    n_inputs = program.n_inputs
    n = graph.n_gates
    a_of = graph.a_of
    b_of = graph.b_of
    is_and = graph.is_and
    and_latency = params.and_latency
    xor_latency = params.xor_latency
    penalty = params.cross_ge_forward
    tie_break = params.tie_break
    prefer_producer = tie_break == "producer"
    prefer_highest = tie_break == "highest"

    done = [0] * (n_inputs + n)
    producer_ge = [-1] * (n_inputs + n)
    ge_free = [0] * n_ges
    # Lazy min-heap over (free_cycle, ge) to find the next-free GE.
    free_heap = [(0, ge) for ge in range(n_ges)]
    heapq.heapify(free_heap)
    ge_of: List[int] = []
    issue_cycle: List[int] = []
    last_read_issue = [0] * (n_inputs + n)

    for position in range(n):
        a = a_of[position]
        b = b_of[position]
        # Next-free GE (paper's non-stalled-GE policy), then tie-break
        # among GEs freeing at the same cycle.
        while free_heap and free_heap[0][0] != ge_free[free_heap[0][1]]:
            heapq.heappop(free_heap)
        accept_cycle, chosen = free_heap[0]
        if prefer_producer:
            for wire in (a, b):
                source = producer_ge[wire] if wire >= n_inputs else -1
                if source >= 0 and ge_free[source] == accept_cycle:
                    chosen = source
                    break
        elif prefer_highest:
            for ge in range(n_ges - 1, chosen, -1):
                if ge_free[ge] == accept_cycle:
                    chosen = ge
                    break
        # "lowest": the heap's answer already is the lowest free index.

        out = n_inputs + position
        evicted = out - capacity
        window_sync = last_read_issue[evicted] if evicted >= 0 else 0

        ready = max(accept_cycle, window_sync)
        for wire in (a, b):
            available = done[wire]
            if (
                wire >= n_inputs
                and producer_ge[wire] >= 0
                and producer_ge[wire] != chosen
            ):
                available += penalty
            if available > ready:
                ready = available
        issue = ready
        ge_of.append(chosen)
        issue_cycle.append(issue)
        ge_free[chosen] = issue + 1
        heapq.heappush(free_heap, (issue + 1, chosen))
        latency = and_latency if is_and[position] else xor_latency
        finish = issue + latency
        done[out] = finish
        producer_ge[out] = chosen
        # The write is the slot's first access: the instruction evicting
        # `out` must issue strictly after it, readers or not.
        last_read_issue[out] = issue + 1
        for wire in (a, b):
            if issue + 1 > last_read_issue[wire]:
                last_read_issue[wire] = issue + 1

    # Inputs are done at 0, every gate at its finish cycle.
    return ge_of, issue_cycle, max(done, default=0)


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
    a_of = graph.a_of
    b_of = graph.b_of
    ges = [GeStreams(program, oor_a, oor_b) for _ in range(n_ges)]
    for position, ge_id in enumerate(ge_of):
        ges[ge_id].positions.append(position)
    # OoRW queues in pop order: program order, first operand first.
    for position in range(graph.n_gates):
        if oor_a[position]:
            ges[ge_of[position]].oor_addresses.append(a_of[position])
        if oor_b[position]:
            ges[ge_of[position]].oor_addresses.append(b_of[position])

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
