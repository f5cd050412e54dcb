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


#: Array-path run width and program share (measured crossovers, DESIGN.md 14.5).
_RUN_MIN = 256
_WIDE_SHARE = 0.5


def _wide_runs(graph: DepGraph, n_ges: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of the equal-level runs of ``_RUN_MIN`` or more
    positions; none if they hold under ``_WIDE_SHARE`` of the program, the
    order was never levelled or a free mask outgrows int64."""
    level = column_view(graph.gate_level_column) if graph.has_levels else []
    if n_ges > 62 or not len(level):
        return []
    bounds = np.flatnonzero(np.diff(level, prepend=0, append=0))  # levels >= 1
    width = np.diff(bounds)
    wide = width >= _RUN_MIN
    if width[wide].sum() < _WIDE_SHARE * len(level):
        return []
    return list(zip(bounds[:-1][wide].tolist(), bounds[1:][wide].tolist()))


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
    ``cycle + 1``, ``later`` keyed by the cycle a stalled issue frees them.

    Wide equal-level runs (:func:`_wide_runs`) go to :func:`_speculate`,
    which commits the exact prefix before the first stall; the step below
    finishes the run.  The state is ``array('q')`` if they exist, else lists.

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
    runs = _wide_runs(graph, n_ges)
    column = (lambda value: array("q", [value])) if runs else (lambda value: [value])
    done = column(-penalty) * n_inputs + column(0) * graph.n_gates
    producer_ge = column(n_ges) * n_wires
    last_read_issue = column(0) * n_wires
    ge_of: List[int] = []
    issue_cycle: List[int] = []
    cycle, free, nxt, later = 0, (1 << n_ges) - 1, 0, {}

    state = (done, producer_ge, last_read_issue, ge_of, issue_cycle)
    begin = 0
    for start, stop in runs + [(graph.n_gates, graph.n_gates)]:
        for out, a, b, is_and in zip(
            range(n_inputs + begin, n_inputs + start), graph.a_of[begin:start],
            graph.b_of[begin:start], graph.is_and[begin:start],
        ):
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
        if start < stop:
            begin, cycle, free, nxt, later = _speculate(
                graph, n_ges, params, capacity, start, stop, state,
                (cycle, free, nxt, later),
            )

    # Every gate finishes at cycle >= 1, after every input.
    finish = column_view(done).max(initial=0) if runs else max(done, default=0)
    return ge_of, issue_cycle, max(int(finish), 0)


def _speculate(graph, n_ges, params, capacity, start, stop, state, queue):
    """Schedule ``start:stop`` (no dependence inside) as if none stalls and
    commit the exact prefix before the first that would to ``state`` (three
    columns, ``ge_of``, ``issue_cycle``); return its end and the ``queue``."""
    cycle, free, nxt, later = queue
    done, producer_ge, last_read_issue = map(column_view, state[:3])
    n_inputs, n = graph.n_inputs, stop - start
    # Without a stall a GE picked at cycle c frees at c + 1, so the free
    # mask only grows -- free[c + 1] = free[c] | later[c + 1] -- and
    # cycle c takes popcount(free[c]) instructions.
    masks, grown, accept, left = [], free | nxt, cycle, n
    while left > 0:
        masks.append(free)
        left -= free.bit_count()
        accept += 1
        free = grown = grown | later.get(accept, 0)
    counts = np.bitwise_count(np.array(masks)).astype(np.int64)
    counts[-1] += left  # the run ends inside its last cycle
    first, row = np.cumsum(counts) - counts, np.repeat(np.arange(len(counts)), counts)

    a, b = (column_view(column)[start:stop] for column in (graph.a_of, graph.b_of))
    source_a, source_b = producer_ge[a], producer_ge[b]
    if params.tie_break == "producer":
        # One step per slot of a cycle, over all cycles; a slot past its
        # cycle's end reads the trailing 0, the sentinel GE's bit never frees.
        slot = np.arange(counts.max())
        index = np.where(slot < counts[:, None], first[:, None] + slot, n).T
        want_a, want_b = (np.append(1 << s, 0)[index] for s in (source_a, source_b))
        free_left, taken = np.array(masks), np.empty_like(want_a)
        for slot in range(len(index)):
            pick = free_left & -free_left
            pick = np.where(free_left & want_b[slot], want_b[slot], pick)
            pick = np.where(free_left & want_a[slot], want_a[slot], pick)
            free_left ^= pick
            taken[slot] = pick
        chosen = np.bitwise_count(taken.T[index.T < n] - 1).astype(np.int64)
    else:
        # No pick reads another: a cycle's picks are its mask's bits in order.
        ge = np.arange(n_ges)[:: -1 if params.tie_break == "highest" else 1]
        chosen = ge[np.nonzero(np.array(masks)[:, None] >> ge & 1)[1][:n]]

    # One pass checks readiness and window sync for the whole run.
    issue, penalty = cycle + row, params.cross_ge_forward
    ready = done[a] + penalty * (source_a != chosen) <= issue
    ready &= done[b] + penalty * (source_b != chosen) <= issue
    if n_inputs + stop > capacity:  # some write of the run evicts a slot
        out = np.arange(n_inputs + start, n_inputs + stop)
        evicted = last_read_issue[np.maximum(out - capacity, 0)]
        ready &= (out < capacity) | (evicted <= issue)
        # An earlier access in the evictor's accept cycle issues with it.
        offset, cycle_end = np.arange(n), (first + counts)[row]
        for wire in (a, b, out):
            evictor = wire + (capacity - n_inputs - start)
            ready[evictor[(evictor > offset) & (evictor < cycle_end)]] = False
    m = n if ready.all() else int(np.argmin(ready))

    outs = slice(n_inputs + start, n_inputs + start + m)
    is_and = column_view(graph.is_and)[start:start + m]
    done[outs] = issue[:m] + np.where(is_and, params.and_latency, params.xor_latency)
    producer_ge[outs] = chosen[:m]
    last_read_issue[outs] = issued = issue[:m] + 1
    for operand in (a, b):
        np.maximum.at(last_read_issue, operand[:m], issued)
    state[3].extend(chosen[:m].tolist())
    cycles = list(range(cycle, cycle + len(counts)))  # one int a cycle, as in the walk
    state[4].extend(map(cycles.__getitem__, row[:m].tolist()))
    # The queue at the commit point: cycle `k`, part of its mask taken.
    k = int(row[min(m, n - 1)])
    taken = sum(1 << pick for pick in chosen[first[k]:m].tolist())
    cycle += k
    later = {c: mask for c, mask in later.items() if c > cycle}
    return start + m, cycle, masks[k] & ~taken, (nxt if k == 0 else 0) | taken, later


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
