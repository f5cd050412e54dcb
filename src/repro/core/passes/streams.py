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
rides along on the returned :class:`StreamSet`, the one input the sim
engines read and the program cache persists.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ...circuits.netlist import ColumnView, column_view, int_column, narrow_column
from ..depgraph import DepGraph, dep_graph, engine_levels
from ..isa import HaacOp
from ..program import HaacProgram
from ..sww import SlidingWindow

__all__ = ["GeStreams", "StreamSet", "generate_streams", "ScheduleParams"]

def check_at_least(owner, **bounds: int) -> None:
    """Raise ``ValueError`` unless each named field of ``owner`` is at
    least its bound (a NaN is not)."""
    for name, bound in bounds.items():
        if not getattr(owner, name) >= bound:
            raise ValueError(f"{name} must be >= {bound}, got {getattr(owner, name)}")


@dataclass(frozen=True)
class ScheduleParams:
    """Latencies used by the compile-time greedy GE mapping.

    Defaults follow the paper: single-cycle FreeXOR, deep Half-Gate
    pipelines (18-stage Evaluator, 21-stage Garbler), one extra cycle to
    forward a wire between GEs.
    """

    and_latency: int = 18
    xor_latency: int = 1
    cross_ge_forward: int = 1

    def __post_init__(self) -> None:
        check_at_least(self, and_latency=1, xor_latency=1, cross_ge_forward=0)


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


@dataclass
class StreamSet:
    """All compiler-generated streams for one program/config pair: the
    whole input of the timing engines (:mod:`repro.sim.engine`).

    ``ge_of`` and ``issue_cycle`` (the greedy mapping, in program order)
    and ``level_of`` are narrow unsigned columns (:func:`narrow_column`).
    ``depgraph`` is the shared dependence graph of ``program.netlist``;
    it is persisted with the stream set through the program cache,
    sharing its columns with the netlist and the program in the same
    pickle.
    """

    program: HaacProgram
    window: SlidingWindow
    n_ges: int
    params: ScheduleParams
    ge_of: array
    issue_cycle: array
    ges: List[GeStreams]
    makespan: int
    depgraph: DepGraph

    @cached_property
    def level_of(self) -> array:
        """Each instruction's level in the schedule-aware dependence
        partition the level replay runs (:func:`engine_levels`).

        Computed on first read -- a cache-off compile never pays for it
        -- and persisted with the stream set, so a warm entry carries it.
        """
        graph = self.depgraph
        return narrow_column(engine_levels(
            self.program.n_inputs, self.window.capacity,
            graph.a_of, graph.b_of, self.ge_of, self.n_ges,
        ))

    @property
    def n_instructions(self) -> int:
        return len(self.ge_of)

    @property
    def n_levels(self) -> int:
        level = column_view(self.level_of)
        return int(level.max()) + 1 if len(level) else 0

    def __getstate__(self):
        # The columns and the level partition: the engine's NumPy plans,
        # memoized on the instance, rebuild from them in O(n) array ops.
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["level_of"] = self.level_of
        return state

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


#: Array-path run width and program share (measured crossovers, DESIGN.md 13.4).
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
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Assign each instruction to the next *non-stalled* GE, as the paper
    does ("mapping instructions from the program to non-stalled GEs each
    cycle in our simulator").

    Instruction ``p`` is handed to the GE that frees up earliest
    (regardless of whether ``p``'s operands are ready); if they are not,
    that GE sits stalled -- head-of-line blocking, the behaviour that
    makes depth-first baseline programs slow on in-order GEs and
    level-order reordering valuable (paper section 4.2.1).  Among GEs
    freeing at the same cycle, an operand's producer wins (it dodges the
    forwarding penalty), then the lowest index.  The GEs sit in a bucket
    queue of int bitmasks (any ``n_ges``): ``free`` at the accept
    ``cycle``, ``nxt`` freeing at ``cycle + 1``, ``later`` keyed by the
    cycle a stalled issue frees them.

    Wide equal-level runs (:func:`_wide_runs`) go to :func:`_speculate`,
    which commits the exact prefix before the first stall; the step below
    issues the stalled instruction and, if that prefix was not empty and
    ``_RUN_MIN`` or more positions remain, hands the rest back to
    :func:`_speculate`, else finishes the run.  The state is
    ``array('q')`` if runs exist, else lists.

    Returns (ge_of, issue_cycle, makespan), the two columns int64 arrays.
    ``done[w]`` is the cycle a wire's value exists (forwardable); primary
    inputs come from the sentinel GE ``n_ges`` (never free, never chosen),
    so they are done at ``-cross_ge_forward`` to be ready at 0 after the
    forwarding penalty.

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

    n_wires = n_inputs + graph.n_gates
    runs = _wide_runs(graph, n_ges)
    column = (lambda value: array("q", [value])) if runs else (lambda value: [value])
    done = column(-penalty) * n_inputs + column(0) * graph.n_gates
    producer_ge = column(n_ges) * n_wires
    last_read_issue = column(0) * n_wires
    ge_of, issue_cycle = np.empty((2, graph.n_gates), dtype=np.int64)
    cycle, free, nxt, later = 0, (1 << n_ges) - 1, 0, {}

    state = (done, producer_ge, last_read_issue, ge_of, issue_cycle)
    pending = runs + [(graph.n_gates, graph.n_gates)]
    begin, run = 0, 0
    while True:
        start, stop = pending[run]
        stretch_ge, stretch_issue = [], []
        for out, a, b, is_and in zip(
            range(n_inputs + begin, n_inputs + start), graph.a_of[begin:start],
            graph.b_of[begin:start], graph.is_and[begin:start],
        ):
            # Next-free GE (paper's non-stalled-GE policy), producer first.
            if not free:
                cycle += 1
                free = nxt | later.pop(cycle, 0)
                nxt = 0
                if not free:  # nothing frees at cycle + 1: skip to the stalls
                    cycle = min(later)
                    free = later.pop(cycle)
            source_a = producer_ge[a]
            source_b = producer_ge[b]
            if free >> source_a & 1:
                chosen = source_a
            elif free >> source_b & 1:
                chosen = source_b
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

            stretch_ge.append(chosen)
            stretch_issue.append(issue)
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
        ge_of[begin:start] = stretch_ge  # the stretch walked, converted once
        issue_cycle[begin:start] = stretch_issue
        if start == stop:
            break
        begin, cycle, free, nxt, later = _speculate(
            graph, params, capacity, start, stop, state, (cycle, free, nxt, later),
        )
        if start < begin < stop - _RUN_MIN:
            # A stall after progress: the step issues it, then speculation
            # resumes.  One that committed nothing leaves the step the run.
            pending[run] = (begin + 1, stop)
        else:
            run += 1

    # Every gate finishes at cycle >= 1, after every input.
    finish = column_view(done).max(initial=0) if runs else max(done, default=0)
    return ge_of, issue_cycle, max(int(finish), 0)


def _speculate(graph, params, capacity, start, stop, state, queue):
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
    last = max(later, default=cycle)
    while left > 0 and accept <= last:
        masks.append(free)
        left -= free.bit_count()
        accept += 1
        free = grown = grown | later.get(accept, 0)
    if left > 0:  # past the last stall the mask is every GE, each cycle
        cycles = -(-left // grown.bit_count())
        masks += [grown] * cycles
        left -= cycles * grown.bit_count()
    counts = np.bitwise_count(np.array(masks)).astype(np.int64)
    counts[-1] += left  # the run ends inside its last cycle
    first, row = np.cumsum(counts) - counts, np.repeat(np.arange(len(counts)), counts)

    a, b = (column_view(column)[start:stop] for column in (graph.a_of, graph.b_of))
    source_a, source_b = producer_ge[a], producer_ge[b]
    # One step per slot of a cycle, over all cycles; a slot past its
    # cycle's end reads the trailing 0, the sentinel GE's bit never frees.
    slot = np.arange(counts.max())
    index = np.where(slot < counts[:, None], first[:, None] + slot, n).T
    want_a, want_b = (np.append(1 << s, 0)[index] for s in (source_a, source_b))
    free_left, taken = np.array(masks), np.empty_like(want_a)
    for pick, wa, wb in zip(taken, want_a, want_b):
        # b's GE if free, else the lowest free one (never above b's bit).
        np.maximum(free_left & wb, free_left & -free_left, out=pick)
        hit = free_left & wa
        np.copyto(pick, hit, where=hit.astype(bool))  # a's GE if free
        free_left ^= pick
    chosen = np.bitwise_count(taken.T[index.T < n] - 1).astype(np.int64)

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
    state[3][start:start + m] = chosen[:m]
    state[4][start:start + m] = issue[:m]
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
    params = params or ScheduleParams()

    ge_of, issue_cycle, makespan = _greedy_schedule(
        program, n_ges, params, window.capacity, graph
    )

    ge_of, issue_cycle = narrow_column(ge_of), narrow_column(issue_cycle)
    oor_a, oor_b = graph.oor_flags(window.capacity)
    owner = column_view(ge_of)  # narrow: the stable sort is a radix sort
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
