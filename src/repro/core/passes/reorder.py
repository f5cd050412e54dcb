"""Instruction reordering (paper section 4.2.1).

Baseline EMP programs schedule gates depth-first, in tight producer-
consumer chains; HAAC's in-order GEs then stall on dependences.  Two
schemes trade parallelism against wire locality:

* **Full reorder** -- level-order (breadth-first) schedule: build the
  leveled dependence graph of the whole program and emit level by level.
  Maximum ILP; can spread wire accesses so widely the SWW loses reuse.
* **Segment reorder** -- partition the baseline order into contiguous
  segments (the paper uses half the SWW capacity) and level-order within
  each segment.  Preserves the baseline's wire locality at SWW scale
  while recovering most ILP.

Both are netlist-to-netlist transforms returning a new topologically
valid :class:`Circuit` with gates permuted (wire ids unchanged; run
renaming afterwards to restore the ISA's sequential-output form).
The compiler applies them to the depth-first baseline through
:func:`level_reorder`, which sorts the walk's positions by level and
permutes the netlist once; the public passes share its walk and sort.

All ordering data comes from the shared dependence graph
(:mod:`repro.core.depgraph`): levels are sorted straight off
``graph.gate_level_column`` instead of re-walking the netlist, the DFS
traversal gathers each operand's producing gate once from the flat
operand columns instead of a producer dict, and every permuted circuit
is validated *by graph construction* -- the new graph is seeded on the
result (with the permutation-invariant wire levels transferred), so the
next pipeline stage derives nothing twice.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...circuits.netlist import Circuit, column_view, int_column
from ..depgraph import DepGraph, dep_graph, seed_graph

__all__ = ["full_reorder", "segment_reorder", "depth_first_order", "level_reorder"]


def _permute(
    circuit: Circuit,
    order: np.ndarray,
    suffix: str,
    source_graph: Optional[DepGraph] = None,
) -> Circuit:
    # One gather per column.
    reordered = Circuit.from_columns(
        circuit.n_garbler_inputs,
        circuit.n_evaluator_inputs,
        list(circuit.outputs),
        bytearray(column_view(circuit.op)[order].tobytes()),
        int_column(column_view(circuit.a)[order]),
        int_column(column_view(circuit.b)[order]),
        int_column(column_view(circuit.out)[order]),
        circuit.name + suffix,
    )
    # Building the graph validates the permuted netlist (same invariants
    # as Circuit.validate) and leaves it memoized for the next pass;
    # wire levels are per-wire-id and survive any gate permutation.
    seed_graph(
        reordered, DepGraph(reordered), wire_level_from=source_graph, gate_order=order
    )
    return reordered


def _producer_column(graph: DepGraph) -> np.ndarray:
    """Producing gate of every wire, -1 for inputs, plus a trailing -1
    slot that INV's missing operand (index -1) reads: one scatter."""
    producer = np.full(graph.n_wires + 1, -1, dtype=np.int64)
    producer[column_view(graph.out_of)] = np.arange(graph.n_gates)
    return producer


def depth_first_order(circuit: Circuit) -> Circuit:
    """EMP-style depth-first (producer-consumer) schedule -- the paper's
    *baseline* program order (:func:`_depth_first_positions`)."""
    graph = dep_graph(circuit)
    return _permute(
        circuit, _depth_first_positions(graph, circuit.outputs), "+dfs", graph
    )


def _depth_first_positions(graph: DepGraph, outputs) -> np.ndarray:
    """Gate positions in depth-first (producer-consumer) order.

    The paper (section 4.2.1): baseline instructions follow "a depth-first
    circuit traversal, i.e., in tight producer-consumer relationships
    minimizing the distance between dependent gates", which keeps wire
    reuse local but starves in-order GEs of parallelism.  We reproduce it
    as a post-order DFS from the circuit outputs, ``a``'s subtree before
    ``b``'s -- a sequential walk (what is emitted next depends on
    everything emitted so far), so it stays a loop.  It descends through
    the first operand whose producer is not yet emitted and pushes each
    gate once: as itself while ``a`` is pending, as ``~gate`` once only
    ``b`` is; a gate is emitted on the way up.  ``emitted`` is a list
    with a trailing slot set to 1, which the producer column's ``-1``
    entries (primary inputs, INV's missing operand) index, so an input
    operand or root reads as already emitted.  Lists and method-form
    ``append`` / ``pop`` calls, because CPython specializes those and
    not ``bytearray`` subscripts or bound-method aliases.
    """
    producer = _producer_column(graph)
    source_a = producer[column_view(graph.a_of)].tolist()
    source_b = producer[column_view(graph.b_of)].tolist()
    emitted = [0] * (graph.n_gates + 1)
    emitted[-1] = 1
    order = []
    stack = []
    for root in producer[np.asarray(outputs, dtype=np.int64)].tolist():
        if emitted[root]:
            continue
        gate = root
        while True:
            # Descend through the first pending operand.
            source = source_a[gate]
            if not emitted[source]:
                stack.append(gate)
                gate = source
                continue
            source = source_b[gate]
            if not emitted[source]:
                stack.append(~gate)
                gate = source
                continue
            emitted[gate] = 1
            order.append(gate)
            # Climb: a parent that waited on ``a`` may still have ``b``
            # to descend into; one that waited on ``b`` is ready.
            while stack:
                gate = stack.pop()
                if gate < 0:
                    gate = ~gate
                else:
                    source = source_b[gate]
                    if not emitted[source]:
                        stack.append(~gate)
                        gate = source
                        break
                emitted[gate] = 1
                order.append(gate)
            else:
                break
    # Dead gates (no path to an output) keep their original order at the
    # end; they still execute on the hardware.
    order = np.asarray(order, dtype=np.int64)
    dead = np.ones(graph.n_gates, dtype=bool)
    dead[order] = False
    return np.concatenate([order, np.flatnonzero(dead)])


def _level_positions(
    graph: DepGraph, positions: np.ndarray, segment_size: Optional[int] = None
) -> np.ndarray:
    """``positions`` stably sorted by gate level: as one run (the full
    reorder) or within each ``segment_size`` consecutive positions (the
    segment reorder).

    Levels are the global ASAP levels: a dependent gate's is strictly
    larger than its producer's, so the sorted order stays topological,
    and the stable sort keeps the given order within a level, which
    keeps some residual locality and makes the pass deterministic.
    """
    if segment_size is not None and segment_size < 1:
        raise ValueError("segment size must be positive")
    level = column_view(graph.gate_level_column)[positions]
    if segment_size is None:
        return positions[np.argsort(level, kind="stable")]
    # Stable by (segment, level): the segments keep the given order.
    segment = np.arange(len(positions)) // segment_size
    return positions[np.lexsort((level, segment))]


def full_reorder(circuit: Circuit) -> Circuit:
    """Breadth-first (level-order) schedule of the whole program; within
    a level the baseline order is kept (:func:`_level_positions`)."""
    graph = dep_graph(circuit)
    return _permute(
        circuit, _level_positions(graph, np.arange(graph.n_gates)), "+ro", graph
    )


def segment_reorder(circuit: Circuit, segment_size: int) -> Circuit:
    """Level-order within contiguous ``segment_size``-gate windows.

    The paper sets ``segment_size`` to half the SWW wire capacity
    (65,536 instructions for a 2 MB SWW), matching the window's logical
    halves so segment-local reuse is capturable by the SWW.
    """
    graph = dep_graph(circuit)
    positions = _level_positions(graph, np.arange(graph.n_gates), segment_size)
    return _permute(circuit, positions, "+seg", graph)


def level_reorder(circuit: Circuit, segment_size: Optional[int] = None) -> Circuit:
    """``full_reorder(depth_first_order(circuit))``, or
    ``segment_reorder`` of it with ``segment_size``, in one permutation:
    the level sort runs over the depth-first positions, so the
    intermediate depth-first netlist (and its graph) is never built.
    Equal to the two passes, name included."""
    graph = dep_graph(circuit)
    positions = _level_positions(
        graph, _depth_first_positions(graph, circuit.outputs), segment_size
    )
    suffix = "+dfs+ro" if segment_size is None else "+dfs+seg"
    return _permute(circuit, positions, suffix, graph)
