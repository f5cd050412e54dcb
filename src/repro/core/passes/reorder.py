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

All ordering data comes from the shared dependence graph
(:mod:`repro.core.depgraph`): levels are read off ``graph.gate_level``
instead of re-walking the netlist, the DFS traversal uses the flat
operand columns instead of a producer dict, and every permuted circuit
is validated *by graph construction* -- the new graph is seeded on the
result (with the permutation-invariant wire levels transferred), so the
next pipeline stage derives nothing twice.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ...circuits.netlist import Circuit
from ..depgraph import DepGraph, dep_graph, seed_graph

__all__ = ["full_reorder", "segment_reorder", "depth_first_order"]


def _stable_level_sort(
    graph: DepGraph, start: int, stop: int
) -> List[int]:
    """Positions [start, stop) sorted by gate level, stable.

    Levels are the global ASAP levels, so a dependent gate always has a
    strictly larger level than its producer and the sorted order remains
    topological within the window.
    """
    levels = graph.gate_level
    return sorted(range(start, stop), key=levels.__getitem__)


def _permute(
    circuit: Circuit,
    order: List[int],
    suffix: str,
    source_graph: Optional[DepGraph] = None,
) -> Circuit:
    # One gather per column.
    reordered = Circuit.from_columns(
        circuit.n_garbler_inputs,
        circuit.n_evaluator_inputs,
        list(circuit.outputs),
        bytearray(map(circuit.op.__getitem__, order)),
        array("q", map(circuit.a.__getitem__, order)),
        array("q", map(circuit.b.__getitem__, order)),
        array("q", map(circuit.out.__getitem__, order)),
        circuit.name + suffix,
    )
    # Building the graph validates the permuted netlist (same invariants
    # as Circuit.validate) and leaves it memoized for the next pass;
    # wire levels are per-wire-id and survive any gate permutation.
    seed_graph(reordered, DepGraph(reordered), wire_level_from=source_graph)
    return reordered


def full_reorder(circuit: Circuit) -> Circuit:
    """Breadth-first (level-order) schedule of the whole program.

    Within a level the baseline order is preserved (stable sort), which
    keeps some residual locality and makes the pass deterministic.
    """
    graph = dep_graph(circuit)
    order = _stable_level_sort(graph, 0, graph.n_gates)
    return _permute(circuit, order, "+ro", graph)


def depth_first_order(circuit: Circuit) -> Circuit:
    """EMP-style depth-first (producer-consumer) schedule -- the paper's
    *baseline* program order.

    The paper (section 4.2.1): baseline instructions follow "a depth-first
    circuit traversal, i.e., in tight producer-consumer relationships
    minimizing the distance between dependent gates", which keeps wire
    reuse local but starves in-order GEs of parallelism.  We reproduce it
    with an iterative post-order DFS from the circuit outputs, walking
    the graph's flat operand/producer arrays.
    """
    graph = dep_graph(circuit)
    producer = graph.producer_index()
    a_of, b_of = graph.a_of, graph.b_of
    emitted = [False] * graph.n_gates
    order: List[int] = []
    for root in circuit.outputs:
        root_position = producer[root]
        if root_position < 0:
            continue
        stack: List[tuple[int, bool]] = [(root_position, False)]
        while stack:
            position, expanded = stack.pop()
            if emitted[position]:
                continue
            if expanded:
                emitted[position] = True
                order.append(position)
                continue
            stack.append((position, True))
            # Push b then a so a's subtree is emitted first.
            for wire in (b_of[position], a_of[position]):
                if wire >= 0:
                    source = producer[wire]
                    if source >= 0 and not emitted[source]:
                        stack.append((source, False))
    # Dead gates (no path to an output) keep their original order at the
    # end; they still execute on the hardware.
    for position in range(graph.n_gates):
        if not emitted[position]:
            order.append(position)
    return _permute(circuit, order, "+dfs", graph)


def segment_reorder(circuit: Circuit, segment_size: int) -> Circuit:
    """Level-order within contiguous ``segment_size``-gate windows.

    The paper sets ``segment_size`` to half the SWW wire capacity
    (65,536 instructions for a 2 MB SWW), matching the window's logical
    halves so segment-local reuse is capturable by the SWW.
    """
    if segment_size < 1:
        raise ValueError("segment size must be positive")
    graph = dep_graph(circuit)
    order: List[int] = []
    for start in range(0, graph.n_gates, segment_size):
        stop = min(start + segment_size, graph.n_gates)
        order.extend(_stable_level_sort(graph, start, stop))
    return _permute(circuit, order, "+seg", graph)
