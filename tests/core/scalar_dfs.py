"""The two-push depth-first walk, kept as the test oracle.

This is ``reorder.depth_first_order`` as it stood before the walk
pushed each gate once (descending through the first pending operand,
emitting on the way up), moved here verbatim: ``src/`` keeps one DFS,
and the differential tests hold it to this one -- the same permuted
netlist, dead gates included.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist import Circuit, column_view
from repro.core.depgraph import dep_graph
from repro.core.passes.reorder import _permute, _producer_column


def scalar_depth_first_order(circuit: Circuit) -> Circuit:
    graph = dep_graph(circuit)
    producer = _producer_column(graph)
    source_a = producer[column_view(graph.a_of)].tolist()
    source_b = producer[column_view(graph.b_of)].tolist()
    emitted = bytearray(graph.n_gates)
    order = []
    emit = order.append
    for root in producer[np.asarray(circuit.outputs, dtype=np.int64)].tolist():
        if root < 0:
            continue
        stack = [root]
        push = stack.append
        while stack:
            position = stack.pop()
            if position < 0:
                position = ~position
                if not emitted[position]:
                    emitted[position] = 1
                    emit(position)
                continue
            if emitted[position]:
                continue
            push(~position)
            # Push b then a so a's subtree is emitted first.
            source = source_b[position]
            if source >= 0 and not emitted[source]:
                push(source)
            source = source_a[position]
            if source >= 0 and not emitted[source]:
                push(source)
    # Dead gates (no path to an output) keep their original order at the
    # end; they still execute on the hardware.
    order = np.asarray(order, dtype=np.int64)
    dead = np.flatnonzero(column_view(emitted) == 0)
    return _permute(circuit, np.concatenate([order, dead]), "+dfs", graph)
