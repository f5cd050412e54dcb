"""Output-wire renaming (paper section 4.2.2).

After reordering there is no correlation between program order and wire
addresses, so the SWW's contiguous window would capture nothing.
Renaming renumbers every gate's output wire to follow the new program
order -- gate at position ``p`` writes address ``n_inputs + p`` -- and
propagates the mapping to all input references and circuit outputs.

Benefits (per the paper): wire accesses concentrate inside the SWW's
sliding range, and output addresses vanish from the instruction encoding
(they are implicit in the program counter).
"""

from __future__ import annotations

import numpy as np

from ...circuits.netlist import Circuit, column_view, int_column
from ..depgraph import DepGraph, dep_graph, seed_graph

__all__ = ["rename"]


def rename(circuit: Circuit) -> Circuit:
    """Renumber output wires to program order; inputs keep ids [0, n)."""
    source = dep_graph(circuit)  # validates: the mapping below indexes by wire id
    n_inputs, n_wires = circuit.n_inputs, circuit.n_wires
    # old wire id -> new wire id; the trailing -1 keeps INV's missing
    # operand (b == -1, i.e. index -1) at -1.
    mapping = np.arange(n_wires + 1)
    mapping[-1] = -1
    new_out = np.arange(n_inputs, n_wires)
    mapping[column_view(circuit.out)] = new_out

    renamed = Circuit.from_columns(
        circuit.n_garbler_inputs,
        circuit.n_evaluator_inputs,
        mapping[np.asarray(circuit.outputs, dtype=np.int64)].tolist(),
        circuit.op,
        int_column(mapping[column_view(circuit.a)]),
        int_column(mapping[column_view(circuit.b)]),
        int_column(new_out),
        circuit.name + "+rn",
    )
    # Graph construction checks the same invariants as validate() and
    # leaves the renamed program's graph memoized for the consumers
    # downstream; every gate keeps its position, so it keeps its level.
    seed_graph(renamed, DepGraph(renamed), gate_level_from=source)
    return renamed
