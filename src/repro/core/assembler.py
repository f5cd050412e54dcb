"""The HAAC assembler: Bristol/IR netlists to baseline HAAC programs.

Mirrors the paper's Figure 5 front half: EMP emits a Bristol netlist,
the assembler turns it into HAAC instructions.  Two lowering steps are
needed to reach the three-op ISA:

* **INV elimination** -- HAAC has no INV.  Under FreeXOR a NOT is an XOR
  with a wire carrying constant 1, so the assembler appends one public
  "constant-one" input wire (held by the Evaluator; its value is public)
  and rewrites ``INV a`` to ``XOR a, one``.  This is exactly how GC
  frameworks realise NOT for free.
* **Sequential-output form** -- our IR already allocates gate outputs in
  program order (SSA), which is the ISA's implicit-output contract; the
  assembler asserts it.

The result is the *baseline* program of the paper's evaluation: original
EMP gate order, no reordering/renaming/ESW.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.netlist import (
    OP_INV, OP_XOR, Circuit, check_input_bits, column_view, int_column,
)
from .depgraph import DepGraph, dep_graph, seed_graph
from .program import HaacProgram

__all__ = ["lower_inv", "assemble", "LoweredCircuit"]


class LoweredCircuit:
    """A lowered netlist plus the input-bit adapter for the extra wire.

    ``circuit`` has no INV gates.  When ``has_one_wire`` is set, the last
    evaluator input is the public constant-one wire and
    :meth:`adapt_inputs` appends the 1 bit to the evaluator's inputs.
    """

    def __init__(self, circuit: Circuit, has_one_wire: bool) -> None:
        self.circuit = circuit
        self.has_one_wire = has_one_wire

    def adapt_inputs(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Adjust original-circuit inputs for the lowered circuit.

        Raises :class:`~repro.circuits.netlist.CircuitError`, as
        :func:`~repro.circuits.netlist.check_input_bits` does, for a
        wrong bit count or a bit outside {0, 1} on either side."""
        garbler = list(garbler_bits)
        evaluator = list(evaluator_bits)
        if self.has_one_wire:
            evaluator.append(1)
        check_input_bits(self.circuit, "garbler", garbler)
        check_input_bits(self.circuit, "evaluator", evaluator)
        return garbler, evaluator


def lower_inv(circuit: Circuit) -> LoweredCircuit:
    """Replace INV gates with XOR-against-a-constant-one input wire.

    The new wire is appended after all existing inputs, which shifts
    every internal wire id up by one; outputs are remapped accordingly.
    Circuits without INV are returned unchanged.
    """
    # Building (or recalling) the dependence graph checks the same IR
    # invariants as validate(); for INV-free circuits -- returned
    # unchanged -- it doubles as the memoized graph the rest of the
    # pipeline shares.
    dep_graph(circuit)
    if OP_INV not in circuit.op:
        return LoweredCircuit(circuit, has_one_wire=False)

    n_inputs = circuit.n_inputs
    one_wire = n_inputs  # new input id; internals shift by +1

    def remap(column) -> np.ndarray:
        wires = np.asarray(column, dtype=np.int64)
        return wires + (wires >= n_inputs)

    b = column_view(circuit.b)
    lowered = Circuit.from_columns(
        circuit.n_garbler_inputs,
        circuit.n_evaluator_inputs + 1,
        remap(circuit.outputs).tolist(),
        circuit.op.replace(bytes([OP_INV]), bytes([OP_XOR])),
        int_column(remap(column_view(circuit.a))),
        # INV's missing operand (-1) becomes the constant-one wire.
        int_column(np.where(b < 0, one_wire, remap(b))),
        int_column(remap(column_view(circuit.out))),
        circuit.name + "+lowered",
    )
    # Validates and seeds the lowered circuit's graph for the pipeline.
    seed_graph(lowered, DepGraph(lowered))
    return LoweredCircuit(lowered, has_one_wire=True)


def assemble(circuit: Circuit) -> Tuple[HaacProgram, LoweredCircuit]:
    """Netlist -> (baseline HAAC program, lowered circuit adapter)."""
    lowered = lower_inv(circuit)
    # from_netlist already enforces the ISA contract (renamed form, no
    # INV) while emitting instructions 1:1 from the just-validated
    # lowered netlist, so a second validate() pass is redundant.
    program = HaacProgram.from_netlist(
        lowered.circuit,
        name=circuit.name,
        applied_passes=["assemble"],
    )
    return program, lowered
