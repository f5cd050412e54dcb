"""Bristol Fashion netlist reader/writer.

The paper's toolchain (Figure 5) has EMP emit netlists in Bristol format
which the HAAC assembler consumes.  This module round-trips our IR to the
"Bristol Fashion" text format (Tillich-Smart), so externally produced
netlists can be fed to the HAAC compiler and our workload circuits can be
exported for other tools.

Format::

    <n_gates> <n_wires>
    <n_input_values> <bits_per_input...>
    <n_output_values> <bits_per_output...>
    (blank line)
    2 1 <a> <b> <out> AND|XOR
    1 1 <a> <out> INV|NOT|EQW

``EQW`` (wire copy) is accepted on input and lowered to a double-INV-free
form: we canonicalise it as an XOR with a fresh constant-zero wire is
wasteful, so instead the reader aliases the wire, remapping later uses.
"""

from __future__ import annotations

import io
import re
from array import array
from typing import Dict, List, TextIO, Tuple

import numpy as np

from .netlist import GATE_OPS, OP_AND, OP_INV, OP_XOR, Circuit, CircuitError

__all__ = ["write_bristol", "read_bristol", "dumps_bristol", "loads_bristol"]


def write_bristol(circuit: Circuit, stream: TextIO) -> None:
    """Write ``circuit`` in Bristol Fashion.

    Inputs are emitted as two input values (garbler bits, evaluator bits);
    outputs as one output value.  Bristol requires circuit outputs to be
    the *last* wire ids, so internal wires are renumbered accordingly
    (the reader's remapping handles arbitrary id schemes, so this is
    purely a conformance remap -- semantics are unchanged).

    Restrictions inherent to the format: an output may not be a primary
    input, and the output list may not contain duplicates (use an EQW /
    copy gate upstream for either case).
    """
    circuit.validate()
    if len(set(circuit.outputs)) != len(circuit.outputs):
        raise CircuitError("Bristol outputs must be distinct wires")
    if any(w < circuit.n_inputs for w in circuit.outputs):
        raise CircuitError("Bristol outputs may not be primary inputs")

    # Renumber: inputs keep their ids; non-output internals pack next in
    # original order; outputs take the final ids in output-list order.
    n_outputs = len(circuit.outputs)
    output_rank = {wire: i for i, wire in enumerate(circuit.outputs)}
    remap = {}
    next_id = circuit.n_inputs
    for wire in range(circuit.n_inputs):
        remap[wire] = wire
    for out in circuit.out:
        if out not in output_rank:
            remap[out] = next_id
            next_id += 1
    for wire, rank in output_rank.items():
        remap[wire] = circuit.n_wires - n_outputs + rank

    stream.write(f"{len(circuit.op)} {circuit.n_wires}\n")
    parts = [str(n) for n in (circuit.n_garbler_inputs, circuit.n_evaluator_inputs) if n]
    stream.write(f"{len(parts)} {' '.join(parts)}\n")
    stream.write(f"1 {n_outputs}\n")
    stream.write("\n")
    for code, a, b, out in zip(circuit.op, circuit.a, circuit.b, circuit.out):
        if code == OP_INV:
            stream.write(f"1 1 {remap[a]} {remap[out]} INV\n")
        else:
            stream.write(
                f"2 1 {remap[a]} {remap[b]} {remap[out]} "
                f"{GATE_OPS[code].value}\n"
            )


def dumps_bristol(circuit: Circuit) -> str:
    buffer = io.StringIO()
    write_bristol(circuit, buffer)
    return buffer.getvalue()


#: Inputs per gate; every gate has one output.
_ARITY = {"AND": 2, "XOR": 2, "INV": 1, "NOT": 1, "EQW": 1}
_DECIMAL = re.compile(r"-?[0-9]+")  # int() also takes +1, 0_1 and non-ASCII digits


def _ints(tokens: List[str], what: str) -> List[int]:
    if not all(map(_DECIMAL.fullmatch, tokens)):
        raise CircuitError(f"malformed {what}: {' '.join(tokens)!r}")
    return [int(token) for token in tokens]


def _parse_header(lines: List[str]) -> Tuple[int, int, List[int], List[int]]:
    # Declared counts are checked against the file before sizing anything.
    if len(lines) < 3:
        raise CircuitError("Bristol file too short")
    counts, inputs, outputs = (_ints(line.split(), "header") for line in lines[:3])
    if len(counts) != 2 or min(counts + inputs + outputs) < 0:
        raise CircuitError("Bristol header counts must be non-negative")
    if inputs[0] != len(inputs) - 1 or outputs[0] != len(outputs) - 1:
        raise CircuitError("malformed input or output declaration")
    n_gates, n_wires = counts
    if sum(inputs[1:]) > n_wires:
        raise CircuitError(f"declared inputs exceed the {n_wires} wires")
    if n_gates > len(lines) - 3:
        raise CircuitError("fewer gate lines than declared")
    if sum(outputs[1:]) > n_gates:  # outputs are gate outputs (see writer)
        raise CircuitError("more output bits than gates")
    return n_gates, n_wires, inputs[1:], outputs[1:]


def read_bristol(stream: TextIO, name: str = "bristol") -> Circuit:
    """Parse a Bristol Fashion netlist into a validated :class:`Circuit`.

    With two declared input values the first is taken as the Garbler's
    and the second as the Evaluator's (EMP convention).  With one, all
    input bits belong to the Garbler.  ``EQW`` gates are aliased away.
    Malformed text raises :class:`CircuitError`.
    """
    lines = [line.strip() for line in stream.readlines()]
    lines = [line for line in lines if line]
    n_gates, n_wires, input_widths, output_widths = _parse_header(lines)

    if len(input_widths) == 1:
        n_garbler, n_evaluator = input_widths[0], 0
    elif len(input_widths) == 2:
        n_garbler, n_evaluator = input_widths
    else:
        raise CircuitError(
            f"expected 1 or 2 input values, got {len(input_widths)}"
        )
    n_inputs = n_garbler + n_evaluator

    op_col = bytearray()
    a_col = array("q")
    b_col = array("q")
    # Bristol wire ids may interleave; our IR allocates gate outputs in
    # order.  `remap` maps a gate's output (a redefined input included)
    # to its new id and an EQW output to its source's; inputs are fixed.
    remap: Dict[int, int] = {}
    next_id = n_inputs

    def mapped(wire: int) -> int:
        if wire not in remap and not 0 <= wire < n_inputs:
            raise CircuitError(f"wire {wire} used before definition")
        return remap.get(wire, wire)

    for line in lines[3 : 3 + n_gates]:
        *fields, op_name = line.split()
        op_name = op_name.upper()
        arity = _ARITY.get(op_name)
        if arity is None:
            raise CircuitError(f"unsupported Bristol gate: {op_name}")
        fields = _ints(fields, "gate line")
        if fields[:2] != [arity, 1] or len(fields) != arity + 3:
            raise CircuitError(f"malformed {op_name} gate line: {line!r}")
        *wires, out = fields[2:]
        if out < 0:
            raise CircuitError(f"negative wire id {out}")
        if op_name == "EQW":
            remap[out] = mapped(wires[0])
            continue
        op_col.append(OP_AND if op_name == "AND" else OP_XOR if arity == 2 else OP_INV)
        a_col.append(mapped(wires[0]))
        b_col.append(mapped(wires[1]) if arity == 2 else -1)
        remap[out] = next_id
        next_id += 1

    total_outputs = sum(output_widths)
    # Bristol convention: outputs are the last `total_outputs` wire ids of
    # the *original* numbering.
    outputs = [mapped(w) for w in range(n_wires - total_outputs, n_wires)]
    circuit = Circuit.from_columns(
        n_garbler, n_evaluator, outputs, op_col, a_col, b_col,
        array("q", np.arange(n_inputs, next_id, dtype=np.int64).tobytes()), name,
    )
    circuit.validate()
    return circuit


def loads_bristol(text: str, name: str = "bristol") -> Circuit:
    return read_bristol(io.StringIO(text), name=name)
