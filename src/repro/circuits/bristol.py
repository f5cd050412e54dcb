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
from array import array
from typing import Dict, List, TextIO, Tuple

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


def _parse_header(lines: List[str]) -> Tuple[int, int, List[int], List[int], int]:
    if len(lines) < 3:
        raise CircuitError("Bristol file too short")
    n_gates, n_wires = (int(x) for x in lines[0].split())
    input_fields = [int(x) for x in lines[1].split()]
    output_fields = [int(x) for x in lines[2].split()]
    n_inputs_vals = input_fields[0]
    input_widths = input_fields[1 : 1 + n_inputs_vals]
    if len(input_widths) != n_inputs_vals:
        raise CircuitError("malformed input declaration")
    n_output_vals = output_fields[0]
    output_widths = output_fields[1 : 1 + n_output_vals]
    if len(output_widths) != n_output_vals:
        raise CircuitError("malformed output declaration")
    return n_gates, n_wires, input_widths, output_widths, 3


def read_bristol(
    stream: TextIO, name: str = "bristol", evaluator_inputs_last: bool = True
) -> Circuit:
    """Parse a Bristol Fashion netlist into a validated :class:`Circuit`.

    With two declared input values the first is taken as the Garbler's
    and the second as the Evaluator's (EMP convention).  With one, all
    input bits belong to the Garbler.  ``EQW`` gates are aliased away.
    """
    lines = [line.strip() for line in stream.readlines()]
    lines = [line for line in lines if line]
    n_gates, n_wires, input_widths, output_widths, cursor = _parse_header(lines)

    if len(input_widths) == 1:
        n_garbler, n_evaluator = input_widths[0], 0
    elif len(input_widths) == 2:
        n_garbler, n_evaluator = input_widths
    else:
        raise CircuitError(
            f"expected 1 or 2 input values, got {len(input_widths)}"
        )
    n_inputs = n_garbler + n_evaluator

    alias: Dict[int, int] = {}

    def resolve(wire: int) -> int:
        while wire in alias:
            wire = alias[wire]
        return wire

    op_col = bytearray()
    a_col = array("q")
    b_col = array("q")
    # Bristol wire ids may interleave; our IR requires SSA ids where gate
    # outputs are allocated in order.  Build a remap as we go.
    remap: Dict[int, int] = {w: w for w in range(n_inputs)}
    next_id = n_inputs

    def mapped(wire: int) -> int:
        wire = resolve(wire)
        if wire not in remap:
            raise CircuitError(f"wire {wire} used before definition")
        return remap[wire]

    def emit(code: int, a: int, b: int, out: int) -> None:
        nonlocal next_id
        if out < 0:
            raise CircuitError(f"negative wire id {out}")
        op_col.append(code)
        a_col.append(mapped(a))
        b_col.append(b if code == OP_INV else mapped(b))
        remap[out] = next_id
        next_id += 1

    for line_index in range(cursor, cursor + n_gates):
        if line_index >= len(lines):
            raise CircuitError("fewer gate lines than declared")
        tokens = lines[line_index].split()
        op_name = tokens[-1].upper()
        n_in = int(tokens[0])
        if op_name in ("INV", "NOT"):
            if n_in != 1:
                raise CircuitError(f"INV with {n_in} inputs")
            emit(OP_INV, int(tokens[2]), -1, int(tokens[3]))
        elif op_name == "EQW":
            a, out = int(tokens[2]), int(tokens[3])
            alias[out] = a
        elif op_name in ("AND", "XOR"):
            if n_in != 2:
                raise CircuitError(f"{op_name} with {n_in} inputs")
            emit(
                OP_AND if op_name == "AND" else OP_XOR,
                int(tokens[2]), int(tokens[3]), int(tokens[4]),
            )
        else:
            raise CircuitError(f"unsupported Bristol gate: {op_name}")

    total_outputs = sum(output_widths)
    # Bristol convention: outputs are the last `total_outputs` wire ids of
    # the *original* numbering.
    outputs = [mapped(w) for w in range(n_wires - total_outputs, n_wires)]
    circuit = Circuit.from_columns(
        n_garbler, n_evaluator, outputs, op_col, a_col, b_col,
        array("q", range(n_inputs, next_id)), name,
    )
    circuit.validate()
    return circuit


def loads_bristol(text: str, name: str = "bristol") -> Circuit:
    return read_bristol(io.StringIO(text), name=name)
