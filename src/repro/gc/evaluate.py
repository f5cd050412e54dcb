"""Whole-circuit evaluation (Bob / the Evaluator).

The online phase: holding exactly one label per input wire plus the
garbled tables, the Evaluator walks the netlist in topological order.
AND gates pop the next table off the table stream (HAAC's table queue
discipline -- tables are consumed strictly in gate order, no addressing);
XOR and INV are free.  Outputs are decoded with the Garbler's decode
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..circuits.netlist import OP_AND, OP_XOR, Circuit
from .garble import GarbledCircuit
from .halfgate import eval_and, eval_not, eval_xor
from .hashing import GateHasher
from .labels import lsb

__all__ = [
    "EvaluationResult",
    "evaluate_circuit",
    "evaluate_circuit_batched",
    "evaluate_level",
]


@dataclass
class EvaluationResult:
    """Output of one evaluation: labels, decoded bits, hash accounting."""

    output_labels: List[int]
    output_bits: List[int]
    hash_calls: int
    key_expansions: int


def evaluate_circuit(
    circuit: Circuit,
    garbled: GarbledCircuit,
    input_labels: Sequence[int],
    rekeyed: bool = True,
) -> EvaluationResult:
    """Evaluate ``circuit`` given one label per primary input wire.

    Raises if the table stream length does not match the number of AND
    gates -- the same invariant HAAC's streaming table queue relies on.
    """
    circuit.validate()
    if len(input_labels) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input labels, got {len(input_labels)}"
        )
    if len(garbled.tables) != garbled.n_and_gates:
        raise ValueError("garbled table stream is inconsistent")

    hasher = GateHasher(rekeyed=rekeyed)
    labels = [0] * circuit.n_wires
    for wire, label in enumerate(input_labels):
        labels[wire] = label

    next_table = 0
    for gate_index, (op, a, b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        if op == OP_AND:
            table = garbled.tables[next_table]
            next_table += 1
            labels[out] = eval_and(labels[a], labels[b], table, gate_index, hasher)
        elif op == OP_XOR:
            labels[out] = eval_xor(labels[a], labels[b])
        else:  # INV
            labels[out] = eval_not(labels[a])
    if next_table != len(garbled.tables):
        raise ValueError("table stream not fully consumed")

    output_labels = [labels[w] for w in circuit.outputs]
    output_bits = [
        lsb(label) ^ decode
        for label, decode in zip(output_labels, garbled.decode_bits)
    ]
    return EvaluationResult(
        output_labels=output_labels,
        output_bits=output_bits,
        hash_calls=hasher.calls,
        key_expansions=hasher.key_expansions,
    )


# ---------------------------------------------------------------------------
# Level-scheduled batched evaluation
# ---------------------------------------------------------------------------


def evaluate_circuit_batched(
    circuit: Circuit,
    garbled: GarbledCircuit,
    input_labels: Sequence[int],
    rekeyed: bool = True,
    backend: Optional[Union[str, "object"]] = None,
) -> EvaluationResult:
    """Evaluate level by level with a batch hash backend.

    Bitwise-identical output labels/bits to :func:`evaluate_circuit`;
    the table *stream* is addressed by each AND gate's netlist table
    index instead of popped sequentially, which is legal because levels
    preserve the data dependences the sequential pop encodes.  All AND
    gates of a level hash in one backend call (2 hashes per gate).
    """
    from .backends import resolve_backend

    resolved = resolve_backend(backend)
    circuit.validate()
    if len(input_labels) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input labels, got {len(input_labels)}"
        )
    if len(garbled.tables) != garbled.n_and_gates:
        raise ValueError("garbled table stream is inconsistent")
    n_and = circuit.op.count(OP_AND)
    if len(garbled.tables) != n_and:
        raise ValueError(
            f"table stream does not match circuit AND count "
            f"({len(garbled.tables)} tables, {n_and} AND gates)"
        )

    hasher = GateHasher(rekeyed=rekeyed)
    table_index = _and_table_indices(circuit)
    if getattr(resolved, "vectorized", False):
        output_labels = _evaluate_levels_vectorized(
            circuit, garbled, list(input_labels), table_index,
            rekeyed, resolved, hasher,
        )
    else:
        labels = list(input_labels) + [0] * len(circuit.op)
        tables = garbled.tables
        for and_positions, free_groups in circuit.and_level_schedule():
            rows: List[int] = []
            for position in and_positions:
                table = tables[table_index[position]]
                rows.extend((table.generator_row, table.evaluator_row))
            evaluate_level(
                circuit, labels, and_positions, free_groups, rows,
                rekeyed, resolved, hasher,
            )
        output_labels = [labels[w] for w in circuit.outputs]
    output_bits = [
        lsb(label) ^ decode
        for label, decode in zip(output_labels, garbled.decode_bits)
    ]
    return EvaluationResult(
        output_labels=output_labels,
        output_bits=output_bits,
        hash_calls=hasher.calls,
        key_expansions=hasher.key_expansions,
    )


def _and_table_indices(circuit: Circuit) -> Dict[int, int]:
    """Netlist position of an AND gate -> its index in the table stream."""
    and_positions = (p for p, op in enumerate(circuit.op) if op == OP_AND)
    return {position: index for index, position in enumerate(and_positions)}


def evaluate_level(
    circuit: Circuit,
    labels: List[int],
    and_positions: List[int],
    free_groups: List[List[int]],
    rows: Sequence[int],
    rekeyed: bool,
    backend,
    hasher: GateHasher,
) -> None:
    """Evaluate one phase of :meth:`Circuit.and_level_schedule` over
    Python-int labels: the twin of :func:`repro.gc.garble.garble_level`.

    ``labels`` (the held label of every wire) is updated in place;
    ``rows`` are the AND batch's table rows flat, ``[generator_row,
    evaluator_row]`` per gate in ``and_positions`` order.  All AND gates
    of the batch hash in one backend call (2 hashes per gate).
    """
    op_of, a_of, b_of, out_of = circuit.op, circuit.a, circuit.b, circuit.out
    if and_positions:
        batch: List[int] = []
        tweaks: List[int] = []
        for position in and_positions:
            batch.extend((labels[a_of[position]], labels[b_of[position]]))
            tweaks.extend((2 * position, 2 * position + 1))
        hashes = backend.hash_labels(batch, tweaks, rekeyed)
        hasher.record_batch(len(batch))
        for index, position in enumerate(and_positions):
            h_a, h_b = hashes[2 * index], hashes[2 * index + 1]
            wa = labels[a_of[position]]
            wb = labels[b_of[position]]
            t_g, t_e = rows[2 * index], rows[2 * index + 1]
            w_g = h_a ^ (t_g if wa & 1 else 0)
            w_e = h_b ^ ((t_e ^ wa) if wb & 1 else 0)
            labels[out_of[position]] = w_g ^ w_e
    for group in free_groups:
        for position in group:
            if op_of[position] == OP_XOR:
                labels[out_of[position]] = (
                    labels[a_of[position]] ^ labels[b_of[position]]
                )
            else:  # INV forwards the label unchanged
                labels[out_of[position]] = labels[a_of[position]]


def _evaluate_levels_vectorized(
    circuit: Circuit,
    garbled: GarbledCircuit,
    input_labels: List[int],
    table_index: Dict[int, int],
    rekeyed: bool,
    backend,
    hasher: GateHasher,
) -> List[int]:
    """Fully vectorized evaluation mirroring ``_garble_levels_vectorized``.

    Same multiplicative-depth schedule and pre-expanded key schedules as
    the batched garbler; each AND batch hashes both held labels of every
    gate in one backend call (2 hashes per gate, half the Garbler's).
    """
    import numpy as np

    from .garble import _prepare_and_schedules, _run_free_groups, _vector_plan

    state = np.zeros((circuit.n_wires, 4), dtype=np.uint32)
    if input_labels:
        state[: len(input_labels)] = backend.ints_to_blocks(input_labels)
    if garbled.tables:
        generator_rows = backend.ints_to_blocks(
            [table.generator_row for table in garbled.tables]
        )
        evaluator_rows = backend.ints_to_blocks(
            [table.evaluator_row for table in garbled.tables]
        )
    else:
        generator_rows = evaluator_rows = np.zeros((0, 4), dtype=np.uint32)
    plan = _vector_plan(circuit)
    sched = _prepare_and_schedules(circuit, backend, rekeyed)

    offset = 0
    for positions, a_idx, b_idx, out_idx, free_groups in plan:
        if positions is not None:
            m = len(positions)
            wa = state[a_idx]
            wb = state[b_idx]
            labels = np.concatenate([wa, wb])
            if rekeyed:
                # Row indices into the whole-program expansion (possibly
                # worker-resident): generator rows 2i, evaluator 2i + 1.
                rows_g = 2 * np.arange(offset, offset + m, dtype=np.int64)
                sched_idx = np.concatenate([rows_g, rows_g + 1])
                hashes = backend.hash_schedule_rows(labels, sched, sched_idx)
            else:
                sched_g = sched[2 * offset : 2 * (offset + m) : 2]
                sched_e = sched[2 * offset + 1 : 2 * (offset + m) : 2]
                sched_rows = np.concatenate([sched_g, sched_e])
                hashes = backend.hash_fixed_key_blocks(labels, sched_rows)
            offset += m
            hasher.record_batch(2 * m)
            h_a = hashes[:m]
            h_b = hashes[m:]

            rows = [table_index[p] for p in positions]
            t_g = generator_rows[rows]
            t_e = evaluator_rows[rows]
            s_a = (wa[:, 3] & 1).astype(bool)
            s_b = (wb[:, 3] & 1).astype(bool)
            w_g = h_a.copy()
            w_g[s_a] ^= t_g[s_a]
            w_e = h_b.copy()
            masked = t_e ^ wa
            w_e[s_b] ^= masked[s_b]
            state[out_idx] = w_g ^ w_e
        _run_free_groups(state, free_groups, None)

    return backend.blocks_to_ints(state[circuit.outputs])
