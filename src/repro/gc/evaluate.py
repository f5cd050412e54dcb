"""Whole-circuit evaluation (Bob / the Evaluator).

The online phase: holding exactly one label per input wire plus the
garbled tables, the Evaluator walks the netlist in topological order.
AND gates pop the next table off the table stream (HAAC's table queue
discipline -- tables are consumed strictly in gate order, no addressing);
XOR and INV are free.  Outputs are decoded with the Garbler's decode
bits.  :func:`evaluate_circuit_batched` runs a whole dependence level at
a time on the block label store; its oracle, the per-gate walk
``evaluate_circuit``, lives in ``tests/gc/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..circuits.netlist import OP_AND, Circuit
from .garble import GarbledCircuit, _BlockStore
from .halfgate import tables_to_bytes
from .hashing import GateHasher
from .labels import bytes_to_blocks, ints_to_bytes, lsb

__all__ = [
    "EvaluationResult",
    "evaluate_circuit_batched",
]


@dataclass
class EvaluationResult:
    """Output of one evaluation: labels, decoded bits, hash accounting."""

    output_labels: List[int]
    output_bits: List[int]
    hash_calls: int


# ---------------------------------------------------------------------------
# Level-scheduled batched evaluation
# ---------------------------------------------------------------------------


def evaluate_circuit_batched(
    circuit: Circuit,
    garbled: GarbledCircuit,
    input_labels: Sequence[int],
    backend: Optional[Union[str, "object"]] = None,
) -> EvaluationResult:
    """Evaluate level by level with a batch hash backend.

    Bitwise-identical output labels/bits to the per-gate oracle
    ``evaluate_circuit`` (``tests/gc/oracles.py``);
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

    hasher = GateHasher()
    store = BlockEvaluatorStore(
        circuit, ints_to_bytes(input_labels), resolved, hasher
    )
    # The stream is in netlist order, the plan's AND batches are not.
    order = np.argsort(np.argsort(store.plan.and_positions)).tolist()
    stream = tables_to_bytes([garbled.tables[i] for i in order])
    and_at = store.plan.and_at.tolist()
    for index, (lo, hi) in enumerate(zip(and_at, and_at[1:])):
        store.evaluate_level(index, stream[32 * lo : 32 * hi])
    output_labels = store.labels(circuit.outputs)
    output_bits = [
        lsb(label) ^ decode
        for label, decode in zip(output_labels, garbled.decode_bits)
    ]
    return EvaluationResult(
        output_labels=output_labels,
        output_bits=output_bits,
        hash_calls=hasher.calls,
    )


class BlockEvaluatorStore(_BlockStore):
    """The Evaluator's held labels as blocks; the sentinel row stays
    zero, so an INV forwards its label."""

    def evaluate_level(self, index: int, block: bytes) -> None:
        """Evaluate phase ``index`` against its AND batch's tables in
        wire format (``T_G || T_E`` per gate in batch order; the caller
        has checked the length).  2 hashes per gate, half the Garbler's."""
        state = self.state
        positions, a_rows, b_rows, out, free_groups = self.plan.phase(index)
        if len(positions):
            m = len(positions)
            tables = bytes_to_blocks(block).reshape(m, 8)
            wa, wb = state.take(a_rows, axis=0), state.take(b_rows, axis=0)
            hashes = self._hash(positions, np.concatenate([wa, wb]), 1)
            s_a = -(wa[:, 3:] & 1)
            s_b = -(wb[:, 3:] & 1)
            state[out] = (
                hashes[:m] ^ (tables[:, :4] & s_a)
                ^ hashes[m:] ^ ((tables[:, 4:] ^ wa) & s_b)
            )
        self._run_free_groups(free_groups)
