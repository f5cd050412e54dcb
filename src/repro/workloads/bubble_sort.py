"""Bubble Sort (VIP-Bench ``BubbSt``).

A full bubble-sort network over unsigned integers: pass ``p`` performs
adjacent compare-exchanges up to index ``n - 1 - p``.  Each
compare-exchange costs one comparator (w tables) plus two w-bit muxes, so
the network is roughly ``1.5 * w * n^2`` tables deep in long dependence
chains -- the paper calls out BubbSt's long chains, large fan-out and low
ILP (Table 2: ILP 166 with 12.5 M gates).

Inputs are split half/half between the parties (Alice contributes the
first ``n/2`` values), outputs are the sorted values, ascending.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import decode_int, encode_int, min_max
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def build(n: int = 16, width: int = 16) -> BuiltWorkload:
    """Construct the bubble-sort circuit for ``n`` values of ``width`` bits."""
    if n < 2:
        raise ValueError("bubble sort needs at least two values")
    builder = CircuitBuilder()
    n_alice = n // 2
    values: List[List[int]] = []
    for _ in range(n_alice):
        values.append(builder.add_garbler_inputs(width))
    for _ in range(n - n_alice):
        values.append(builder.add_evaluator_inputs(width))

    for sweep in range(n - 1):
        for index in range(n - 1 - sweep):
            lo, hi = min_max(builder, values[index], values[index + 1])
            values[index] = lo
            values[index + 1] = hi

    for value in values:
        builder.mark_outputs(value)
    circuit = builder.build(f"bubble_sort_n{n}_w{width}")

    def encode_inputs(data: Sequence[int]) -> Tuple[List[int], List[int]]:
        if len(data) != n:
            raise ValueError(f"expected {n} values")
        garbler: List[int] = []
        evaluator: List[int] = []
        for position, value in enumerate(data):
            target = garbler if position < n_alice else evaluator
            target.extend(encode_int(value, width))
        return garbler, evaluator

    def ref(data: Sequence[int]) -> List[int]:
        bits: List[int] = []
        for value in sorted(v % (1 << width) for v in data):
            bits.extend(encode_int(value, width))
        return bits

    def decode_outputs(bits: Sequence[int]) -> List[int]:
        return [
            decode_int(bits[i * width : (i + 1) * width]) for i in range(n)
        ]

    return BuiltWorkload(
        name="BubbSt",
        circuit=circuit,
        params={"n": n, "width": width},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(data: Sequence[int], width: int = 16) -> List[int]:
    """Plaintext bubble sort (value domain, not bits)."""
    return sorted(v % (1 << width) for v in data)


def plaintext_ops(n: int, width: int) -> int:
    """Compare-swap count of the plaintext algorithm."""
    return n * (n - 1) // 2


WORKLOAD = Workload(
    name="BubbSt",
    description="Bubble sort network over unsigned integers",
    build=build,
    scaled_params={"n": 16, "width": 16},
    paper_params={"n": 100, "width": 32},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=75636, wires_k=12542, gates_k=12534, and_pct=33.33, ilp=166,
        spent_wire_pct=99.87,
    ),
    character="deep",
)
