"""Matrix Multiplication (VIP-Bench ``MatMult``).

``C = A x B`` over ``n x n`` integer matrices, one per party, with
width-preserving (modular) arithmetic.  All ``n^2`` dot products are
independent, so ILP is the highest of the integer workloads (Table 2:
9649); the paper scales this benchmark to 8x8 32-bit matrices.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import add, decode_int, encode_int, mul
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def build(n: int = 5, width: int = 16) -> BuiltWorkload:
    """``n x n`` matrix product with ``width``-bit elements."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    builder = CircuitBuilder()
    a_rows = [
        [builder.add_garbler_inputs(width) for _ in range(n)] for _ in range(n)
    ]
    b_rows = [
        [builder.add_evaluator_inputs(width) for _ in range(n)] for _ in range(n)
    ]

    for i in range(n):
        for j in range(n):
            terms = [
                mul(builder, a_rows[i][k], b_rows[k][j]) for k in range(n)
            ]
            while len(terms) > 1:
                nxt = [
                    add(builder, terms[t], terms[t + 1])
                    for t in range(0, len(terms) - 1, 2)
                ]
                if len(terms) % 2:
                    nxt.append(terms[-1])
                terms = nxt
            builder.mark_outputs(terms[0])
    circuit = builder.build(f"matmult_n{n}_w{width}")

    def encode_inputs(
        a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> Tuple[List[int], List[int]]:
        garbler: List[int] = []
        evaluator: List[int] = []
        for row in a:
            for value in row:
                garbler.extend(encode_int(value, width))
        for row in b:
            for value in row:
                evaluator.extend(encode_int(value, width))
        return garbler, evaluator

    def ref(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[int]:
        bits: List[int] = []
        for row in reference(a, b, width):
            for value in row:
                bits.extend(encode_int(value, width))
        return bits

    def decode_outputs(bits: Sequence[int]) -> List[List[int]]:
        result = []
        cursor = 0
        for _ in range(n):
            row = []
            for _ in range(n):
                row.append(decode_int(bits[cursor : cursor + width]))
                cursor += width
            result.append(row)
        return result

    return BuiltWorkload(
        name="MatMult",
        circuit=circuit,
        params={"n": n, "width": width},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int = 16
) -> List[List[int]]:
    n = len(a)
    mask = (1 << width) - 1
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) & mask for j in range(n)]
        for i in range(n)
    ]


def plaintext_ops(n: int, width: int) -> int:
    """n^3 multiply-accumulates."""
    return 2 * n**3


WORKLOAD = Workload(
    name="MatMult",
    description="Dense integer matrix multiply",
    build=build,
    scaled_params={"n": 5, "width": 16},
    paper_params={"n": 8, "width": 32},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=157, wires_k=1519, gates_k=1515, and_pct=34.48, ilp=9649,
        spent_wire_pct=82.16,
    ),
    character="simple",
)
