"""Dot Product (VIP-Bench ``DotProd``).

``sum(x[i] * y[i])`` over two integer vectors, one per party.  Products
are width-preserving (modular) multiplies accumulated through a balanced
adder tree, giving the high ILP the paper reports (Table 2: ILP 1376).
The paper scales this workload to two 128-element 32-bit vectors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import add, decode_int, encode_int, mul
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def build(n: int = 32, width: int = 16) -> BuiltWorkload:
    """Dot product of two ``n``-element ``width``-bit vectors."""
    if n < 1:
        raise ValueError("dot product needs at least one element")
    builder = CircuitBuilder()
    xs = [builder.add_garbler_inputs(width) for _ in range(n)]
    ys = [builder.add_evaluator_inputs(width) for _ in range(n)]

    products = [mul(builder, x, y) for x, y in zip(xs, ys)]
    while len(products) > 1:
        nxt = [
            add(builder, products[i], products[i + 1])
            for i in range(0, len(products) - 1, 2)
        ]
        if len(products) % 2:
            nxt.append(products[-1])
        products = nxt
    builder.mark_outputs(products[0])
    circuit = builder.build(f"dot_product_n{n}_w{width}")

    def encode_inputs(
        x_vals: Sequence[int], y_vals: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        if len(x_vals) != n or len(y_vals) != n:
            raise ValueError(f"expected two vectors of {n} values")
        garbler: List[int] = []
        evaluator: List[int] = []
        for value in x_vals:
            garbler.extend(encode_int(value, width))
        for value in y_vals:
            evaluator.extend(encode_int(value, width))
        return garbler, evaluator

    def ref(x_vals: Sequence[int], y_vals: Sequence[int]) -> List[int]:
        total = sum(x * y for x, y in zip(x_vals, y_vals)) % (1 << width)
        return encode_int(total, width)

    def decode_outputs(bits: Sequence[int]) -> int:
        return decode_int(bits)

    return BuiltWorkload(
        name="DotProd",
        circuit=circuit,
        params={"n": n, "width": width},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(x_vals: Sequence[int], y_vals: Sequence[int], width: int = 16) -> int:
    return sum(x * y for x, y in zip(x_vals, y_vals)) % (1 << width)


def plaintext_ops(n: int, width: int) -> int:
    """One multiply-accumulate per element."""
    return 2 * n


WORKLOAD = Workload(
    name="DotProd",
    description="Integer dot product with a balanced accumulation tree",
    build=build,
    scaled_params={"n": 32, "width": 16},
    paper_params={"n": 128, "width": 32},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=277, wires_k=389, gates_k=381, and_pct=34.39, ilp=1376,
        spent_wire_pct=86.43,
    ),
    character="simple",
)
