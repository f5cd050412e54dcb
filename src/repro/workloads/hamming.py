"""Hamming Distance (VIP-Bench ``Hamm``).

XOR the two parties' bit-strings and popcount the result.  The XOR layer
is free; all tables come from the popcount adder tree, giving the 25 %
AND share and very shallow depth the paper reports (Table 2: 76 levels
at 40960 bits with ILP 4311).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import decode_int
from ..circuits.stdlib.logic import popcount
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def build(n_bits: int = 2048) -> BuiltWorkload:
    """Hamming distance between two secret ``n_bits``-bit strings."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
    builder = CircuitBuilder()
    alice = builder.add_garbler_inputs(n_bits)
    bob = builder.add_evaluator_inputs(n_bits)
    diff = [builder.XOR(a, b) for a, b in zip(alice, bob)]
    count = popcount(builder, diff)
    builder.mark_outputs(count)
    circuit = builder.build(f"hamming_{n_bits}")

    def encode_inputs(
        a_bits: Sequence[int], b_bits: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        if len(a_bits) != n_bits or len(b_bits) != n_bits:
            raise ValueError(f"expected two {n_bits}-bit strings")
        return [x & 1 for x in a_bits], [x & 1 for x in b_bits]

    def ref(a_bits: Sequence[int], b_bits: Sequence[int]) -> List[int]:
        value = reference(a_bits, b_bits)
        return [(value >> i) & 1 for i in range(len(count))]

    def decode_outputs(bits: Sequence[int]) -> int:
        return decode_int(bits)

    return BuiltWorkload(
        name="Hamm",
        circuit=circuit,
        params={"n_bits": n_bits},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
    return sum((a ^ b) & 1 for a, b in zip(a_bits, b_bits))


def plaintext_ops(n_bits: int) -> int:
    """One xor+count per 64-bit word on a real CPU."""
    return max(1, 2 * n_bits // 64)


WORKLOAD = Workload(
    name="Hamm",
    description="Hamming distance: free XOR layer + popcount tree",
    build=build,
    scaled_params={"n_bits": 2048},
    paper_params={"n_bits": 40960},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=76, wires_k=410, gates_k=328, and_pct=25.00, ilp=4311,
        spent_wire_pct=99.93,
    ),
    character="shallow",
)
