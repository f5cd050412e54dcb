"""ReLU (VIP-Bench ``ReLU``).

``k`` independent two's-complement ReLUs: each output bit is
``x_i AND NOT(sign)``.  The circuit has exactly two dependence levels
(one INV level, one AND level) and a ~97 % AND share -- the paper's
Table 2 row (depth 2, AND 96.97 %, ILP 33792) falls out of the structure
directly.  This is the private-inference kernel that motivates the paper:
GC-based ReLU is the bottleneck of hybrid PI protocols.

Each evaluation is completely independent (no reuse), which the paper
notes makes wire traffic insensitive to reordering (Table 3 discussion).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import decode_signed, encode_int
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def build(k: int = 512, width: int = 32) -> BuiltWorkload:
    """``k`` independent ``width``-bit integer ReLUs (Bob holds the data)."""
    if k < 1:
        raise ValueError("need at least one ReLU")
    builder = CircuitBuilder()
    # Alice contributes one (unused) bit so the circuit stays two-party,
    # mirroring PI deployments where the server holds no plaintext
    # activations -- Bob supplies every activation value.
    builder.add_garbler_inputs(1)
    values = [builder.add_evaluator_inputs(width) for _ in range(k)]
    for value in values:
        keep = builder.NOT(value[-1])  # level 1: INV of the sign bit
        for bit in value[:-1]:
            builder.mark_outputs([builder.AND(bit, keep)])  # level 2: AND
        builder.mark_outputs([builder.AND(value[-1], keep)])  # always 0
    circuit = builder.build(f"relu_k{k}_w{width}")

    def encode_inputs(xs: Sequence[int]) -> Tuple[List[int], List[int]]:
        if len(xs) != k:
            raise ValueError(f"expected {k} values")
        evaluator: List[int] = []
        for value in xs:
            evaluator.extend(encode_int(value, width))
        return [1], evaluator

    def ref(xs: Sequence[int]) -> List[int]:
        bits: List[int] = []
        for value in reference(xs, width):
            bits.extend(encode_int(value, width))
        return bits

    def decode_outputs(bits: Sequence[int]) -> List[int]:
        return [
            decode_signed(bits[i * width : (i + 1) * width]) for i in range(k)
        ]

    return BuiltWorkload(
        name="ReLU",
        circuit=circuit,
        params={"k": k, "width": width},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(xs: Sequence[int], width: int = 32) -> List[int]:
    """Signed ReLU over two's-complement ``width``-bit values."""
    out = []
    mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    for value in xs:
        value &= mask
        out.append(0 if value & sign_bit else value)
    return out


def plaintext_ops(k: int, width: int) -> int:
    """One max per element."""
    return k


WORKLOAD = Workload(
    name="ReLU",
    description="Batch of independent integer ReLUs (private-inference kernel)",
    build=build,
    scaled_params={"k": 512, "width": 32},
    paper_params={"k": 2048, "width": 32},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=2, wires_k=133, gates_k=68, and_pct=96.97, ilp=33792,
        spent_wire_pct=49.23,
    ),
    character="shallow",
)
