"""Triangle Counting (VIP-Bench ``Triangle``).

Counts triangles in an undirected graph whose adjacency bits are secret:
``count = sum over i<j<k of A[i,j] & A[i,k] & A[j,k]``.  Every triple is
independent, so the circuit is wide and shallow with huge ILP (Table 2:
ILP 4974) and a large gate count -- each of the C(n,3) triples costs two
ANDs, and the final popcount tree adds the rest.

The upper-triangle adjacency bits are split between the parties: Alice
holds edges incident to the first half of the vertices, Bob the rest.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import decode_int
from ..circuits.stdlib.logic import popcount
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def _edge_list(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def build(n: int = 24) -> BuiltWorkload:
    """Triangle counting over an ``n``-vertex secret graph."""
    if n < 3:
        raise ValueError("triangle counting needs at least three vertices")
    builder = CircuitBuilder()
    edges = _edge_list(n)
    split_vertex = n // 2
    alice_edges = [(i, j) for (i, j) in edges if i < split_vertex]
    bob_edges = [(i, j) for (i, j) in edges if i >= split_vertex]

    edge_wire: Dict[Tuple[int, int], int] = {}
    alice_wires = builder.add_garbler_inputs(len(alice_edges))
    for edge, wire in zip(alice_edges, alice_wires):
        edge_wire[edge] = wire
    bob_wires = builder.add_evaluator_inputs(len(bob_edges))
    for edge, wire in zip(bob_edges, bob_wires):
        edge_wire[edge] = wire

    terms: List[int] = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                pair = builder.AND(edge_wire[(i, j)], edge_wire[(i, k)])
                terms.append(builder.AND(pair, edge_wire[(j, k)]))
    count = popcount(builder, terms)
    builder.mark_outputs(count)
    circuit = builder.build(f"triangle_n{n}")

    def encode_inputs(
        adjacency: Sequence[Sequence[int]],
    ) -> Tuple[List[int], List[int]]:
        if len(adjacency) != n:
            raise ValueError(f"expected an {n}x{n} adjacency matrix")
        garbler = [adjacency[i][j] & 1 for (i, j) in alice_edges]
        evaluator = [adjacency[i][j] & 1 for (i, j) in bob_edges]
        return garbler, evaluator

    def ref(adjacency: Sequence[Sequence[int]]) -> List[int]:
        count_value = reference(adjacency)
        width = len(count)
        return [(count_value >> b) & 1 for b in range(width)]

    def decode_outputs(bits: Sequence[int]) -> int:
        return decode_int(bits)

    return BuiltWorkload(
        name="Triangle",
        circuit=circuit,
        params={"n": n},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(adjacency: Sequence[Sequence[int]]) -> int:
    """Plaintext triangle count of a symmetric 0/1 adjacency matrix."""
    n = len(adjacency)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if not adjacency[i][j]:
                continue
            for k in range(j + 1, n):
                if adjacency[i][k] and adjacency[j][k]:
                    count += 1
    return count


def plaintext_ops(n: int) -> int:
    """Two AND-equivalents per vertex triple."""
    return 2 * (n * (n - 1) * (n - 2)) // 6


WORKLOAD = Workload(
    name="Triangle",
    description="Triangle counting over a secret adjacency matrix",
    build=build,
    scaled_params={"n": 24},
    paper_params={"n": 128},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=1403, wires_k=6984, gates_k=6979, and_pct=34.02, ilp=4974,
        spent_wire_pct=56.76,
    ),
    character="complex",
)
