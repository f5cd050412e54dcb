"""Half-Gate AND and FreeXOR gate primitives.

These are the two execution units of a HAAC gate engine (paper section
3.2): the Half-Gate unit (21-stage Garbler pipeline / 18-stage Evaluator
pipeline in hardware) and the single-cycle FreeXOR unit.  This module is
the functional specification the hardware was validated against; the
paper validates its HLS units against EMP the same way our tests validate
these functions against plaintext gate evaluation.

Algorithm (Zahur-Rosulek-Evans "Two Halves Make a Whole", with
point-and-permute colour bits ``p = lsb(W^0)``):

Garbler, gate ``c = a AND b`` with half-gate indices ``j, j'``::

    T_G   = H(W_a^0, j)  xor H(W_a^1, j)  xor (p_b ? R : 0)
    W_G^0 = H(W_a^0, j)  xor (p_a ? T_G : 0)
    T_E   = H(W_b^0, j') xor H(W_b^1, j') xor W_a^0
    W_E^0 = H(W_b^0, j') xor (p_b ? (T_E xor W_a^0) : 0)
    W_c^0 = W_G^0 xor W_E^0            table = (T_G, T_E)

Evaluator, holding labels ``W_a, W_b`` with colour bits ``s_a, s_b``::

    W_G = H(W_a, j)  xor (s_a ? T_G : 0)
    W_E = H(W_b, j') xor (s_b ? (T_E xor W_a) : 0)
    W_c = W_G xor W_E

FreeXOR: ``W_c^0 = W_a^0 xor W_b^0`` (Garbler), ``W_c = W_a xor W_b``
(Evaluator).  NOT gates are free as well: the Garbler swaps the roles of
the two labels (``W_c^0 = W_a^1``) and the Evaluator forwards the label
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from .labels import bytes_to_ints, ints_to_bytes, lsb
from .rng import MASK_128

__all__ = [
    "GarbledTable",
    "tables_to_bytes",
    "tables_from_bytes",
    "garble_and",
    "eval_and",
    "garble_xor",
    "eval_xor",
    "garble_not",
    "eval_not",
    "GARBLER_HASHES_PER_AND",
    "EVALUATOR_HASHES_PER_AND",
]

HashFn = Callable[[int, int], int]

# Hash-call counts per AND gate; the Garbler hashes all four input labels
# (two per half-gate), the Evaluator only its two held labels.  The paper
# notes the Evaluator uses half the AES calls of the Garbler.
GARBLER_HASHES_PER_AND = 4
EVALUATOR_HASHES_PER_AND = 2


@dataclass(frozen=True)
class GarbledTable:
    """The two 128-bit rows a Half-Gate AND ships to the Evaluator.

    32 bytes total -- the "unique, 32 Byte, cryptographic constant" per
    AND gate that HAAC's table queues stream on-chip.
    """

    generator_row: int
    evaluator_row: int

    def to_bytes(self) -> bytes:
        return self.generator_row.to_bytes(16, "big") + self.evaluator_row.to_bytes(16, "big")

    @staticmethod
    def from_bytes(data: bytes) -> "GarbledTable":
        if len(data) != 32:
            raise ValueError(f"garbled tables are 32 bytes, got {len(data)}")
        return GarbledTable(
            int.from_bytes(data[:16], "big"), int.from_bytes(data[16:], "big")
        )


def tables_to_bytes(tables: Sequence[GarbledTable]) -> bytes:
    """A table stream in wire format: ``T_G || T_E``, 32 bytes per table."""
    return ints_to_bytes(
        [t.generator_row << 128 | t.evaluator_row for t in tables], 32
    )


def tables_from_bytes(data: bytes) -> List[GarbledTable]:
    """Inverse of :func:`tables_to_bytes`."""
    return [
        GarbledTable(row >> 128, row & MASK_128) for row in bytes_to_ints(data, 32)
    ]


def garble_and(
    wa0: int, wb0: int, r: int, gate_index: int, hash_fn: HashFn
) -> tuple[int, GarbledTable]:
    """Garble one AND gate; returns (W_c^0, table).

    ``gate_index`` is the gate's unique index; the two half-gates use
    tweaks ``2*gate_index`` and ``2*gate_index + 1`` (paper Figure 2 shows
    the two key expansions for ``2*Gate_i`` and ``2*Gate_i + 1``).
    """
    j_g = 2 * gate_index
    j_e = 2 * gate_index + 1
    wa1 = wa0 ^ r
    wb1 = wb0 ^ r
    p_a = lsb(wa0)
    p_b = lsb(wb0)

    h_a0 = hash_fn(wa0, j_g)
    h_a1 = hash_fn(wa1, j_g)
    t_g = h_a0 ^ h_a1 ^ (r if p_b else 0)
    w_g0 = h_a0 ^ (t_g if p_a else 0)

    h_b0 = hash_fn(wb0, j_e)
    h_b1 = hash_fn(wb1, j_e)
    t_e = h_b0 ^ h_b1 ^ wa0
    w_e0 = h_b0 ^ ((t_e ^ wa0) if p_b else 0)

    return w_g0 ^ w_e0, GarbledTable(t_g, t_e)


def eval_and(
    wa: int, wb: int, table: GarbledTable, gate_index: int, hash_fn: HashFn
) -> int:
    """Evaluate one AND gate from held labels and its garbled table."""
    j_g = 2 * gate_index
    j_e = 2 * gate_index + 1
    s_a = lsb(wa)
    s_b = lsb(wb)
    w_g = hash_fn(wa, j_g) ^ (table.generator_row if s_a else 0)
    w_e = hash_fn(wb, j_e) ^ ((table.evaluator_row ^ wa) if s_b else 0)
    return w_g ^ w_e


def garble_xor(wa0: int, wb0: int) -> int:
    """FreeXOR garbling: the output zero-label, no table."""
    return wa0 ^ wb0


def eval_xor(wa: int, wb: int) -> int:
    """FreeXOR evaluation."""
    return wa ^ wb


def garble_not(wa0: int, r: int) -> int:
    """Free NOT: output zero-label is the input one-label."""
    return wa0 ^ r


def eval_not(wa: int) -> int:
    """Free NOT on the Evaluator side: label passes through unchanged."""
    return wa
