"""Half-Gate AND and FreeXOR gate primitives.

These are the two execution units of a HAAC gate engine (paper section
3.2): the Half-Gate unit (21-stage Garbler pipeline / 18-stage Evaluator
pipeline in hardware) and the single-cycle FreeXOR unit.  This module
holds the table wire format and the Evaluator's per-gate AND / XOR, which
the functional HAAC machine (:mod:`repro.sim.functional`) runs gate by
gate; the block stores of :mod:`repro.gc.garble` / :mod:`repro.gc.evaluate`
run the same algebra a level at a time.  The Garbler's per-gate side is
the test oracle ``tests/gc/oracles.py``.

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
    "eval_and",
    "eval_xor",
]

HashFn = Callable[[int, int], int]


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


def eval_xor(wa: int, wb: int) -> int:
    """FreeXOR evaluation."""
    return wa ^ wb
