"""Classic garbling schemes: Yao's four rows, point-and-permute, GRR3.

The paper's related-work section traces the lineage HAAC builds on:
Point-and-Permute [BMR90] -> Row Reduction (GRR3) [NPS99] -> FreeXOR
[KS08] -> Half-Gates [ZRE15].  This module implements the three
ancestors so the repository can *measure* what each step bought:

================  ==========  ============  ====================
scheme            rows/AND    bytes/AND     XOR gates
================  ==========  ============  ====================
YAO4              4           4 x 24 = 96   tabled (same cost)
PNP4              4           4 x 16 = 64   tabled (same cost)
GRR3              3           3 x 16 = 48   tabled (same cost)
HALF_GATE (main)  2           2 x 16 = 32   free (FreeXOR)
================  ==========  ============  ====================

YAO4 appends a 64-bit zero tag to each encrypted label so the evaluator
can recognise the one row that decrypts (trial decryption); PNP4 orders
rows by the operands' colour bits so exactly one row is touched; GRR3
additionally pins row (0,0)'s ciphertext to zero by *deriving* the
output label from the hashes, shipping only three rows.

These schemes do not use a global FreeXOR offset: every wire gets an
independent label pair, and XOR gates cost a table like any other gate
-- which is precisely the overhead FreeXOR then removed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..circuits.netlist import GATE_OPS, OP_INV, Circuit, GateOp
from .hashing import rekeyed_hash
from .labels import lsb
from .rng import MASK_128, LabelPrg

__all__ = [
    "ClassicScheme",
    "ClassicGarbling",
    "garble_classic",
    "evaluate_classic",
    "table_bytes_per_gate",
]

_TAG_BITS = 64
_TAG_MASK = (1 << _TAG_BITS) - 1


class ClassicScheme(enum.Enum):
    """Which ancestor construction to use."""

    YAO4 = "yao4"  # trial decryption, 4 rows + tags
    PNP4 = "pnp4"  # point-and-permute, 4 rows
    GRR3 = "grr3"  # point-and-permute + row reduction, 3 rows


def table_bytes_per_gate(scheme: ClassicScheme) -> int:
    """On-the-wire size of one gate's table."""
    if scheme is ClassicScheme.YAO4:
        return 4 * (16 + _TAG_BITS // 8)
    if scheme is ClassicScheme.PNP4:
        return 4 * 16
    return 3 * 16


@dataclass
class ClassicGarbling:
    """Garbler output for one circuit under a classic scheme."""

    scheme: ClassicScheme
    tables: List[List[int]]  # one table (list of rows) per gate, in order
    zero_labels: List[int]
    one_labels: List[int]
    decode_bits: List[int]

    def input_label(self, wire: int, bit: int) -> int:
        return self.one_labels[wire] if bit else self.zero_labels[wire]

    def total_table_bytes(self) -> int:
        return sum(
            table_bytes_per_gate(self.scheme) for _ in self.tables
        )


def _row_key(wa: int, wb: int, gate_index: int) -> int:
    """Combine the two operand labels into a row-encryption pad."""
    return rekeyed_hash(wa, 2 * gate_index) ^ rekeyed_hash(wb, 2 * gate_index + 1)


def _gate_truth(op: GateOp, va: int, vb: int) -> int:
    if op is GateOp.AND:
        return va & vb
    if op is GateOp.XOR:
        return va ^ vb
    return va ^ 1  # INV ignores vb


def garble_classic(
    circuit: Circuit, scheme: ClassicScheme, seed: int = 0
) -> ClassicGarbling:
    """Garble ``circuit`` under a classic scheme.

    Unlike the Half-Gate path, *every* gate (including XOR and INV)
    produces a table, and labels are independent per wire.
    """
    circuit.validate()
    prg = LabelPrg(seed)
    zero_labels = [0] * circuit.n_wires
    one_labels = [0] * circuit.n_wires

    def fresh_pair() -> Tuple[int, int]:
        w0 = prg.next_block()
        w1 = prg.next_block()
        if scheme is not ClassicScheme.YAO4:
            # Point-and-permute needs complementary colour bits.
            w1 = (w1 & ~1 & MASK_128) | (1 ^ (w0 & 1))
        return w0, w1

    for wire in range(circuit.n_inputs):
        zero_labels[wire], one_labels[wire] = fresh_pair()

    tables: List[List[int]] = []
    for gate_index, (code, a, b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        op = GATE_OPS[code]
        if code == OP_INV:
            b = a
        in_a = (zero_labels[a], one_labels[a])
        in_b = (zero_labels[b], one_labels[b])

        if scheme is ClassicScheme.GRR3:
            # Derive the output label for the (colour 0, colour 0) row so
            # that row's ciphertext is identically zero.
            ca = lsb(in_a[0])  # value whose label has colour 0 is ...
            # find operand values whose labels have colour bit 0
            va0 = 0 if lsb(in_a[0]) == 0 else 1
            vb0 = 0 if lsb(in_b[0]) == 0 else 1
            pad00 = _row_key(in_a[va0], in_b[vb0], gate_index)
            out_value = _gate_truth(op, va0, vb0)
            derived = pad00
            other = prg.next_block()
            if out_value == 0:
                w0 = derived
                w1 = (other & ~1 & MASK_128) | (1 ^ (w0 & 1))
            else:
                w1 = derived
                w0 = (other & ~1 & MASK_128) | (1 ^ (w1 & 1))
            zero_labels[out], one_labels[out] = w0, w1
        else:
            zero_labels[out], one_labels[out] = fresh_pair()

        out_pair = (zero_labels[out], one_labels[out])
        if scheme is ClassicScheme.YAO4:
            # Four rows in random order; each row is pad ^ (label || tag).
            rows = []
            for va in (0, 1):
                for vb in (0, 1):
                    pad = _row_key(in_a[va], in_b[vb], gate_index)
                    payload = (out_pair[_gate_truth(op, va, vb)] << _TAG_BITS)
                    rows.append(
                        (pad << _TAG_BITS | _spread_tag(pad)) ^ payload
                    )
            # Shuffle deterministically so row position leaks nothing.
            order = prg.next_bits(8)
            rows = _permute4(rows, order)
            tables.append(rows)
        else:
            # Rows indexed by (colour_a, colour_b).
            rows = [0, 0, 0, 0]
            for va in (0, 1):
                for vb in (0, 1):
                    pad = _row_key(in_a[va], in_b[vb], gate_index)
                    slot = (lsb(in_a[va]) << 1) | lsb(in_b[vb])
                    rows[slot] = pad ^ out_pair[_gate_truth(op, va, vb)]
            if scheme is ClassicScheme.GRR3:
                assert rows[0] == 0, "GRR3 row (0,0) must be zero"
                rows = rows[1:]
            tables.append(rows)

    decode = [lsb(zero_labels[w]) for w in circuit.outputs]
    if scheme is ClassicScheme.YAO4:
        # No colour bits: decode by comparing against both output labels.
        decode = [0 for _ in circuit.outputs]
    return ClassicGarbling(
        scheme=scheme,
        tables=tables,
        zero_labels=zero_labels,
        one_labels=one_labels,
        decode_bits=decode,
    )


def _spread_tag(pad: int) -> int:
    """Derive the 64-bit tag pad from the row pad (keeps rows 192-bit)."""
    return (pad ^ (pad >> 64)) & _TAG_MASK


def _permute4(rows: List[int], order_bits: int) -> List[int]:
    """Deterministic 4-permutation from 8 random bits."""
    order = list(range(4))
    # Fisher-Yates with 2-bit draws.
    for i in range(3, 0, -1):
        j = (order_bits >> (2 * i)) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return [rows[i] for i in order]


def evaluate_classic(
    circuit: Circuit,
    garbling: ClassicGarbling,
    input_labels: Sequence[int],
) -> List[int]:
    """Evaluate under a classic scheme; returns plaintext output bits."""
    circuit.validate()
    if len(input_labels) != circuit.n_inputs:
        raise ValueError("wrong number of input labels")
    scheme = garbling.scheme
    labels = [0] * circuit.n_wires
    for wire, label in enumerate(input_labels):
        labels[wire] = label

    for gate_index, (code, wire_a, wire_b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        a = labels[wire_a]
        b = labels[wire_a if code == OP_INV else wire_b]
        pad = _row_key(a, b, gate_index)
        table = garbling.tables[gate_index]
        if scheme is ClassicScheme.YAO4:
            found = None
            full_pad = (pad << _TAG_BITS) | _spread_tag(pad)
            for row in table:
                candidate = row ^ full_pad
                if candidate & _TAG_MASK == 0:
                    found = candidate >> _TAG_BITS
                    break
            if found is None:
                raise ValueError(
                    f"gate {gate_index}: no row decrypted (bad labels?)"
                )
            labels[out] = found
        else:
            slot = (lsb(a) << 1) | lsb(b)
            if scheme is ClassicScheme.GRR3:
                row = 0 if slot == 0 else table[slot - 1]
            else:
                row = table[slot]
            labels[out] = row ^ pad

    outputs = []
    for position, wire in enumerate(circuit.outputs):
        label = labels[wire]
        if scheme is ClassicScheme.YAO4:
            if label == garbling.zero_labels[wire]:
                outputs.append(0)
            elif label == garbling.one_labels[wire]:
                outputs.append(1)
            else:
                raise ValueError(f"output wire {wire}: unknown label")
        else:
            outputs.append(lsb(label) ^ garbling.decode_bits[position])
    return outputs
