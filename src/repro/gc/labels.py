"""Wire labels and the FreeXOR global offset.

A *wire* is a gate input/output; its encrypted value is a 128-bit *label*
(paper Figure 1).  The reference paths hold labels as plain Python
integers in ``[0, 2^128)``; the block engine holds them as *blocks*,
rows of four big-endian ``uint32`` column words (DESIGN.md section 11).
Both share one wire format, 16 big-endian bytes, and the conversions
between the three live here.

The Garbler holds, for each wire ``i``, the pair ``(W_i^0, W_i^1)`` with
``W_i^1 = W_i^0 xor R`` (FreeXOR convention, Kolesnikov-Schneider).  The
Evaluator only ever holds one of the two.  The least-significant bit of a
label is its point-and-permute bit; because ``lsb(R) = 1`` the two labels
of a wire always expose opposite permute bits.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "lsb", "ints_to_bytes", "bytes_to_ints", "bytes_to_blocks",
    "blocks_to_bytes", "pack_bits", "unpack_bits", "MASK_128",
]

MASK_128 = (1 << 128) - 1


def lsb(label: int) -> int:
    """Point-and-permute bit of a label."""
    return label & 1


def ints_to_bytes(values: Sequence[int], width: int = 16) -> bytes:
    """Concatenate ``values`` as ``width``-byte big-endian fields."""
    return b"".join(value.to_bytes(width, "big") for value in values)


def bytes_to_ints(data: bytes, width: int = 16) -> List[int]:
    """Inverse of :func:`ints_to_bytes`; a ragged tail is a ``ValueError``."""
    if len(data) % width:
        raise ValueError(f"{len(data)} bytes is not a multiple of {width}")
    return [
        int.from_bytes(data[i : i + width], "big")
        for i in range(0, len(data), width)
    ]


def bytes_to_blocks(data: bytes):
    """View wire-format labels as an ``(n, 4) uint32`` block array: one
    ``frombuffer``, one byte swap, no per-label work."""
    return np.frombuffer(data, dtype=">u4").reshape(-1, 4).astype(np.uint32)


def blocks_to_bytes(blocks) -> bytes:
    """Wire format of a ``(..., 4k) uint32`` block array, row-major."""
    return blocks.astype(">u4").tobytes()


def pack_bits(bits: Sequence[int]) -> bytes:
    """Pack bits LSB-first into ``ceil(n / 8)`` bytes."""
    out = bytearray((len(bits) + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


def unpack_bits(data: bytes, n_bits: int) -> List[int]:
    """The first ``n_bits`` bits of :func:`pack_bits` output."""
    return [(data[index // 8] >> (index % 8)) & 1 for index in range(n_bits)]
