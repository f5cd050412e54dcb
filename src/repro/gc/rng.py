"""Deterministic randomness for the GC substrate.

All randomness in the reproduction flows through :class:`LabelPrg`, an
AES-CTR pseudo-random generator built on the from-scratch AES of
:mod:`repro.gc.aes`.  Determinism matters twice over:

* experiments are reproducible bit-for-bit (DESIGN.md section 5), and
* the Garbler's label generation in real GC deployments is itself a
  seeded PRG expansion, so this mirrors the actual protocol structure.

A session's draws are known before its first message (labels, base-OT
seeds, receiver secrets), so bulk draws go through
:meth:`LabelPrg.next_blocks`: one array AES-CTR call on a vectorized
backend, the scalar :meth:`LabelPrg.next_block` loop otherwise.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .aes import encrypt_block, expand_key
from .labels import (
    MASK_128, blocks_to_bytes, bytes_to_blocks, bytes_to_ints, ints_to_bytes,
)

__all__ = ["LabelPrg", "MASK_128"]

# Blocks at which one array AES call (0.17-0.32 ms, nearly flat up to
# 64 blocks) clearly undercuts the scalar loop (17-22 us a block):
# measured crossover 11-13 blocks on the recorded host, 1.26-1.5x ahead
# at 16 (DESIGN.md section 4).
_CTR_BATCH_MIN = 16


class LabelPrg:
    """AES-CTR pseudo-random generator producing 128-bit values.

    Parameters
    ----------
    seed:
        Any non-negative integer; it is folded into a 128-bit AES key.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        # Fold arbitrarily large seeds into 128 bits with a simple
        # Davies-Meyer step so distinct seeds give distinct keys with
        # overwhelming probability.
        key = seed & MASK_128
        overflow = seed >> 128
        while overflow:
            key = encrypt_block(key ^ (overflow & MASK_128), key) ^ key
            overflow >>= 128
        self._key = key
        self._counter = 0

    def next_block(self) -> int:
        """Return the next 128-bit pseudo-random value."""
        value = encrypt_block(self._counter, self._key)
        self._counter += 1
        return value

    def next_blocks(self, count: int, backend=None) -> List[int]:
        """``[self.next_block() for _ in range(count)]``.

        On a ``vectorized`` backend and from :data:`_CTR_BATCH_MIN`
        blocks up, the counter blocks are encrypted by one
        ``backend.encrypt_blocks`` call under the broadcast key
        schedule; otherwise the scalar loop runs.
        """
        if count < _CTR_BATCH_MIN or not getattr(backend, "vectorized", False):
            return [self.next_block() for _ in range(count)]
        start = self._counter
        self._counter += count
        schedule = np.array(expand_key(self._key), dtype=np.uint32)
        counters = bytes_to_blocks(ints_to_bytes(range(start, start + count)))
        blocks = backend.encrypt_blocks(counters, schedule)
        return bytes_to_ints(blocks_to_bytes(blocks))

    def next_bits(self, bits: int) -> int:
        """Return ``bits`` pseudo-random bits as an integer."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        value = 0
        produced = 0
        while produced < bits:
            value = (value << 128) | self.next_block()
            produced += 128
        return value >> (produced - bits)

    def next_odd_block(self) -> int:
        """Return a 128-bit value with its least-significant bit set.

        Used to draw the FreeXOR global offset R, whose lsb must be 1 for
        point-and-permute to work (the permute bit of W^1 = W^0 xor R then
        always differs from that of W^0).
        """
        return self.next_block() | 1
