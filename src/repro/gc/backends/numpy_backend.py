"""NumPy label-hash backend.

Runs the same T-table AES-128 as :mod:`repro.gc.aes` -- same tables,
same key expansion, same round structure -- but over *arrays* of blocks:
one table gather per byte lane serves every column of every label in
the batch.  This is the software analogue of HAAC's wide Half-Gate
pipelines, where the unit of work is a whole level of gates rather than
one gate.

Public layout: a 128-bit block is a row of four ``uint32`` big-endian
column words, ``block = c0 << 96 | c1 << 64 | c2 << 32 | c3`` -- exactly
the column decomposition of the scalar T-table path, so every
intermediate value matches the scalar implementation bit for bit -- and
a key schedule a row of 44 such words.

Kernel layout: *word planes*.  The state is a ``(4, n)`` little-endian
``uint32`` array (row ``c`` = column word ``c`` of every block), round
keys a ``(44, n)`` one, and a ``uint8`` view of the state exposes byte
``j`` of every word without a shift or a mask.  A round is four gathers
(table ``k`` over byte lane ``3 - k`` of all four columns at once) and
seven XORs that fold in the round key and apply ShiftRows as row rolls
of the gathered planes; the final round is the same code over the S-box
shifted into each lane.  Results are transposed views of fresh planes:
no input is written through, no buffer outlives a call on the backend.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as _np

from ..aes import _RCON, _TE0, _TE1, _TE2, _TE3, S_BOX, expand_key
from ..hashing import FIXED_KEY
from ..labels import blocks_to_bytes, bytes_to_blocks, bytes_to_ints, ints_to_bytes
from ..rng import MASK_128

__all__ = ["NumpyLabelHashBackend"]

_U4 = "<u4"  # plane dtype: byte lane j of a word is bits 8j..8j+7 on any host
_TABLES = None  # lazily-built numpy copies of the scalar AES tables


def _tables():
    """``(te, sb, sbox, rcon)``: the four round T-tables, the S-box
    shifted into each of the four byte lanes (the final round's
    "T-tables"), the byte S-box and the round constants in the top lane."""
    global _TABLES
    if _TABLES is None:
        _TABLES = (
            tuple(_np.array(t, dtype=_U4) for t in (_TE0, _TE1, _TE2, _TE3)),
            tuple(
                _np.array([s << shift for s in S_BOX], dtype=_U4)
                for shift in (24, 16, 8, 0)
            ),
            _np.array(S_BOX, dtype=_np.uint8),
            _np.array([rc << 24 for rc in _RCON], dtype=_U4),
        )
    return _TABLES


def _planes(rows):
    """``(n, k)`` rows as ``(k, n)`` planes, one ``(k,)`` row as ``(k, 1)``
    (it then broadcasts over a batch): a view, and a contiguous one when
    ``rows`` is itself the transposed view this module returns."""
    return rows.reshape(-1, rows.shape[-1]).T


def _public(planes):
    """``(k, n)`` planes as the public ``(n, k) uint32`` array, no copy."""
    return planes.T.astype(_np.uint32, copy=False)


class NumpyLabelHashBackend:
    """Batch TCCR hash over ``(n, 4) uint32`` block arrays."""

    def __init__(self) -> None:
        self._te, self._sb, self._sbox, self._rcon = _tables()
        self._fixed_schedule = _np.array(expand_key(FIXED_KEY), dtype=_np.uint32)

    # ------------------------------------------------------------------
    # Block <-> int conversion
    # ------------------------------------------------------------------

    @staticmethod
    def ints_to_blocks(values: Sequence[int]) -> "_np.ndarray":
        """Pack 128-bit ints into an ``(n, 4) uint32`` column array."""
        return bytes_to_blocks(ints_to_bytes(values))

    @staticmethod
    def blocks_to_ints(blocks: "_np.ndarray") -> List[int]:
        """Unpack an ``(n, 4) uint32`` column array back to Python ints."""
        return bytes_to_ints(blocks_to_bytes(blocks))

    def tweaks_to_keys(self, tweaks) -> "_np.ndarray":
        """Per-gate hash tweaks as AES key blocks (``index & MASK_128``).

        A non-negative ``int64`` array (the level engines' ``2p`` /
        ``2p + 1`` tweaks) becomes the low two column words
        arithmetically; any other sequence goes through Python ints.
        """
        if isinstance(tweaks, _np.ndarray):
            keys = _np.zeros((len(tweaks), 4), dtype=_np.uint32)
            keys[:, 2] = tweaks >> 32
            keys[:, 3] = tweaks & 0xFFFFFFFF
            return keys
        return self.ints_to_blocks([tweak & MASK_128 for tweak in tweaks])

    # ------------------------------------------------------------------
    # AES-128 on word planes
    # ------------------------------------------------------------------

    def expand_keys(self, keys: "_np.ndarray") -> "_np.ndarray":
        """Expand ``(n, 4)`` key blocks into ``(n, 44)`` round-key words.

        The recurrence is sequential (ten rounds) but each step runs
        across the whole batch of keys -- the batched analogue of the
        "two key expansions per AND gate" the paper charges the re-keyed
        hash with.  Storage is ``(44, n)``: every word one contiguous
        row, the result its transposed view.
        """
        n = keys.shape[0]
        words = _np.empty((44, n), dtype=_U4)
        words[:4] = keys.T
        sub, low = _np.empty(n, dtype=_U4), _np.empty(n, dtype=_U4)
        for i in range(4, 44, 4):
            # SubWord on all four byte lanes in one gather, then RotWord.
            lanes = words[i - 1].view(_np.uint8)
            self._sbox.take(lanes, out=sub.view(_np.uint8), mode="wrap")
            _np.right_shift(sub, 24, out=low)
            _np.left_shift(sub, 8, out=sub)
            sub |= low
            sub ^= self._rcon[i // 4 - 1]
            _np.bitwise_xor(words[i - 4], sub, out=words[i])
            for j in range(i + 1, i + 4):
                _np.bitwise_xor(words[j - 4], words[j - 1], out=words[j])
        return _public(words)

    def _encrypt_planes(self, planes: "_np.ndarray", keys: "_np.ndarray"):
        """AES-128 of ``(4, n)`` word planes (any layout or byte order,
        only read) under ``(44, n)`` or ``(44, 1)`` round-key planes, as
        fresh planes; every scratch buffer is local to the call."""
        state = _np.empty(planes.shape, dtype=_U4)
        _np.bitwise_xor(planes, keys[:4], out=state)
        lanes = state.view(_np.uint8).reshape(state.shape + (4,))
        lane = [lanes[..., 3 - k] for k in range(4)]  # k-th most significant byte
        gathered = _np.empty((4,) + state.shape, dtype=_U4)
        for round_index in range(1, 11):
            tables = self._te if round_index < 10 else self._sb
            for k in range(4):
                # uint8 indices cannot leave a 256-entry table: "wrap"
                # never fires, it only spares take() a buffered output.
                tables[k].take(lane[k], out=gathered[k], mode="wrap")
            base = 4 * round_index
            _np.bitwise_xor(gathered[0], keys[base : base + 4], out=state)
            for k in (1, 2, 3):  # ShiftRows: column c reads byte k of c + k
                _np.bitwise_xor(state[: 4 - k], gathered[k, k:], out=state[: 4 - k])
                _np.bitwise_xor(state[4 - k :], gathered[k, :k], out=state[4 - k :])
        return state

    def encrypt_blocks(
        self, blocks: "_np.ndarray", schedules: "_np.ndarray"
    ) -> "_np.ndarray":
        """AES-128 encrypt ``(n, 4)`` blocks under ``(n, 44)`` schedules.

        ``schedules`` may also be a single ``(44,)`` schedule, broadcast
        over the batch (fixed-key mode).
        """
        return _public(self._encrypt_planes(blocks.T, _planes(schedules)))

    # ------------------------------------------------------------------
    # The TCCR gate hash
    # ------------------------------------------------------------------

    @staticmethod
    def _sigma_planes(blocks: "_np.ndarray") -> "_np.ndarray":
        """sigma(x_L || x_R) = (x_L ^ x_R) || x_L of ``(n, 4)`` blocks,
        as fresh ``(4, n)`` word planes."""
        words = blocks.T
        sig = _np.empty(words.shape, dtype=_U4)
        _np.bitwise_xor(words[:2], words[2:], out=sig[:2])
        sig[2:] = words[:2]
        return sig

    def sigma_blocks(self, blocks: "_np.ndarray") -> "_np.ndarray":
        """Linear orthomorphism sigma(x_L || x_R) = (x_L ^ x_R) || x_L."""
        return _public(self._sigma_planes(blocks))

    def _davies_meyer(self, sig: "_np.ndarray", schedules) -> "_np.ndarray":
        """``AES_k(sig) ^ sig`` of fresh ``(4, n)`` planes, as public blocks."""
        out = self._encrypt_planes(sig, _planes(schedules))
        out ^= sig
        return _public(out)

    def hash_with_schedules(
        self, blocks: "_np.ndarray", schedules: "_np.ndarray"
    ) -> "_np.ndarray":
        """Re-keyed hash of pre-expanded keys: ``AES_k(sigma(x)) ^ sigma(x)``.

        Taking schedules rather than raw keys lets the batched garbler
        reuse one expansion for the two labels of each half-gate.
        """
        return self._davies_meyer(self._sigma_planes(blocks), schedules)

    def hash_fixed_key_blocks(
        self, blocks: "_np.ndarray", tweak_blocks: "_np.ndarray"
    ) -> "_np.ndarray":
        """Fixed-key variant: ``AES_K(sigma(x) ^ j) ^ sigma(x) ^ j``."""
        sig = self._sigma_planes(blocks)
        sig ^= _planes(tweak_blocks)
        return self._davies_meyer(sig, self._fixed_schedule)

    def hash_labels(
        self,
        labels: Sequence[int],
        tweaks: Sequence[int],
        rekeyed: bool = True,
    ) -> List[int]:
        """Hash ``labels[i]`` under tweak ``tweaks[i]``: element-wise
        :func:`repro.gc.hashing.rekeyed_hash` (or the fixed-key hash,
        ``fixed_key_hash`` of ``tests/gc/oracles.py``, when ``rekeyed``
        is false) over Python ints."""
        if len(labels) != len(tweaks):
            raise ValueError("labels and tweaks must align")
        if not labels:
            return []
        blocks = self.ints_to_blocks(labels)
        if rekeyed:
            schedules = self.expand_keys(self.tweaks_to_keys(tweaks))
            out = self.hash_with_schedules(blocks, schedules)
        else:
            out = self.hash_fixed_key_blocks(blocks, self.tweaks_to_keys(tweaks))
        return self.blocks_to_ints(out)
