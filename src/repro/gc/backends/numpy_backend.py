"""NumPy-vectorized label-hash backend.

Runs the same T-table AES-128 as :mod:`repro.gc.aes` -- same tables,
same key expansion, same round structure -- but over *arrays* of blocks:
one fancy-indexed table lookup per byte position serves every label in
the batch simultaneously.  This is the software analogue of HAAC's wide
Half-Gate pipelines, where the unit of work is a whole level of gates
rather than one gate.

Block layout: a 128-bit block is a row of four ``uint32`` big-endian
column words, ``block = c0 << 96 | c1 << 64 | c2 << 32 | c3`` -- exactly
the column decomposition of the scalar T-table path, so every
intermediate value matches the scalar implementation bit for bit.

The module imports cleanly without NumPy; constructing the backend then
raises :class:`~repro.gc.backends.base.BackendUnavailable`, which the
``auto`` resolution in :func:`~repro.gc.backends.base.resolve_backend`
turns into a silent fallback to the scalar reference.
"""

from __future__ import annotations

from typing import List, Sequence

try:  # pragma: no cover - exercised via the availability flag
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..aes import _RCON, _TE0, _TE1, _TE2, _TE3, S_BOX, expand_key
from ..hashing import FIXED_KEY
from ..labels import blocks_to_bytes, bytes_to_blocks, bytes_to_ints, ints_to_bytes
from ..rng import MASK_128
from .base import BackendUnavailable, LabelHashBackend

__all__ = ["NumpyLabelHashBackend", "numpy_available"]

_TABLES = None  # lazily-built numpy copies of the scalar AES tables


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this environment."""
    return _np is not None


def _tables():
    global _TABLES
    if _TABLES is None:
        _TABLES = (
            _np.array(_TE0, dtype=_np.uint32),
            _np.array(_TE1, dtype=_np.uint32),
            _np.array(_TE2, dtype=_np.uint32),
            _np.array(_TE3, dtype=_np.uint32),
            _np.array(S_BOX, dtype=_np.uint32),
            _np.array(_RCON, dtype=_np.uint32),
        )
    return _TABLES


class NumpyLabelHashBackend(LabelHashBackend):
    """Batch TCCR hash over ``(n, 4) uint32`` block arrays."""

    name = "numpy"
    vectorized = True

    def __init__(self) -> None:
        if not numpy_available():
            raise BackendUnavailable(
                "numpy gc backend requires NumPy; install it or use the "
                "'scalar' backend"
            )
        (self._te0, self._te1, self._te2, self._te3,
         self._sbox, self._rcon) = _tables()
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
    # Vectorized AES-128
    # ------------------------------------------------------------------

    def expand_keys(self, keys: "_np.ndarray") -> "_np.ndarray":
        """Expand ``(n, 4)`` key blocks into ``(n, 44)`` round-key words.

        The per-word recurrence is sequential (40 steps) but each step
        is vectorized across the whole batch of keys -- the batched
        analogue of the "two key expansions per AND gate" the paper
        charges the re-keyed hash with.
        """
        n = keys.shape[0]
        sbox = self._sbox
        words = _np.empty((n, 44), dtype=_np.uint32)
        words[:, :4] = keys
        for i in range(4, 44):
            temp = words[:, i - 1]
            if i % 4 == 0:
                temp = ((temp << _np.uint32(8)) | (temp >> _np.uint32(24)))
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << _np.uint32(24))
                    | (sbox[(temp >> 16) & 0xFF] << _np.uint32(16))
                    | (sbox[(temp >> 8) & 0xFF] << _np.uint32(8))
                    | sbox[temp & 0xFF]
                )
                temp = temp ^ (self._rcon[i // 4 - 1] << _np.uint32(24))
            words[:, i] = words[:, i - 4] ^ temp
        return words

    def encrypt_blocks(
        self, blocks: "_np.ndarray", schedules: "_np.ndarray"
    ) -> "_np.ndarray":
        """AES-128 encrypt ``(n, 4)`` blocks under ``(n, 44)`` schedules.

        ``schedules`` may also be a single ``(44,)`` schedule, broadcast
        over the batch (fixed-key mode).
        """
        te0, te1, te2, te3 = self._te0, self._te1, self._te2, self._te3
        c0 = blocks[:, 0] ^ schedules[..., 0]
        c1 = blocks[:, 1] ^ schedules[..., 1]
        c2 = blocks[:, 2] ^ schedules[..., 2]
        c3 = blocks[:, 3] ^ schedules[..., 3]
        for round_index in range(1, 10):
            base = 4 * round_index
            n0 = (
                te0[(c0 >> 24) & 0xFF]
                ^ te1[(c1 >> 16) & 0xFF]
                ^ te2[(c2 >> 8) & 0xFF]
                ^ te3[c3 & 0xFF]
                ^ schedules[..., base]
            )
            n1 = (
                te0[(c1 >> 24) & 0xFF]
                ^ te1[(c2 >> 16) & 0xFF]
                ^ te2[(c3 >> 8) & 0xFF]
                ^ te3[c0 & 0xFF]
                ^ schedules[..., base + 1]
            )
            n2 = (
                te0[(c2 >> 24) & 0xFF]
                ^ te1[(c3 >> 16) & 0xFF]
                ^ te2[(c0 >> 8) & 0xFF]
                ^ te3[c1 & 0xFF]
                ^ schedules[..., base + 2]
            )
            n3 = (
                te0[(c3 >> 24) & 0xFF]
                ^ te1[(c0 >> 16) & 0xFF]
                ^ te2[(c1 >> 8) & 0xFF]
                ^ te3[c2 & 0xFF]
                ^ schedules[..., base + 3]
            )
            c0, c1, c2, c3 = n0, n1, n2, n3
        sbox = self._sbox
        f0 = (
            (sbox[(c0 >> 24) & 0xFF] << _np.uint32(24))
            | (sbox[(c1 >> 16) & 0xFF] << _np.uint32(16))
            | (sbox[(c2 >> 8) & 0xFF] << _np.uint32(8))
            | sbox[c3 & 0xFF]
        ) ^ schedules[..., 40]
        f1 = (
            (sbox[(c1 >> 24) & 0xFF] << _np.uint32(24))
            | (sbox[(c2 >> 16) & 0xFF] << _np.uint32(16))
            | (sbox[(c3 >> 8) & 0xFF] << _np.uint32(8))
            | sbox[c0 & 0xFF]
        ) ^ schedules[..., 41]
        f2 = (
            (sbox[(c2 >> 24) & 0xFF] << _np.uint32(24))
            | (sbox[(c3 >> 16) & 0xFF] << _np.uint32(16))
            | (sbox[(c0 >> 8) & 0xFF] << _np.uint32(8))
            | sbox[c1 & 0xFF]
        ) ^ schedules[..., 42]
        f3 = (
            (sbox[(c3 >> 24) & 0xFF] << _np.uint32(24))
            | (sbox[(c0 >> 16) & 0xFF] << _np.uint32(16))
            | (sbox[(c1 >> 8) & 0xFF] << _np.uint32(8))
            | sbox[c2 & 0xFF]
        ) ^ schedules[..., 43]
        return _np.stack([f0, f1, f2, f3], axis=1)

    # ------------------------------------------------------------------
    # The TCCR gate hash
    # ------------------------------------------------------------------

    @staticmethod
    def sigma_blocks(blocks: "_np.ndarray") -> "_np.ndarray":
        """Vectorized linear orthomorphism sigma(x_L || x_R) = (x_L ^ x_R) || x_L."""
        out = _np.empty_like(blocks)
        out[:, 0] = blocks[:, 0] ^ blocks[:, 2]
        out[:, 1] = blocks[:, 1] ^ blocks[:, 3]
        out[:, 2] = blocks[:, 0]
        out[:, 3] = blocks[:, 1]
        return out

    def hash_with_schedules(
        self, blocks: "_np.ndarray", schedules: "_np.ndarray"
    ) -> "_np.ndarray":
        """Re-keyed hash of pre-expanded keys: ``AES_k(sigma(x)) ^ sigma(x)``.

        Taking schedules rather than raw keys lets the batched garbler
        reuse one expansion for the two labels of each half-gate.
        """
        sig = self.sigma_blocks(blocks)
        return self.encrypt_blocks(sig, schedules) ^ sig

    def hash_fixed_key_blocks(
        self, blocks: "_np.ndarray", tweak_blocks: "_np.ndarray"
    ) -> "_np.ndarray":
        """Fixed-key variant: ``AES_K(sigma(x) ^ j) ^ sigma(x) ^ j``."""
        sig = self.sigma_blocks(blocks) ^ tweak_blocks
        return self.encrypt_blocks(sig, self._fixed_schedule) ^ sig

    def hash_labels(
        self,
        labels: Sequence[int],
        tweaks: Sequence[int],
        rekeyed: bool = True,
    ) -> List[int]:
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
