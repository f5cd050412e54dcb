"""The gate hash used by Half-Gate garbling.

HAAC (section 2.1) deliberately uses the *re-keyed* hash of Guo-Katz-
Wang-Weng-Yu (GKWY20): each hash call keys AES with the gate index and
performs a **full key expansion**, rather than the cheaper but less
secure fixed-key construction of Bellare et al.  The paper measures
re-keying as costing 27.5 % extra per Half-Gate; we expose both modes so
that cost delta is reproducible (see ``tests/gc/test_hashing.py``).

The hash is a Davies-Meyer / TCCR-style construction::

    sigma(x) = (x_left xor x_right) || x_left          (128-bit halves of 64b)
    H(x, j)  = AES_{expand(j)}(sigma(x)) xor sigma(x)   (re-keyed, HAAC mode)
    H_fk(x, j) = AES_K(sigma(x) xor j) xor sigma(x) xor j   (fixed-key mode)

``sigma`` is the linear orthomorphism used by EMP / GKWY20; it makes the
construction tweakable-circular-correlation-robust under the random
permutation model.
"""

from __future__ import annotations

from .aes import encrypt_block
from .rng import MASK_128

__all__ = ["sigma", "rekeyed_hash", "fixed_key_hash", "GateHasher"]

_HALF_MASK = (1 << 64) - 1
# Arbitrary public constant used as the fixed key in fixed-key mode
# (deployments derive it from a public nonce; any fixed value works for
# the functional substrate).
FIXED_KEY = 0x243F6A8885A308D313198A2E03707344  # pi digits


def sigma(x: int) -> int:
    """Linear orthomorphism sigma(x_L || x_R) = (x_L xor x_R) || x_L."""
    left = x >> 64
    right = x & _HALF_MASK
    return ((left ^ right) << 64) | left


def rekeyed_hash(label: int, index: int) -> int:
    """HAAC's hash: AES keyed by the gate index, full expansion per call.

    ``index`` is the per-gate tweak ``j`` (each AND gate consumes two
    consecutive indices, one per half-gate).
    """
    s = sigma(label)
    return encrypt_block(s, index & MASK_128) ^ s


def fixed_key_hash(label: int, index: int) -> int:
    """Fixed-key variant (Bellare et al.); weaker, kept for the cost study."""
    s = sigma(label) ^ index
    return encrypt_block(s, FIXED_KEY) ^ s


class GateHasher:
    """Hash dispatcher with call accounting.

    The accounting feeds the CPU cost model: re-keyed hashing performs a
    key expansion per call, fixed-key amortises one expansion over the
    whole program.  ``calls`` counts hash invocations and
    ``key_expansions`` counts schedule computations.
    """

    def __init__(self, rekeyed: bool = True) -> None:
        self.rekeyed = rekeyed
        self.calls = 0
        self.key_expansions = 1 if not rekeyed else 0

    def __call__(self, label: int, index: int) -> int:
        self.calls += 1
        if self.rekeyed:
            self.key_expansions += 1
            return rekeyed_hash(label, index)
        return fixed_key_hash(label, index)

    def record_batch(self, n: int) -> None:
        """Account for ``n`` hash calls performed by a batch backend.

        Batched backends compute hashes out-of-line (see
        :mod:`repro.gc.backends`); this keeps the call/expansion ledger
        identical to ``n`` scalar invocations so the CPU cost model sees
        the same work regardless of execution substrate.
        """
        self.calls += n
        if self.rekeyed:
            self.key_expansions += n

    def reset(self) -> None:
        self.calls = 0
        self.key_expansions = 1 if not self.rekeyed else 0
