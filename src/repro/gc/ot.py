"""1-out-of-2 oblivious transfer (Chou-Orlandi "simplest OT").

GCs need OT once per Evaluator input bit: Bob must obtain the label for
his bit without Alice learning the bit and without Bob learning the other
label (paper section 2.1).  OT is off HAAC's accelerator critical path --
the paper accelerates gate processing, not input transfer -- but the
substrate implements it so the end-to-end protocol is complete.

Construction (Chou-Orlandi 2015) over a Diffie-Hellman group::

    Alice:  a <-$ Z_q,  A = g^a                  -> sends A
    Bob:    b <-$ Z_q,  B = g^b          (choice 0)
            B = A * g^b                  (choice 1)  -> sends B
    Alice:  k0 = KDF(B^a),  k1 = KDF((B/A)^a)
            sends  c0 = m0 xor k0,  c1 = m1 xor k1
    Bob:    k_choice = KDF(A^b),  m_choice = c_choice xor k_choice

SUBSTITUTION NOTE (DESIGN.md section 2): the group is a fixed 768-bit
safe-prime group (RFC 2409 Oakley Group 1).  That is large enough to
exercise the real modular arithmetic but far below deployment parameter
sizes; this reproduction targets functional completeness, not
cryptographic strength.  The KDF is a Davies-Meyer construction over the
from-scratch AES.

BATCHING: the evaluator (receiver) runs one OT per input bit, and both
of Bob's group operations are fixed-base exponentiations -- ``g^b`` for
the point, ``A^b`` for the pad.  ``choose_batch``/``decrypt_batch``
therefore precompute the ``base^(2^i)`` square chain once per batch and
reduce every per-bit exponentiation to bare multiplications: one
squaring pass over all choice bits instead of one full square-and-
multiply per bit.

The sender side is batched too: ``OtSender.encrypt`` pays *two*
variable-base exponentiations per bit (``B^a`` and ``(B/A)^a``), but
``(B/A)^a = B^a * (A^{-1})^a`` and the second factor depends only on
the batch's ephemeral key -- ``encrypt_batch`` computes it once and
reduces every bit to one variable-base exponentiation plus one
multiplication.

All batched paths draw the same PRG stream and compute the same group
elements, so transcripts are bit-identical to the per-bit paths
(asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .aes import encrypt_block
from .rng import MASK_128, LabelPrg

__all__ = ["OtSender", "OtReceiver", "run_ot", "run_ot_batch", "GROUP_P", "GROUP_G"]

_EXPONENT_BITS = 256  # receiver secrets are drawn as next_bits(256)

# 768-bit safe prime p = 2q + 1 (RFC 2409 Oakley Group 1) and generator.
GROUP_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)
GROUP_G = 2
_GROUP_Q = (GROUP_P - 1) // 2


class _FixedBaseTable:
    """Precomputed ``base^(2^i) mod p`` chain for batch exponentiation.

    Building the table costs the same ~``bits`` squarings one ordinary
    exponentiation spends; afterwards each ``pow(exponent)`` is only the
    multiplications for the exponent's set bits.  Amortized over a batch
    of choice bits this is the "one exponentiation pass" the evaluator
    side uses.
    """

    def __init__(self, base: int, modulus: int, bits: int = _EXPONENT_BITS) -> None:
        self.modulus = modulus
        powers = []
        value = base % modulus
        for _ in range(bits):
            powers.append(value)
            value = value * value % modulus
        self.powers = powers

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod p`` using only multiplications."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = 1
        modulus = self.modulus
        powers = self.powers
        index = 0
        while exponent:
            if index >= len(powers):  # extend the chain for wide exponents
                powers.append(powers[-1] * powers[-1] % modulus)
            if exponent & 1:
                result = result * powers[index] % modulus
            exponent >>= 1
            index += 1
        return result

    def pow_batch(self, exponents: Sequence[int]) -> List[int]:
        return [self.pow(exponent) for exponent in exponents]


def _kdf(point: int, tweak: int) -> int:
    """Derive a 128-bit pad from a group element via AES Davies-Meyer."""
    digest = tweak & MASK_128
    value = point
    while value:
        block = value & MASK_128
        digest = encrypt_block(block ^ digest, digest | 1) ^ block
        value >>= 128
    return digest


@dataclass
class OtSender:
    """Alice's side of one batch of OTs (one ephemeral key per batch)."""

    prg: LabelPrg

    def __post_init__(self) -> None:
        self._a = (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1
        self.public = pow(GROUP_G, self._a, GROUP_P)
        # B / A = B * A^{-1}; Fermat inversion since p is prime.  One
        # inversion per batch (it only depends on the ephemeral key).
        self._a_inv = pow(self.public, GROUP_P - 2, GROUP_P)

    def encrypt(
        self, index: int, b_point: int, message0: int, message1: int
    ) -> Tuple[int, int]:
        """Encrypt the two messages against Bob's point for OT ``index``."""
        if not 0 < b_point < GROUP_P:
            raise ValueError("invalid receiver point")
        shared0 = pow(b_point, self._a, GROUP_P)
        shared1 = pow(b_point * self._a_inv % GROUP_P, self._a, GROUP_P)
        k0 = _kdf(shared0, 2 * index)
        k1 = _kdf(shared1, 2 * index + 1)
        return message0 ^ k0, message1 ^ k1

    def _a_inv_pow_a(self) -> int:
        """The batch-constant pad factor ``(A^{-1})^a``, computed once
        per sender (a single builtin ``pow`` -- a square chain only
        pays off when shared across many exponentiations, and this
        value *is* the shared part)."""
        cached = getattr(self, "_a_inv_pow_a_cache", None)
        if cached is None:
            cached = pow(self._a_inv, self._a, GROUP_P)
            self._a_inv_pow_a_cache = cached
        return cached

    def encrypt_batch(
        self,
        points: Sequence[int],
        message_pairs: Sequence[Tuple[int, int]],
        start_index: int = 0,
    ) -> List[Tuple[int, int]]:
        """Batched ``encrypt`` for OTs ``start_index ..`` onwards.

        One variable-base exponentiation per bit instead of two: the
        second pad base is ``(B/A)^a = B^a * (A^{-1})^a``, and the
        ``(A^{-1})^a`` factor is computed once and shared by every OT
        of the batch (and every batch of this sender).  The shared
        values -- hence the ciphertexts -- are bit-identical to per-bit
        :meth:`encrypt` calls with the same indices.
        """
        if len(points) != len(message_pairs):
            raise ValueError("points and message pairs must align")
        for point in points:
            if not 0 < point < GROUP_P:
                raise ValueError("invalid receiver point")
        factor = self._a_inv_pow_a()
        ciphers: List[Tuple[int, int]] = []
        for offset, (point, (message0, message1)) in enumerate(
            zip(points, message_pairs)
        ):
            shared0 = pow(point, self._a, GROUP_P)
            shared1 = shared0 * factor % GROUP_P
            index = start_index + offset
            ciphers.append(
                (
                    message0 ^ _kdf(shared0, 2 * index),
                    message1 ^ _kdf(shared1, 2 * index + 1),
                )
            )
        return ciphers


@dataclass
class OtReceiver:
    """Bob's side: one point per choice bit.

    ``choose``/``decrypt`` are the per-bit reference path (one builtin
    ``pow`` per group op); ``choose_batch``/``decrypt_batch`` share the
    fixed-base square chains of ``g`` and ``A`` across the whole batch.
    Both paths draw the same PRG stream and compute the same group
    elements, so their transcripts are interchangeable.
    """

    prg: LabelPrg
    sender_public: int

    def choose(self, choice: int) -> Tuple[int, int]:
        """Return (point to send, secret exponent) for ``choice``."""
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        b = (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1
        point = pow(GROUP_G, b, GROUP_P)
        if choice:
            point = point * self.sender_public % GROUP_P
        return point, b

    def choose_batch(self, choices: Sequence[int]) -> List[Tuple[int, int]]:
        """Batched ``choose``: one squaring pass for all choice bits."""
        for choice in choices:
            if choice not in (0, 1):
                raise ValueError("choice must be a bit")
        # Same PRG draw order as repeated choose() calls.
        secrets = [
            (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1 for _ in choices
        ]
        points = self._g_table().pow_batch(secrets)
        for index, choice in enumerate(choices):
            if choice:
                points[index] = points[index] * self.sender_public % GROUP_P
        return list(zip(points, secrets))

    def decrypt(
        self, index: int, choice: int, secret: int, cipher0: int, cipher1: int
    ) -> int:
        shared = pow(self.sender_public, secret, GROUP_P)
        pad = _kdf(shared, 2 * index + choice)
        return (cipher1 if choice else cipher0) ^ pad

    def decrypt_batch(
        self,
        choices: Sequence[int],
        secrets: Sequence[int],
        cipher_pairs: Sequence[Tuple[int, int]],
        start_index: int = 0,
    ) -> List[int]:
        """Batched ``decrypt`` for OTs ``start_index ..`` onwards."""
        if not (len(choices) == len(secrets) == len(cipher_pairs)):
            raise ValueError("choices, secrets and ciphertexts must align")
        shareds = self._a_table().pow_batch(secrets)
        messages = []
        for offset, (choice, shared, (cipher0, cipher1)) in enumerate(
            zip(choices, shareds, cipher_pairs)
        ):
            pad = _kdf(shared, 2 * (start_index + offset) + choice)
            messages.append((cipher1 if choice else cipher0) ^ pad)
        return messages

    def _g_table(self) -> _FixedBaseTable:
        table = getattr(self, "_g_table_cache", None)
        if table is None:
            table = _FixedBaseTable(GROUP_G, GROUP_P)
            object.__setattr__(self, "_g_table_cache", table)
        return table

    def _a_table(self) -> _FixedBaseTable:
        table = getattr(self, "_a_table_cache", None)
        if table is None:
            table = _FixedBaseTable(self.sender_public, GROUP_P)
            object.__setattr__(self, "_a_table_cache", table)
        return table


def run_ot(
    message0: int, message1: int, choice: int, seed: int = 0
) -> int:
    """Run one complete OT locally (test / demo convenience)."""
    return run_ot_batch([(message0, message1)], [choice], seed=seed)[0]


def run_ot_batch(
    pairs: Sequence[Tuple[int, int]], choices: Sequence[int], seed: int = 0
) -> List[int]:
    """Run a batch of OTs, one per (message pair, choice bit).

    Uses the batched fixed-base paths on both sides; transcripts match
    the per-bit ``choose``/``encrypt``/``decrypt`` sequence exactly.
    """
    if len(pairs) != len(choices):
        raise ValueError("pairs and choices must align")
    sender = OtSender(LabelPrg(seed))
    receiver = OtReceiver(LabelPrg(seed + 1), sender.public)
    points_and_secrets = receiver.choose_batch(choices)
    cipher_pairs = sender.encrypt_batch(
        [point for point, _ in points_and_secrets], list(pairs)
    )
    return receiver.decrypt_batch(
        choices, [secret for _, secret in points_and_secrets], cipher_pairs
    )
