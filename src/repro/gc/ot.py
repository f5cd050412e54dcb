"""1-out-of-2 oblivious transfer: Chou-Orlandi "simplest OT", and IKNP
extension on top of it.

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
the point, ``A^b`` for the pad.  ``OtReceiver.draw``/``derive_pads``
use one windowed table per base (:class:`_FixedBaseTable`) and reduce
every exponentiation to one multiplication per window; the window width
is the argmin of the table's cost model for the batch at hand (512
choices: ``w = 7``, about 37 multiplications each; 8 choices: ``w = 3``;
``w = 1`` is the plain square chain).  ``g``'s table is built once per
process per width (:func:`_generator_table`); ``A``'s is per batch.
The receiver's secrets are drawn in one ``LabelPrg.next_blocks`` call.

The sender's ``encrypt`` pays *two* variable-base exponentiations per
bit (``B^a`` and ``(B/A)^a``), but ``(B/A)^a = B^a * (A^{-1})^a`` and the
second factor depends only on the batch's ephemeral key --
``prepare`` computes it once and ``encrypt_batch`` reduces every bit to
one builtin ``pow`` plus one multiplication.  That ``pow`` is the floor:
its cost is bignum multiply/reduce, not interpreter overhead (DESIGN.md
section 4).

The pad KDF is sequential along a point's 128-bit limbs but independent
across the batch, so the batched paths run it one limb at a time through
the backend's block AES kernel (:func:`_kdf_batch`) when a backend is
given and the batch has at least :data:`_KDF_BATCH_MIN` chains;
otherwise the scalar :func:`_kdf` runs.

All batched paths draw the same PRG stream and compute the same group
elements and pads, so transcripts are bit-identical to the per-bit paths
(asserted by the test suite).

COMPUTE AHEAD: every batched class is cut into *own-state* steps
(``draw``, ``prepare``, ``derive_pads``: they need only the party's
secrets and messages already received) and *reply* steps (``points``,
``encrypt_batch`` / ``respond`` / ``encrypt``, ``open`` / ``decrypt``:
they need the message just received), so the roles run each own-state
step before the receive it does not need and a party's OT work overlaps
its peer's (DESIGN.md section 4).

EXTENSION: every choice above costs a 768-bit ``pow`` per side.
:class:`OtExtReceiver` / :class:`OtExtSender` run only ``OT_KAPPA`` =
128 of those OTs, with the roles reversed and PRG seeds as messages,
and pay one PRG expansion and one hash per choice after that (IKNP in
the ``u``-matrix form of Asharov et al.; semi-honest; DESIGN.md section
4 has the algebra, the sizing and why the base OTs keep their
ciphertexts).  ``G`` and ``H`` go through ``backend.hash_labels``.  Which handshake a session
runs is :mod:`repro.gc.roles`' decision; :func:`run_ot_batch` is both
the base layer and the oracle the extension is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .aes import encrypt_block
from .backends import resolve_backend
from .labels import blocks_to_bytes, bytes_to_blocks, bytes_to_ints, ints_to_bytes
from .rng import MASK_128, LabelPrg

__all__ = [
    "OtSender", "OtReceiver", "OtExtSender", "OtExtReceiver", "OT_KAPPA",
    "run_ot", "run_ot_batch", "GROUP_P", "GROUP_G",
]

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
    """Windowed fixed-base table: ``rows[j][d] = base^(d * 2^(j*w)) mod p``.

    ``pow(exponent)`` is then one multiplication per non-zero ``w``-bit
    digit of the exponent.  ``w`` minimises the table's cost model,
    ``windows * (2^w - 1)`` multiplications to build plus ``windows`` per
    exponentiation, over the ``batch`` exponentiations it will serve;
    ``w = 1`` is the plain ``base^(2^i)`` square chain.

    A table may be shared across threads (:func:`_generator_table`).
    Growth never writes into a published list: a caller extends its own
    snapshot of ``rows`` into a fresh list and publishes that if it is
    longer.  Row ``j + 1`` is a function of row ``j`` alone, so every
    list any reader holds is complete and exact; two racing publishers
    can at worst leave the shorter list, which costs a recomputation.
    """

    # 2^8 digits x 32 windows x 96 B bounds the table near 0.8 MB; the
    # model only prefers wider windows beyond ~2,200 exponentiations.
    _WIDTHS = range(1, 9)

    def __init__(
        self, base: int, modulus: int, batch: int = 1, bits: int = _EXPONENT_BITS
    ) -> None:
        self.modulus = modulus
        self.width = self.width_for(batch, bits)
        self.rows: List[List[int]] = [self._row(base % modulus)]
        for _ in range(-(-bits // self.width) - 1):
            self._grow(self.rows)

    @classmethod
    def width_for(cls, batch: int, bits: int = _EXPONENT_BITS) -> int:
        """Cheapest window width for ``batch`` exponentiations."""
        return min(cls._WIDTHS, key=lambda w: -(-bits // w) * ((1 << w) - 1 + batch))

    def _row(self, value: int) -> List[int]:
        """``[value^d for d < 2^w]`` mod p."""
        modulus = self.modulus
        row = [1, value]
        for _ in range((1 << self.width) - 2):
            row.append(row[-1] * value % modulus)
        return row

    def _grow(self, rows: List[List[int]]) -> List[List[int]]:
        """``rows`` and one more row, as a fresh list, published when it
        is longer than the table's."""
        last = rows[-1]
        rows = rows + [self._row(last[-1] * last[1] % self.modulus)]
        if len(rows) > len(self.rows):
            self.rows = rows
        return rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod p`` using only multiplications."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = 1
        modulus, rows, width = self.modulus, self.rows, self.width
        mask = (1 << width) - 1
        index = 0
        while exponent:
            if index >= len(rows):  # extend the table for wide exponents
                rows = self._grow(rows)
            digit = exponent & mask
            if digit:
                result = result * rows[index][digit] % modulus
            exponent >>= width
            index += 1
        return result

    def pow_batch(self, exponents: Sequence[int]) -> List[int]:
        return [self.pow(exponent) for exponent in exponents]


_GENERATOR_TABLES: Dict[int, _FixedBaseTable] = {}


def _generator_table(batch: int) -> _FixedBaseTable:
    """The table of ``GROUP_G`` for ``batch`` exponentiations, built once
    per process per window width and shared by every later receiver:
    ``g`` and ``p`` are module constants, readers never write into a
    published row list, and a party process forked after a session in
    its parent inherits the tables already built."""
    width = _FixedBaseTable.width_for(batch)
    table = _GENERATOR_TABLES.get(width)
    if table is None:
        table = _GENERATOR_TABLES.setdefault(
            width, _FixedBaseTable(GROUP_G, GROUP_P, batch)
        )
    return table


def _kdf(point: int, tweak: int) -> int:
    """Derive a 128-bit pad from a group element via AES Davies-Meyer."""
    digest = tweak & MASK_128
    value = point
    while value:
        block = value & MASK_128
        digest = encrypt_block(block ^ digest, digest | 1) ^ block
        value >>= 128
    return digest


# Chains at which six NumPy limb steps (1.2-1.4 ms, nearly flat in n)
# clearly undercut the scalar chains (0.09 ms each): measured crossover
# 13-14 chains on the recorded host, >= 2.2x ahead at 32 (DESIGN.md
# section 4).
_KDF_BATCH_MIN = 32


def _kdf_batch(points: Sequence[int], tweaks: Sequence[int], backend) -> List[int]:
    """``[_kdf(point, tweak) ...]``, one limb of every chain per AES call.

    Rows carry their own limb count, so a point whose top limbs are zero
    stops exactly where the scalar ``while value:`` loop stops.
    """
    if len(points) < _KDF_BATCH_MIN or backend is None:
        return [_kdf(point, tweak) for point, tweak in zip(points, tweaks)]
    limbs = np.array([(point.bit_length() + 127) >> 7 for point in points])
    depth = int(limbs.max())
    blocks = bytes_to_blocks(ints_to_bytes(points, 16 * depth))
    blocks = blocks.reshape(len(points), depth, 4)
    digest = bytes_to_blocks(ints_to_bytes([tweak & MASK_128 for tweak in tweaks]))
    for limb in range(depth):
        block = blocks[:, depth - 1 - limb]  # least-significant limb first
        key = digest.copy()
        key[:, 3] |= 1
        stepped = backend.encrypt_blocks(block ^ digest, backend.expand_keys(key))
        digest = np.where((limbs > limb)[:, None], stepped ^ block, digest)
    return bytes_to_ints(blocks_to_bytes(digest))


@dataclass
class OtSender:
    """Alice's side of one batch of OTs (one ephemeral key per batch).

    ``backend`` is the resolved hash backend whose block AES kernel the
    batched pad KDF may use (:func:`_kdf_batch`); ``None`` is scalar.
    """

    prg: LabelPrg
    backend: Optional[object] = None

    def __post_init__(self) -> None:
        self._a = (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1
        self.public = pow(GROUP_G, self._a, GROUP_P)
        # B / A = B * A^{-1}.  One inversion per batch (it only depends
        # on the ephemeral key).
        self._a_inv = pow(self.public, -1, GROUP_P)
        self._factor: Optional[int] = None

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

    def prepare(self) -> None:
        """Own-state step, run once ``public`` is sent: the
        batch-constant pad factor ``(A^{-1})^a`` (a single builtin
        ``pow`` -- a table only pays off when shared across many
        exponentiations, and this value *is* the shared part)."""
        if self._factor is None:
            self._factor = pow(self._a_inv, self._a, GROUP_P)

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
        of the batch (and every batch of this sender).  All ``2n``
        shared values are gathered first and padded by one
        :func:`_kdf_batch` call.  The shared values -- hence the
        ciphertexts -- are bit-identical to per-bit :meth:`encrypt`
        calls with the same indices.
        """
        if len(points) != len(message_pairs):
            raise ValueError("points and message pairs must align")
        for point in points:
            if not 0 < point < GROUP_P:
                raise ValueError("invalid receiver point")
        self.prepare()
        factor = self._factor
        shareds: List[int] = []
        for point in points:
            shared0 = pow(point, self._a, GROUP_P)
            shareds += (shared0, shared0 * factor % GROUP_P)
        first = 2 * start_index
        pads = _kdf_batch(
            shareds, range(first, first + len(shareds)), self.backend
        )
        return [
            (message0 ^ pad0, message1 ^ pad1)
            for (message0, message1), pad0, pad1 in zip(
                message_pairs, pads[0::2], pads[1::2]
            )
        ]


@dataclass
class OtReceiver:
    """Bob's side: one point per choice bit.

    ``choose``/``decrypt`` are the per-bit reference path (one builtin
    ``pow`` per group op, scalar KDF).  The batched path is cut at the
    two messages it waits on, so each party computes what needs only
    its own state before it blocks: :meth:`draw` (the secrets and their
    ``g^b``, before ``A`` arrives), :meth:`points` (the reply to ``A``),
    :meth:`derive_pads` (``KDF(A^b)``, before the ciphertexts arrive)
    and :meth:`open` (the reply to the ciphertexts: one XOR per
    choice).  It shares the fixed-base tables of ``g`` and ``A`` across
    the batch and pads through :func:`_kdf_batch` on ``backend``; both
    paths draw the same PRG stream and compute the same group elements,
    so their transcripts are interchangeable.
    """

    prg: LabelPrg
    sender_public: Optional[int] = None
    backend: Optional[object] = None

    def choose(self, choice: int) -> Tuple[int, int]:
        """Return (point to send, secret exponent) for ``choice``."""
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        b = (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1
        point = pow(GROUP_G, b, GROUP_P)
        if choice:
            point = point * self.sender_public % GROUP_P
        return point, b

    def decrypt(
        self, index: int, choice: int, secret: int, cipher0: int, cipher1: int
    ) -> int:
        shared = pow(self.sender_public, secret, GROUP_P)
        pad = _kdf(shared, 2 * index + choice)
        return (cipher1 if choice else cipher0) ^ pad

    def draw(self, choices: Sequence[int]) -> None:
        """Own-state step: the secrets and ``g^b`` for every choice bit,
        off one table of ``g``."""
        if any(choice not in (0, 1) for choice in choices):
            raise ValueError("choice must be a bit")
        self.choices = list(choices)
        # Same PRG draws as repeated choose() calls: next_bits(256) is
        # two blocks, the first one high.
        blocks = self.prg.next_blocks(2 * len(choices), self.backend)
        self.secrets = [
            (((high << 128) | low) % (_GROUP_Q - 1)) + 1
            for high, low in zip(blocks[0::2], blocks[1::2])
        ]
        self._powers = _generator_table(len(self.secrets)).pow_batch(self.secrets)

    def points(self, sender_public: int) -> List[int]:
        """The points to send against the (range-checked) key ``A``."""
        self.sender_public = sender_public
        return [
            power * sender_public % GROUP_P if choice else power
            for power, choice in zip(self._powers, self.choices)
        ]

    def derive_pads(self, start_index: int = 0) -> None:
        """Own-state step, once the points are sent: ``KDF(A^b)`` for
        OTs ``start_index ..`` onwards, off one table of ``A``."""
        table = _FixedBaseTable(self.sender_public, GROUP_P, len(self.secrets))
        tweaks = [
            2 * (start_index + offset) + choice
            for offset, choice in enumerate(self.choices)
        ]
        self._pads = _kdf_batch(table.pow_batch(self.secrets), tweaks, self.backend)

    def open(self, cipher_pairs: Sequence[Tuple[int, int]]) -> List[int]:
        """The chosen messages: each pair's chosen ciphertext XOR its pad."""
        if len(cipher_pairs) != len(self._pads):
            raise ValueError("one ciphertext pair per choice")
        return [
            (cipher1 if choice else cipher0) ^ pad
            for choice, (cipher0, cipher1), pad in zip(
                self.choices, cipher_pairs, self._pads
            )
        ]


OT_KAPPA = 128  # base OTs per extension = width of a label = bits of s
# G's blocks hash under tweaks no H(j, .) or gate hash ever uses.
_PRG_DOMAIN = 1 << 127


def _prg_rows(seeds: Sequence[int], n_bits: int, backend) -> "np.ndarray":
    """``G``: row ``i`` holds the first ``n_bits`` bits of ``seed_i``
    hashed under tweaks ``_PRG_DOMAIN | 0, 1, ...``, as a 0/1 ``uint8`` array."""
    depth = -(-n_bits // 128)
    blocks = backend.hash_labels(
        [seed for seed in seeds for _ in range(depth)],
        [_PRG_DOMAIN | block for block in range(depth)] * len(seeds),
        True,
    )
    raw = np.frombuffer(ints_to_bytes(blocks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(seeds), -1), axis=1)[:, :n_bits]


def _columns(rows: "np.ndarray") -> List[int]:
    """The columns of an ``(OT_KAPPA, m)`` bit matrix as ``m`` 128-bit
    ints, row 0 the most significant bit: the bit-matrix transpose."""
    return bytes_to_ints(np.packbits(rows.T, axis=1).tobytes())


class OtExtReceiver:
    """The choosing party of an extended batch (the evaluator): *sender*
    of the ``OT_KAPPA`` base OTs, whose messages are PRG seed pairs.

    ``public`` opens the handshake.  Own-state steps bracket the two
    replies: :meth:`prepare` (the base pad factor, the ``G(k)`` rows,
    ``t`` and ``matrix``, the packed rows ``u_i = G(k_i^0) ^ G(k_i^1) ^
    choices``) before the peer's base points arrive, :meth:`respond`
    (the seed ciphertexts against them), :meth:`derive_pads` (the
    ``H(j, t_j)``, ``t_j`` being column ``j`` of the ``G(k_i^0)`` rows)
    before the ciphertexts arrive, and :meth:`decrypt` (one XOR each).
    """

    def __init__(self, prg: LabelPrg, choices: Sequence[int], backend) -> None:
        if any(choice not in (0, 1) for choice in choices):
            raise ValueError("choice must be a bit")
        self.choices = list(choices)
        self.backend = backend
        self._base = OtSender(prg, backend)
        self.public = self._base.public
        blocks = prg.next_blocks(2 * OT_KAPPA, backend)
        self._seeds = list(zip(blocks[0::2], blocks[1::2]))

    def prepare(self) -> None:
        """Own-state step, once ``public`` is sent."""
        self._base.prepare()
        seeds = [seed for pair in self._seeds for seed in pair]
        rows = _prg_rows(seeds, len(self.choices), self.backend)
        self._t = _columns(rows[0::2])
        u = rows[0::2] ^ rows[1::2] ^ np.array(self.choices, dtype=np.uint8)
        #: ``u`` as ``OT_KAPPA * m`` packed bits, the ``otx_matrix`` payload.
        self.matrix = np.packbits(u).tobytes()

    def respond(self, points: Sequence[int]) -> List[int]:
        """The ``2 * OT_KAPPA`` seed ciphertexts."""
        cipher_pairs = self._base.encrypt_batch(points, self._seeds)
        return [c for pair in cipher_pairs for c in pair]

    def derive_pads(self) -> None:
        """Own-state step, once the seeds and matrix are sent."""
        self._pads = self.backend.hash_labels(self._t, range(len(self._t)), True)

    def decrypt(self, ciphers: Sequence[int]) -> List[int]:
        """The chosen messages from ``(y_j^0, y_j^1)`` laid end to end."""
        if len(ciphers) != 2 * len(self.choices):
            raise ValueError("two ciphertexts per choice")
        return [
            ciphers[2 * j + choice] ^ pad
            for j, (choice, pad) in enumerate(zip(self.choices, self._pads))
        ]


class OtExtSender:
    """The party holding the message pairs (the garbler): *receiver* of
    the base OTs under its secret bits ``s``, so it learns ``k_i^{s_i}``
    and, from ``u``, the rows ``q_i = G(k_i^{s_i}) ^ s_i * u_i`` whose
    columns are ``q_j = t_j ^ choice_j * s``.  Its base receiver draws
    at construction, before the peer's key is known; :meth:`points` and
    :meth:`derive_pads` are that receiver's reply and own-state steps.
    """

    def __init__(self, prg: LabelPrg, backend) -> None:
        self.backend = backend
        self._s = prg.next_block()
        self._s_bits = [(self._s >> (OT_KAPPA - 1 - i)) & 1 for i in range(OT_KAPPA)]
        self._base = OtReceiver(prg, backend=backend)
        self._base.draw(self._s_bits)
        self.points = self._base.points
        self.derive_pads = self._base.derive_pads

    def encrypt(
        self,
        seed_ciphers: Sequence[int],
        matrix: bytes,
        message_pairs: Sequence[Tuple[int, int]],
    ) -> List[int]:
        """``y_j^b = x_j^b ^ H(j, q_j ^ b * s)``, laid end to end."""
        m = len(message_pairs)
        seeds = self._base.open(list(zip(seed_ciphers[0::2], seed_ciphers[1::2])))
        u = np.unpackbits(np.frombuffer(matrix, dtype=np.uint8)).reshape(OT_KAPPA, m)
        s_column = np.array(self._s_bits, dtype=np.uint8)[:, None]
        q = _columns(_prg_rows(seeds, m, self.backend) ^ (u & s_column))
        pads = self.backend.hash_labels(
            [q_j ^ mask for q_j in q for mask in (0, self._s)],
            [j for j in range(m) for _ in range(2)],
            True,
        )
        messages = [x for pair in message_pairs for x in pair]
        return [message ^ pad for message, pad in zip(messages, pads)]


def run_ot(
    message0: int, message1: int, choice: int, seed: int = 0
) -> int:
    """Run one complete OT locally (test / demo convenience)."""
    return run_ot_batch([(message0, message1)], [choice], seed=seed)[0]


def run_ot_batch(
    pairs: Sequence[Tuple[int, int]], choices: Sequence[int], seed: int = 0
) -> List[int]:
    """Run a batch of OTs, one per (message pair, choice bit).

    Runs the batched steps the streamed roles run, in their order, with
    the ``auto`` backend; transcripts match the per-bit
    ``choose``/``encrypt``/``decrypt`` sequence exactly.
    """
    if len(pairs) != len(choices):
        raise ValueError("pairs and choices must align")
    backend = resolve_backend("auto")
    receiver = OtReceiver(LabelPrg(seed + 1), backend=backend)
    receiver.draw(choices)
    sender = OtSender(LabelPrg(seed), backend)
    points = receiver.points(sender.public)
    sender.prepare()
    receiver.derive_pads()
    return receiver.open(sender.encrypt_batch(points, list(pairs)))
