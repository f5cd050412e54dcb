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
cryptographic strength.  The KDF is a Davies-Meyer construction over
AES-128: the from-scratch one, or libcrypto's for the same values.

BATCHING: the batched paths hand each step's exponentiations to
:func:`_powmod` as one list -- the receiver's ``g^b`` (``draw``) and
``A^b`` (``derive_pads``), the sender's ``A`` (at construction),
``(A^{-1})^a`` (``prepare``) and ``B^a`` (``encrypt_batch``).  It runs them on
OpenSSL's constant-time Montgomery exponentiation through ``ctypes``
where libcrypto is present, builtin ``pow`` elsewhere; same values
either way (DESIGN.md section 4).  The receiver's secrets are drawn in
one ``LabelPrg.next_blocks`` call.

The sender's ``encrypt`` pays *two* variable-base exponentiations per
bit (``B^a`` and ``(B/A)^a``), but ``(B/A)^a = B^a * (A^{-1})^a`` and the
second factor depends only on the batch's ephemeral key --
``prepare`` computes it once and ``encrypt_batch`` reduces every bit to
one exponentiation plus one multiplication.

The pad KDF is sequential along a point's 128-bit limbs but independent
across the batch.  When a backend is given, :func:`_kdf_batch` runs a
batch of at least :data:`_KDF_BATCH_MIN` chains one limb at a time
through the backend's block AES kernel, and a smaller one chain by chain
on libcrypto's raw ``AES_set_encrypt_key`` / ``AES_encrypt``
(:func:`_kdf_chains`; a handle of its own, so a libcrypto without the
deprecated AES calls keeps :func:`_powmod` on libcrypto).  The scalar
:func:`_kdf` runs for backend-less callers, for the per-bit reference
path and, below the threshold, where libcrypto's AES is missing.

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

EXTENSION: every choice above costs a 768-bit exponentiation per side.
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .aes import encrypt_with_schedule, key_expansion_words
from .backends import resolve_backend
from .labels import blocks_to_bytes, bytes_to_blocks, bytes_to_ints, ints_to_bytes
from .rng import MASK_128, LabelPrg

try:
    import ctypes
except ImportError:  # a CPython built without _ctypes
    ctypes = None

__all__ = [
    "OtSender", "OtReceiver", "OtExtSender", "OtExtReceiver", "OT_KAPPA",
    "run_ot", "run_ot_batch", "GROUP_P", "GROUP_G",
]

# 768-bit safe prime p = 2q + 1 (RFC 2409 Oakley Group 1) and generator.
GROUP_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)
GROUP_G = 2
_GROUP_Q = (GROUP_P - 1) // 2

_GROUP_BYTES = 96  # a 768-bit group element, big-endian
_P_BYTES = GROUP_P.to_bytes(_GROUP_BYTES, "big")

# Versioned sonames only: an unversioned ``libcrypto.dylib`` aborts the
# process on macOS, and ``ctypes.util.find_library`` runs an ``ldconfig``
# subprocess (which a forked party must not do).
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib")


def _load_libcrypto(signatures=None):
    """OpenSSL's libcrypto with ``signatures`` (name -> ``(restype,
    argtypes)``; default the bignum calls :func:`_powmod` makes) typed,
    or ``None`` where this platform has no library with all of them."""
    if ctypes is None:
        return None
    ptr, num = ctypes.c_void_p, ctypes.c_int
    if signatures is None:
        signatures = {
            "BN_CTX_new": (ptr, []),
            "BN_CTX_free": (None, [ptr]),
            "BN_MONT_CTX_new": (ptr, []),
            "BN_MONT_CTX_set": (num, [ptr, ptr, ptr]),
            "BN_MONT_CTX_free": (None, [ptr]),
            "BN_new": (ptr, []),
            "BN_clear_free": (None, [ptr]),
            "BN_bin2bn": (ptr, [ctypes.c_char_p, num, ptr]),
            "BN_bn2binpad": (num, [ptr, ctypes.c_char_p, num]),
            "BN_mod_exp_mont_consttime": (num, [ptr] * 6),
        }
    for soname in _LIBCRYPTO_SONAMES:
        try:
            # A fresh handle per table: typing one table's calls never
            # retypes another's.
            lib = ctypes.CDLL(soname)
            for name, (restype, argtypes) in signatures.items():
                function = getattr(lib, name)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _load_libcrypto_aes():
    """libcrypto with the raw AES pair :func:`_kdf_chains` and
    :func:`_encrypt_under_tweaks` call typed, or ``None``.  A table of
    its own: a libcrypto built without the deprecated low-level AES API
    keeps :func:`_powmod` on libcrypto."""
    if ctypes is None:
        return None
    # No ``argtypes``: ctypes passes ``bytes`` as ``char *``, an int as
    # ``int`` and the schedule array by address without a per-argument
    # converter, which halves the cost of these sub-microsecond calls.
    return _load_libcrypto({
        "AES_set_encrypt_key": (ctypes.c_int, None),
        "AES_encrypt": (None, None),
    })


#: Loaded once per process, at import, so forked parties inherit them.
_LIBCRYPTO = _load_libcrypto()
_LIBCRYPTO_AES = _load_libcrypto_aes()

#: ``sizeof(AES_KEY)``: 60 round-key words and the round count, padded.
_AES_KEY_WORDS = 62


def _powmod(pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """``[pow(base, exponent, GROUP_P) for base, exponent in pairs]``
    for non-negative exponents.

    With libcrypto, each value is one ``BN_mod_exp_mont_consttime`` call
    (Montgomery arithmetic in constant time: every exponent here is a
    party secret), about 7x builtin ``pow`` on 256-bit exponents
    (DESIGN.md section 4).  The batch owns its ``BN_CTX`` and
    ``BN_MONT_CTX`` and frees them whatever happens, so concurrent
    batches share nothing, and ``ctypes`` releases the GIL during each
    call.  Without libcrypto it is builtin ``pow``.  A negative exponent
    raises ``ValueError`` on both paths (builtin ``pow`` would invert).
    """
    if any(exponent < 0 for _, exponent in pairs):
        raise ValueError("_powmod takes non-negative exponents only")
    lib = _LIBCRYPTO
    if lib is None or not pairs:
        return [pow(base, exponent, GROUP_P) for base, exponent in pairs]
    ctx, mont = lib.BN_CTX_new(), lib.BN_MONT_CTX_new()
    modulus, base_bn, exponent_bn, result_bn = (lib.BN_new() for _ in range(4))
    out = ctypes.create_string_buffer(_GROUP_BYTES)
    try:
        if not (
            all((ctx, mont, modulus, base_bn, exponent_bn, result_bn))
            and lib.BN_bin2bn(_P_BYTES, _GROUP_BYTES, modulus)
            and lib.BN_MONT_CTX_set(mont, modulus, ctx)
        ):
            raise MemoryError("libcrypto could not set up the batch")
        results = []
        for base, exponent in pairs:
            base_bytes = (base % GROUP_P).to_bytes(_GROUP_BYTES, "big")
            exponent_bytes = exponent.to_bytes((exponent.bit_length() + 7) >> 3, "big")
            if not (
                lib.BN_bin2bn(base_bytes, _GROUP_BYTES, base_bn)
                and lib.BN_bin2bn(exponent_bytes, len(exponent_bytes), exponent_bn)
                and lib.BN_mod_exp_mont_consttime(
                    result_bn, base_bn, exponent_bn, modulus, ctx, mont
                )
                and lib.BN_bn2binpad(result_bn, out, _GROUP_BYTES) == _GROUP_BYTES
            ):
                raise MemoryError("libcrypto could not exponentiate")
            results.append(int.from_bytes(out.raw, "big"))
        return results
    finally:
        for bignum in (modulus, base_bn, exponent_bn, result_bn):
            lib.BN_clear_free(bignum)
        lib.BN_MONT_CTX_free(mont)
        lib.BN_CTX_free(ctx)


def _kdf(point: int, tweak: int) -> int:
    """Derive a 128-bit pad from a group element via AES Davies-Meyer.

    Each limb's key is the previous digest, which never repeats, so it
    is expanded uncached.
    """
    digest = tweak & MASK_128
    value = point
    while value:
        block = value & MASK_128
        key = key_expansion_words(digest | 1)
        digest = encrypt_with_schedule(block ^ digest, key) ^ block
        value >>= 128
    return digest


def _kdf_chains(points: Sequence[int], tweaks: Sequence[int], lib) -> List[int]:
    """``[_kdf(point, tweak) ...]`` on libcrypto's raw AES: one
    ``AES_set_encrypt_key`` + ``AES_encrypt`` pair per limb.

    The call owns its key schedule and output buffer, so concurrent
    calls share nothing, and ``ctypes`` releases the GIL in each call.
    """
    schedule = (ctypes.c_uint32 * _AES_KEY_WORDS)()
    out = ctypes.create_string_buffer(16)
    set_key, encrypt = lib.AES_set_encrypt_key, lib.AES_encrypt
    pads = []
    for point, tweak in zip(points, tweaks):
        digest = tweak & MASK_128
        value = point
        while value:
            block = value & MASK_128
            if set_key((digest | 1).to_bytes(16, "big"), 128, schedule):
                raise RuntimeError("libcrypto refused an AES-128 key")
            encrypt((block ^ digest).to_bytes(16, "big"), out, schedule)
            digest = int.from_bytes(out.raw, "big") ^ block
            value >>= 128
        pads.append(digest)
    return pads


def _encrypt_under_tweaks(blocks, tweaks: Sequence[int], lib):
    """AES-128 of ``(n, 4)`` blocks, row ``i`` under key ``tweaks[i % k]``
    (``k = len(tweaks)``), on libcrypto's raw AES: one
    ``AES_set_encrypt_key`` per tweak, then one ``AES_encrypt`` per block
    under it, in place (``in == out`` is allowed).  Owns its buffers,
    like :func:`_kdf_chains`."""
    data = blocks_to_bytes(blocks)
    buf = (ctypes.c_char * len(data)).from_buffer_copy(data)
    schedule = (ctypes.c_uint32 * _AES_KEY_WORDS)()
    set_key, encrypt, byref = lib.AES_set_encrypt_key, lib.AES_encrypt, ctypes.byref
    stride = 16 * len(tweaks)
    for first, tweak in zip(range(0, stride, 16), tweaks):
        if set_key(tweak.to_bytes(16, "big"), 128, schedule):
            raise RuntimeError("libcrypto refused an AES-128 key")
        for at in range(first, len(data), stride):
            block = byref(buf, at)
            encrypt(block, block, schedule)
    return bytes_to_blocks(buf.raw)


# The batch at which the NumPy kernel overtakes libcrypto's raw AES, in
# pad KDF chains (six limb steps, 2.2 ms at 8 chains and 3.5 ms at 256,
# against ~15 us a libcrypto chain: won at 224, lost at 256) and in gate
# hash labels (~0.2 ms a call against ~1 us a label: crossovers at
# 192-256 and 256-384 labels).  Measured, DESIGN.md sections 4 and 7.
_KDF_BATCH_MIN = 256


def _kdf_batch(points: Sequence[int], tweaks: Sequence[int], backend) -> List[int]:
    """``[_kdf(point, tweak) ...]``: batches of at least
    :data:`_KDF_BATCH_MIN` chains run one limb of every chain per call
    of ``backend``'s block AES kernel, smaller ones
    :func:`_kdf_chains`; with no backend, or no libcrypto AES for a
    small batch, the scalar :func:`_kdf`.

    Rows carry their own limb count, so a point whose top limbs are zero
    stops exactly where the scalar ``while value:`` loop stops.
    """
    small = len(points) < _KDF_BATCH_MIN
    if backend is None or (small and _LIBCRYPTO_AES is None):
        return [_kdf(point, tweak) for point, tweak in zip(points, tweaks)]
    if small:
        return _kdf_chains(points, tweaks, _LIBCRYPTO_AES)
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
        (self.public,) = _powmod([(GROUP_G, self._a)])
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
        batch-constant pad factor ``(A^{-1})^a``."""
        if self._factor is None:
            (self._factor,) = _powmod([(self._a_inv, self._a)])

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
        for shared0 in _powmod([(point, self._a) for point in points]):
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
    choice).  It runs each step's exponentiations as one :func:`_powmod`
    batch and pads through :func:`_kdf_batch` on ``backend``; both
    paths draw the same PRG stream and compute the same group elements,
    so their transcripts are interchangeable.
    """

    prg: LabelPrg
    sender_public: Optional[int] = None
    backend: Optional[object] = None

    def choose(self, choice: int) -> Tuple[int, int]:
        """Return (point to send, secret exponent) for ``choice``.

        Needs the sender's ``A`` (``sender_public``); without it this
        raises ``ValueError`` before drawing the secret."""
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        if self.sender_public is None:
            raise ValueError("choose needs the sender's public point first")
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
        """Own-state step: the secrets and ``g^b`` for every choice bit."""
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
        self._powers = _powmod([(GROUP_G, secret) for secret in self.secrets])

    def points(self, sender_public: int) -> List[int]:
        """The points to send against the (range-checked) key ``A``."""
        self.sender_public = sender_public
        return [
            power * sender_public % GROUP_P if choice else power
            for power, choice in zip(self._powers, self.choices)
        ]

    def derive_pads(self, start_index: int = 0) -> None:
        """Own-state step, once the points are sent: ``KDF(A^b)`` for
        OTs ``start_index ..`` onwards."""
        tweaks = [
            2 * (start_index + offset) + choice
            for offset, choice in enumerate(self.choices)
        ]
        shareds = _powmod([(self.sender_public, secret) for secret in self.secrets])
        self._pads = _kdf_batch(shareds, tweaks, self.backend)

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
