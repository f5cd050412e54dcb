"""AES-128 implemented from scratch.

HAAC's gate engines evaluate Half-Gates whose cryptographic hash is built
from AES (the paper's Figure 2 shows two key expansions and four AES calls
per garbled AND gate).  The paper's hardware implements full AES rounds in
custom logic; this module is the software equivalent and is used both by
the garbling substrate (:mod:`repro.gc.halfgate`) and, indirectly, by the
functional HAAC machine to validate compiler output.

Two implementations are provided and cross-checked by the test suite:

* :func:`encrypt_block_reference` -- a textbook FIPS-197 implementation
  (SubBytes / ShiftRows / MixColumns / AddRoundKey on a 4x4 state) that is
  easy to audit against the standard.
* :func:`encrypt_block` -- a T-table implementation that fuses SubBytes,
  ShiftRows and MixColumns into four 256-entry lookup tables.  This is the
  fast path used by the garbler/evaluator.

Blocks and keys are 128-bit Python integers (big-endian interpretation of
the 16-byte block), which keeps label XOR operations cheap elsewhere in
the code base.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

__all__ = [
    "S_BOX",
    "INV_S_BOX",
    "expand_key",
    "encrypt_block",
    "encrypt_with_schedule",
    "encrypt_block_reference",
    "decrypt_block",
    "aes128",
    "key_expansion_words",
]

# ---------------------------------------------------------------------------
# S-box construction.
#
# Rather than hard-coding the 256 S-box bytes we derive them from first
# principles (multiplicative inverse in GF(2^8) followed by the affine
# transform), mirroring how the paper's HLS hardware instantiates S-box
# ROMs.  The result is verified against FIPS-197 vectors in the tests.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    product = 0
    for _ in range(8):
        if b & 1:
            product ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return product


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); 0 maps to 0 by AES convention."""
    if a == 0:
        return 0
    # Fermat: a^(2^8 - 2) = a^254 is the inverse in GF(2^8).
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, base)
        base = _gf_mul(base, base)
        exponent >>= 1
    return result


def _affine(byte: int) -> int:
    """The AES affine transform applied after inversion."""
    result = 0
    for bit in range(8):
        value = (
            (byte >> bit)
            ^ (byte >> ((bit + 4) % 8))
            ^ (byte >> ((bit + 5) % 8))
            ^ (byte >> ((bit + 6) % 8))
            ^ (byte >> ((bit + 7) % 8))
            ^ (0x63 >> bit)
        ) & 1
        result |= value << bit
    return result


def _build_sbox() -> List[int]:
    return [_affine(_gf_inverse(value)) for value in range(256)]


S_BOX: List[int] = _build_sbox()
INV_S_BOX: List[int] = [0] * 256
for _index, _value in enumerate(S_BOX):
    INV_S_BOX[_value] = _index

# Round constants for key expansion: rcon[i] = x^(i-1) in GF(2^8).
_RCON: List[int] = [0x01]
while len(_RCON) < 10:
    _RCON.append(_gf_mul(_RCON[-1], 0x02))


# ---------------------------------------------------------------------------
# T-tables: Te0..Te3 fuse SubBytes + MixColumns (ShiftRows is realised by
# the byte-selection pattern in the round loop).
# ---------------------------------------------------------------------------


def _build_t_tables() -> List[List[int]]:
    te0 = []
    for value in range(256):
        s = S_BOX[value]
        s2 = _gf_mul(s, 2)
        s3 = s2 ^ s
        te0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
    te1 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in te0]
    te2 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in te1]
    te3 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in te2]
    return [te0, te1, te2, te3]


_TE0, _TE1, _TE2, _TE3 = _build_t_tables()


# ---------------------------------------------------------------------------
# Key expansion.
# ---------------------------------------------------------------------------


def key_expansion_words(key: int) -> List[int]:
    """Expand a 128-bit key into the 44 32-bit round-key words of AES-128.

    This is the "key expansion" block the paper highlights as a major cost
    of re-keyed garbling: it runs once per hash in re-keying mode (HAAC)
    versus once per program in fixed-key mode.
    """
    if not 0 <= key < (1 << 128):
        raise ValueError("AES-128 key must be a 128-bit non-negative integer")
    words = [(key >> (96 - 32 * i)) & 0xFFFFFFFF for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            # RotWord then SubWord then Rcon.
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
            temp = (
                (S_BOX[(temp >> 24) & 0xFF] << 24)
                | (S_BOX[(temp >> 16) & 0xFF] << 16)
                | (S_BOX[(temp >> 8) & 0xFF] << 8)
                | S_BOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


@lru_cache(maxsize=4096)
def expand_key(key: int) -> tuple:
    """Cached key expansion returning an immutable word tuple.

    The cache models nothing architectural -- it simply avoids recomputing
    schedules for repeated keys (e.g. fixed-key mode or repeated gate
    indices in tests).  Re-keyed garbling of a large circuit uses a fresh
    gate index per hash, so the cache is sized generously but the cost
    model (see :mod:`repro.baselines.cpu_model`) still charges a full
    expansion per hash as the paper does.
    """
    return tuple(key_expansion_words(key))


# ---------------------------------------------------------------------------
# Block encryption.
# ---------------------------------------------------------------------------


def _block_to_columns(block: int) -> List[int]:
    """Split a 128-bit block into four big-endian 32-bit column words."""
    return [(block >> (96 - 32 * i)) & 0xFFFFFFFF for i in range(4)]


def _columns_to_block(columns: Sequence[int]) -> int:
    return (columns[0] << 96) | (columns[1] << 64) | (columns[2] << 32) | columns[3]


def encrypt_block(block: int, key: int) -> int:
    """Encrypt one 128-bit block with AES-128 (T-table fast path)."""
    return encrypt_with_schedule(block, expand_key(key))


def encrypt_with_schedule(block: int, words: Sequence[int]) -> int:
    """:func:`encrypt_block` under an expanded key (44 round-key words).

    For keys used once: expanding one with :func:`key_expansion_words`
    and encrypting here keeps it out of :func:`expand_key`'s cache.
    """
    c0, c1, c2, c3 = _block_to_columns(block)
    c0 ^= words[0]
    c1 ^= words[1]
    c2 ^= words[2]
    c3 ^= words[3]
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    for round_index in range(1, 10):
        base = 4 * round_index
        n0 = (
            te0[(c0 >> 24) & 0xFF]
            ^ te1[(c1 >> 16) & 0xFF]
            ^ te2[(c2 >> 8) & 0xFF]
            ^ te3[c3 & 0xFF]
            ^ words[base]
        )
        n1 = (
            te0[(c1 >> 24) & 0xFF]
            ^ te1[(c2 >> 16) & 0xFF]
            ^ te2[(c3 >> 8) & 0xFF]
            ^ te3[c0 & 0xFF]
            ^ words[base + 1]
        )
        n2 = (
            te0[(c2 >> 24) & 0xFF]
            ^ te1[(c3 >> 16) & 0xFF]
            ^ te2[(c0 >> 8) & 0xFF]
            ^ te3[c1 & 0xFF]
            ^ words[base + 2]
        )
        n3 = (
            te0[(c3 >> 24) & 0xFF]
            ^ te1[(c0 >> 16) & 0xFF]
            ^ te2[(c1 >> 8) & 0xFF]
            ^ te3[c2 & 0xFF]
            ^ words[base + 3]
        )
        c0, c1, c2, c3 = n0, n1, n2, n3
    # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    sbox = S_BOX
    f0 = (
        (sbox[(c0 >> 24) & 0xFF] << 24)
        | (sbox[(c1 >> 16) & 0xFF] << 16)
        | (sbox[(c2 >> 8) & 0xFF] << 8)
        | sbox[c3 & 0xFF]
    ) ^ words[40]
    f1 = (
        (sbox[(c1 >> 24) & 0xFF] << 24)
        | (sbox[(c2 >> 16) & 0xFF] << 16)
        | (sbox[(c3 >> 8) & 0xFF] << 8)
        | sbox[c0 & 0xFF]
    ) ^ words[41]
    f2 = (
        (sbox[(c2 >> 24) & 0xFF] << 24)
        | (sbox[(c3 >> 16) & 0xFF] << 16)
        | (sbox[(c0 >> 8) & 0xFF] << 8)
        | sbox[c1 & 0xFF]
    ) ^ words[42]
    f3 = (
        (sbox[(c3 >> 24) & 0xFF] << 24)
        | (sbox[(c0 >> 16) & 0xFF] << 16)
        | (sbox[(c1 >> 8) & 0xFF] << 8)
        | sbox[c2 & 0xFF]
    ) ^ words[43]
    return _columns_to_block([f0, f1, f2, f3])


def aes128(block: int, key: int) -> int:
    """Alias for :func:`encrypt_block` matching the paper's notation."""
    return encrypt_block(block, key)


# ---------------------------------------------------------------------------
# Reference (state-matrix) implementation, used to cross-check the T-table
# path.  Also provides decryption for completeness of the substrate.
# ---------------------------------------------------------------------------


def _block_to_state(block: int) -> List[List[int]]:
    """FIPS-197 column-major state: state[row][col]."""
    data = block.to_bytes(16, "big")
    return [[data[row + 4 * col] for col in range(4)] for row in range(4)]


def _state_to_block(state: List[List[int]]) -> int:
    data = bytes(state[row][col] for col in range(4) for row in range(4))
    return int.from_bytes(data, "big")


def _add_round_key(state: List[List[int]], words: Sequence[int], round_index: int) -> None:
    for col in range(4):
        word = words[4 * round_index + col]
        for row in range(4):
            state[row][col] ^= (word >> (24 - 8 * row)) & 0xFF


def _sub_bytes(state: List[List[int]], box: Sequence[int]) -> None:
    for row in range(4):
        for col in range(4):
            state[row][col] = box[state[row][col]]


def _shift_rows(state: List[List[int]]) -> None:
    for row in range(1, 4):
        state[row] = state[row][row:] + state[row][:row]


def _inv_shift_rows(state: List[List[int]]) -> None:
    for row in range(1, 4):
        state[row] = state[row][-row:] + state[row][:-row]


def _mix_columns(state: List[List[int]]) -> None:
    for col in range(4):
        a = [state[row][col] for row in range(4)]
        state[0][col] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
        state[1][col] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
        state[2][col] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
        state[3][col] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


def _inv_mix_columns(state: List[List[int]]) -> None:
    for col in range(4):
        a = [state[row][col] for row in range(4)]
        state[0][col] = _gf_mul(a[0], 14) ^ _gf_mul(a[1], 11) ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9)
        state[1][col] = _gf_mul(a[0], 9) ^ _gf_mul(a[1], 14) ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13)
        state[2][col] = _gf_mul(a[0], 13) ^ _gf_mul(a[1], 9) ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11)
        state[3][col] = _gf_mul(a[0], 11) ^ _gf_mul(a[1], 13) ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14)


def encrypt_block_reference(block: int, key: int) -> int:
    """Textbook AES-128 encryption, used to validate the T-table path."""
    words = key_expansion_words(key)
    state = _block_to_state(block)
    _add_round_key(state, words, 0)
    for round_index in range(1, 10):
        _sub_bytes(state, S_BOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, words, round_index)
    _sub_bytes(state, S_BOX)
    _shift_rows(state)
    _add_round_key(state, words, 10)
    return _state_to_block(state)


def decrypt_block(block: int, key: int) -> int:
    """AES-128 decryption (inverse cipher)."""
    words = key_expansion_words(key)
    state = _block_to_state(block)
    _add_round_key(state, words, 10)
    for round_index in range(9, 0, -1):
        _inv_shift_rows(state)
        _sub_bytes(state, INV_S_BOX)
        _add_round_key(state, words, round_index)
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    _sub_bytes(state, INV_S_BOX)
    _add_round_key(state, words, 0)
    return _state_to_block(state)
