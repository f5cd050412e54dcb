"""AES-128 as a Boolean circuit (secret key *and* secret plaintext).

Used by the Table 5 comparison against FASE, whose flagship benchmark is
garbling AES-128.  The circuit computes one AES-128 block encryption
where the Garbler holds the key and the Evaluator the plaintext -- the
classic "encrypted AES" MPC benchmark.

Construction notes:

* GF(2^8) multiplication is a schoolbook AND array (64 tables) with a
  free linear reduction; squaring is linear over GF(2) and therefore
  entirely free (XOR matrix derived from the field arithmetic in
  :mod:`repro.gc.aes`).
* The S-box inverts via the Itoh-Tsujii addition chain
  ``x^254 = (x^127)^2`` with ``x^127`` from four multiplications --
  roughly 256 AND gates per S-box.  (Optimised S-boxes, e.g.
  Boyar-Peralta, reach 32 ANDs; DESIGN.md §3 notes the inflation when
  comparing gate counts with prior work.)
* MixColumns, ShiftRows, the affine transform and round-key XORs are
  free (linear).
* The key schedule runs inside the circuit (the key is secret), adding
  four S-boxes per round.

Correctness is verified against :func:`repro.gc.aes.encrypt_block` in
the tests -- the software AES is ground truth for its own circuit.
"""

from __future__ import annotations

from typing import List, Sequence

from ...gc.aes import _gf_mul  # field arithmetic is shared with software AES
from ..builder import CircuitBuilder, stamped
from .logic import bitwise_xor

__all__ = ["build_aes128_circuit", "gf_mul_circuit", "gf_square_free", "sbox_circuit"]

_AES_POLY = 0x11B


def _reduce_poly(value: int) -> int:
    """Reduce a <15-degree GF(2) polynomial modulo the AES polynomial."""
    for degree in range(14, 7, -1):
        if value >> degree & 1:
            value ^= _AES_POLY << (degree - 8)
    return value


# x^k mod p(x) for k in [8, 15): the fold-back pattern of the reduction.
_FOLD: List[int] = [_reduce_poly(1 << k) for k in range(8, 15)]

# Squaring is linear: column j of the matrix is (x^j)^2 mod p.
_SQUARE_COLS: List[int] = [_gf_mul(1 << j, 1 << j) for j in range(8)]


def gf_mul_circuit(
    b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]
) -> List[int]:
    """GF(2^8) multiply: 64 AND partial products + free reduction."""
    if len(xs) != 8 or len(ys) != 8:
        raise ValueError("GF(2^8) operands are 8 bits")
    partial: List[List[int]] = [[] for _ in range(15)]
    for i in range(8):
        for j in range(8):
            partial[i + j].append(b.AND(xs[i], ys[j]))
    terms: List[List[int]] = [list(partial[k]) for k in range(8)]
    for k in range(8, 15):
        fold = _FOLD[k - 8]
        for bit in range(8):
            if fold >> bit & 1:
                terms[bit].extend(partial[k])
    out: List[int] = []
    for bit in range(8):
        acc = terms[bit][0]
        for wire in terms[bit][1:]:
            acc = b.XOR(acc, wire)
        out.append(acc)
    return out


def gf_square_free(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """GF(2^8) squaring: a free XOR network (linear over GF(2))."""
    if len(xs) != 8:
        raise ValueError("GF(2^8) operands are 8 bits")
    out: List[int] = []
    for bit in range(8):
        sources = [j for j in range(8) if _SQUARE_COLS[j] >> bit & 1]
        acc = xs[sources[0]]
        for j in sources[1:]:
            acc = b.XOR(acc, xs[j])
        out.append(acc)
    return out


def _gf_square_n(b: CircuitBuilder, xs: Sequence[int], n: int) -> List[int]:
    out = list(xs)
    for _ in range(n):
        out = gf_square_free(b, out)
    return out


def _gf_inverse_circuit(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """x^254 via Itoh-Tsujii: 4 multiplications, the rest squarings."""
    x2 = gf_square_free(b, xs)
    x3 = gf_mul_circuit(b, x2, xs)  # x^3
    x7 = gf_mul_circuit(b, gf_square_free(b, x3), xs)  # x^7
    x63 = gf_mul_circuit(b, _gf_square_n(b, x7, 3), x7)  # x^63
    x127 = gf_mul_circuit(b, gf_square_free(b, x63), xs)  # x^127
    return gf_square_free(b, x127)  # x^254 = inverse


@stamped
def sbox_circuit(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """The AES S-box: GF(2^8) inversion + free affine transform."""
    inv = _gf_inverse_circuit(b, xs)
    out: List[int] = []
    for bit in range(8):
        acc = inv[bit]
        for offset in (4, 5, 6, 7):
            acc = b.XOR(acc, inv[(bit + offset) % 8])
        if 0x63 >> bit & 1:
            acc = b.NOT(acc)
        out.append(acc)
    return out


def _xtime(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Multiply by x (0x02): shift + conditional fold, all free."""
    result: List[int] = []
    for bit in range(8):
        wire = xs[bit - 1] if bit else None
        fold = xs[7] if (_AES_POLY >> bit) & 1 else None
        if wire is None and fold is None:
            result.append(b.const_zero())
        elif wire is None:
            result.append(fold)
        elif fold is None:
            result.append(wire)
        else:
            result.append(b.XOR(wire, fold))
    return result


def _mix_single_column(
    b: CircuitBuilder, column: List[List[int]]
) -> List[List[int]]:
    """MixColumns on one 4-byte column -- fully linear, free."""
    a0, a1, a2, a3 = column
    x0 = _xtime(b, a0)
    x1 = _xtime(b, a1)
    x2 = _xtime(b, a2)
    x3 = _xtime(b, a3)

    def xor3(p: List[int], q: List[int], r: List[int]) -> List[int]:
        return bitwise_xor(b, bitwise_xor(b, p, q), r)

    # 2a0 + 3a1 + a2 + a3  (3a = 2a xor a)
    out0 = xor3(bitwise_xor(b, x0, x1), a1, bitwise_xor(b, a2, a3))
    out1 = xor3(bitwise_xor(b, x1, x2), a2, bitwise_xor(b, a0, a3))
    out2 = xor3(bitwise_xor(b, x2, x3), a3, bitwise_xor(b, a0, a1))
    out3 = xor3(bitwise_xor(b, x3, x0), a0, bitwise_xor(b, a1, a2))
    return [out0, out1, out2, out3]


_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def build_aes128_circuit(b: CircuitBuilder | None = None):
    """Build the AES-128 encryption circuit.

    Returns ``(circuit, n_gates)`` -- the Garbler provides the 128-bit
    key, the Evaluator the 128-bit plaintext; the output is the 128-bit
    ciphertext.  Bytes are wired big-endian-per-byte, bit 0 = lsb, byte
    order matching :func:`repro.gc.aes.encrypt_block`'s big-endian block
    integers (byte 0 is the most significant).
    """
    builder = b or CircuitBuilder()
    key_bits = builder.add_garbler_inputs(128)
    pt_bits = builder.add_evaluator_inputs(128)

    def byte(bits: List[int], index: int) -> List[int]:
        # Byte ``index`` of the big-endian block (byte 0 most significant)
        # as an lsb-first wire list; ``bits`` is lsb-first overall.
        return bits[128 - 8 * (index + 1) : 128 - 8 * index]

    # Internal representation: state[i] = byte i (0 = most significant
    # byte of the block = row 0 / col 0 in FIPS order), each an
    # lsb-first list of 8 wires.
    key_state = [byte(key_bits, i) for i in range(16)]
    state = [byte(pt_bits, i) for i in range(16)]

    def add_round_key(state, round_key):
        return [bitwise_xor(builder, s, k) for s, k in zip(state, round_key)]

    def next_round_key(prev, round_index):
        # words are byte quadruples [w0..w3]; w[i] = bytes 4i..4i+3.
        words = [prev[4 * i : 4 * i + 4] for i in range(4)]
        rotated = words[3][1:] + words[3][:1]
        subbed = [sbox_circuit(builder, byte_bits) for byte_bits in rotated]
        rcon = _RCON[round_index]
        first = []
        for bit in range(8):
            wire = builder.XOR(words[0][0][bit], subbed[0][bit])
            if rcon >> bit & 1:
                wire = builder.NOT(wire)
            first.append(wire)
        new_w0 = [first] + [
            bitwise_xor(builder, words[0][k], subbed[k]) for k in (1, 2, 3)
        ]
        new_words = [new_w0]
        for i in range(1, 4):
            new_words.append(
                [
                    bitwise_xor(builder, new_words[i - 1][k], words[i][k])
                    for k in range(4)
                ]
            )
        return [b for word in new_words for b in word]

    def sub_bytes(state):
        return [sbox_circuit(builder, s) for s in state]

    def shift_rows(state):
        # FIPS state: byte index = 4*col + row; shift row r left by r.
        out = [None] * 16
        for col in range(4):
            for row in range(4):
                out[4 * col + row] = state[4 * ((col + row) % 4) + row]
        return out

    def mix_columns(state):
        out = []
        for col in range(4):
            column = [state[4 * col + row] for row in range(4)]
            out.extend(_mix_single_column(builder, column))
        return out

    round_key = key_state
    state = add_round_key(state, round_key)
    for round_index in range(9):
        state = sub_bytes(state)
        state = shift_rows(state)
        state = mix_columns(state)
        round_key = next_round_key(round_key, round_index)
        state = add_round_key(state, round_key)
    state = sub_bytes(state)
    state = shift_rows(state)
    round_key = next_round_key(round_key, 9)
    state = add_round_key(state, round_key)

    # Emit outputs as a big-endian 128-bit block, lsb-first overall:
    # bit i of the output integer is output[i].
    out_bits: List[int] = [0] * 128
    for index in range(16):
        for bit in range(8):
            out_bits[128 - 8 * (index + 1) + bit] = state[index][bit]
    builder.mark_outputs(out_bits)
    circuit = builder.build("aes128")
    return circuit
