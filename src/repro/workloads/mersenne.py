"""Mersenne Twister (VIP-Bench ``Merse``).

A parameterised MT19937-style generator evaluated as a Boolean circuit:
the Garbler supplies the secret seed state, the circuit performs the
twist transformation and tempering, and outputs ``n_outputs`` tempered
words.  The twist/temper pipeline is XOR and shift heavy, which is why
the paper's Table 2 shows the lowest AND share of the integer workloads
(27 %).

Parameters follow MT19937 (w=32, a=0x9908B0DF, tempering u/s/t/l and
masks) with a configurable state size ``state_n`` and middle offset
``state_m`` so scaled-down instances stay faithful in structure.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.integer import decode_int, encode_int
from ..circuits.stdlib.logic import (
    bitwise_and,
    bitwise_xor,
    shift_left_const,
    shift_right_const,
)
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD", "MT_WIDTH"]

MT_WIDTH = 32
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000  # most significant bit
_LOWER_MASK = 0x7FFFFFFF
_TEMPER_B = 0x9D2C5680
_TEMPER_C = 0xEFC60000


def _const_mask(builder: CircuitBuilder, mask: int) -> List[int]:
    return builder.const_bits(mask, MT_WIDTH)


def _twist_word(
    builder: CircuitBuilder,
    current: Sequence[int],
    next_word: Sequence[int],
    middle: Sequence[int],
) -> List[int]:
    """One twist: y = (cur & UPPER) | (next & LOWER); out = mid ^ (y >> 1) ^ (y0 ? A : 0)."""
    upper = bitwise_and(builder, current, _const_mask(builder, _UPPER_MASK))
    lower = bitwise_and(builder, next_word, _const_mask(builder, _LOWER_MASK))
    # The masks are disjoint, so OR == XOR (free).
    y = bitwise_xor(builder, upper, lower)
    y_shifted = shift_right_const(builder, y, 1)
    # mag01: conditionally XOR the matrix constant when lsb(y) == 1.  The
    # constant is public, so each set bit just fans out lsb(y) -- free.
    lsb_y = y[0]
    mag = [
        lsb_y if (_MATRIX_A >> i) & 1 else builder.const_zero()
        for i in range(MT_WIDTH)
    ]
    out = bitwise_xor(builder, middle, y_shifted)
    return bitwise_xor(builder, out, mag)


def _temper(builder: CircuitBuilder, word: Sequence[int]) -> List[int]:
    """MT19937 tempering: y ^= y>>11; y ^= (y<<7)&B; y ^= (y<<15)&C; y ^= y>>18."""
    y = list(word)
    y = bitwise_xor(builder, y, shift_right_const(builder, y, 11))
    y = bitwise_xor(
        builder,
        y,
        bitwise_and(
            builder, shift_left_const(builder, y, 7), _const_mask(builder, _TEMPER_B)
        ),
    )
    y = bitwise_xor(
        builder,
        y,
        bitwise_and(
            builder, shift_left_const(builder, y, 15), _const_mask(builder, _TEMPER_C)
        ),
    )
    y = bitwise_xor(builder, y, shift_right_const(builder, y, 18))
    return y


def build(
    state_n: int = 16, state_m: int = 8, n_outputs: int = 16
) -> BuiltWorkload:
    """Build the Mersenne-Twister circuit.

    ``state_n`` seed words are Garbler inputs; the circuit twists
    ``n_outputs`` times (wrapping over the state ring) and tempers each
    twisted word into an output.  MT19937 itself is ``state_n=624,
    state_m=397``.
    """
    if not 0 < state_m < state_n:
        raise ValueError("need 0 < state_m < state_n")
    builder = CircuitBuilder()
    state: List[List[int]] = [
        builder.add_garbler_inputs(MT_WIDTH) for _ in range(state_n)
    ]
    # One evaluator bit keeps the workload two-party: it is XORed into the
    # msb of the first state word (Bob salts the stream; the msb is what
    # the first twist's upper-mask actually consumes).
    salt = builder.add_evaluator_inputs(1)[0]
    state[0] = list(state[0][:-1]) + [builder.XOR(state[0][-1], salt)]

    outputs: List[List[int]] = []
    for step in range(n_outputs):
        i = step % state_n
        twisted = _twist_word(
            builder,
            state[i],
            state[(i + 1) % state_n],
            state[(i + state_m) % state_n],
        )
        state[i] = twisted
        outputs.append(_temper(builder, twisted))

    for word in outputs:
        builder.mark_outputs(word)
    circuit = builder.build(f"mersenne_n{state_n}_m{state_m}_o{n_outputs}")

    def encode_inputs(
        seed_words: Sequence[int], salt_bit: int = 0
    ) -> Tuple[List[int], List[int]]:
        if len(seed_words) != state_n:
            raise ValueError(f"expected {state_n} seed words")
        garbler: List[int] = []
        for word in seed_words:
            garbler.extend(encode_int(word, MT_WIDTH))
        return garbler, [salt_bit & 1]

    def ref(seed_words: Sequence[int], salt_bit: int = 0) -> List[int]:
        words = reference(seed_words, salt_bit, state_n, state_m, n_outputs)
        bits: List[int] = []
        for word in words:
            bits.extend(encode_int(word, MT_WIDTH))
        return bits

    def decode_outputs(bits: Sequence[int]) -> List[int]:
        return [
            decode_int(bits[i * MT_WIDTH : (i + 1) * MT_WIDTH])
            for i in range(n_outputs)
        ]

    return BuiltWorkload(
        name="Merse",
        circuit=circuit,
        params={"state_n": state_n, "state_m": state_m, "n_outputs": n_outputs},
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(
    seed_words: Sequence[int],
    salt_bit: int = 0,
    state_n: int = 16,
    state_m: int = 8,
    n_outputs: int = 16,
) -> List[int]:
    """Plaintext twist + temper matching the circuit exactly."""
    mask = (1 << MT_WIDTH) - 1
    state = [w & mask for w in seed_words]
    state[0] ^= (salt_bit & 1) << (MT_WIDTH - 1)
    outputs = []
    for step in range(n_outputs):
        i = step % state_n
        y = (state[i] & _UPPER_MASK) | (state[(i + 1) % state_n] & _LOWER_MASK)
        value = state[(i + state_m) % state_n] ^ (y >> 1)
        if y & 1:
            value ^= _MATRIX_A
        state[i] = value
        y = value
        y ^= y >> 11
        y ^= (y << 7) & _TEMPER_B & mask
        y ^= (y << 15) & _TEMPER_C & mask
        y ^= y >> 18
        outputs.append(y & mask)
    return outputs


def plaintext_ops(state_n: int, state_m: int, n_outputs: int) -> int:
    """~10 word ops per twist+temper."""
    return 10 * n_outputs


WORKLOAD = Workload(
    name="Merse",
    description="Mersenne-Twister twist + temper pipeline",
    build=build,
    scaled_params={"state_n": 16, "state_m": 8, "n_outputs": 16},
    paper_params={"state_n": 624, "state_m": 397, "n_outputs": 624},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=1764, wires_k=1444, gates_k=1444, and_pct=27.15, ilp=818,
        spent_wire_pct=98.49,
    ),
    character="complex",
)
