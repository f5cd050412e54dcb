"""Floating-point circuits (parameterised IEEE-754-style formats).

The paper's Linear-Regression / Gradient-Descent workload is "implemented
with true floating point arithmetic" and is the slowest benchmark
precisely because FP adders/multipliers explode into Boolean logic.  This
module provides those circuits for any (exponent, mantissa) split --
:data:`FP16`, :data:`FP32` and a compact :data:`FP8` for tests.

Semantics (simplified but *fully specified*, and mirrored bit-exactly by
the plaintext reference functions so tests can compare circuit output
against the reference):

* normal numbers only: value = (-1)^s * 1.m * 2^(e - bias) for e != 0;
* e == 0 encodes exactly zero (denormals flush to zero);
* truncation (round toward zero) with three guard bits on the adder;
* exponent underflow flushes to zero, overflow saturates to the maximum
  exponent (no Inf/NaN -- the top exponent is an ordinary value here).

Layout: little-endian ``[mantissa (m bits), exponent (e bits), sign]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..builder import CircuitBuilder, stamped
from .integer import add, add_with_carry, decode_int, less_than, sub
from .logic import is_zero, mux, mux_bit

__all__ = [
    "FloatFormat",
    "FP8",
    "FP16",
    "FP32",
    "fp_unpack",
    "fp_pack",
    "fp_neg",
    "fp_add",
    "fp_sub",
    "fp_mul",
    "fp_relu",
    "barrel_shift_right",
    "barrel_shift_left",
    "leading_zero_count",
]

_GUARD_BITS = 3


@dataclass(frozen=True)
class FloatFormat:
    """A sign / exponent / mantissa split with encode/decode helpers."""

    exponent_bits: int
    mantissa_bits: int
    name: str = "fp"

    @property
    def width(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        return (1 << self.exponent_bits) - 1

    # -- plaintext encode/decode ---------------------------------------

    def encode(self, value: float) -> int:
        """Encode a Python float into this format's bit pattern."""
        if value == 0.0 or math.isnan(value):
            return 0
        sign = 1 if value < 0 else 0
        magnitude = abs(value)
        if math.isinf(magnitude):
            return (sign << (self.width - 1)) | self._max_finite_pattern()
        mantissa, exponent = math.frexp(magnitude)  # mantissa in [0.5, 1)
        # Convert to 1.m form: 1.0 <= m2 < 2.0 with exponent e2.
        e_unbiased = exponent - 1
        e_field = e_unbiased + self.bias
        if e_field <= 0:
            return 0  # underflow flushes to zero
        if e_field > self.max_exponent:
            return (sign << (self.width - 1)) | self._max_finite_pattern()
        m2 = mantissa * 2.0  # in [1, 2)
        frac = int((m2 - 1.0) * (1 << self.mantissa_bits))  # truncate
        frac = min(frac, (1 << self.mantissa_bits) - 1)
        return (
            (sign << (self.width - 1))
            | (e_field << self.mantissa_bits)
            | frac
        )

    def _max_finite_pattern(self) -> int:
        return (self.max_exponent << self.mantissa_bits) | (
            (1 << self.mantissa_bits) - 1
        )

    def decode(self, pattern: int) -> float:
        """Decode a bit pattern into a Python float."""
        sign = (pattern >> (self.width - 1)) & 1
        e_field = (pattern >> self.mantissa_bits) & ((1 << self.exponent_bits) - 1)
        frac = pattern & ((1 << self.mantissa_bits) - 1)
        if e_field == 0:
            return -0.0 if sign else 0.0
        significand = 1.0 + frac / (1 << self.mantissa_bits)
        value = significand * 2.0 ** (e_field - self.bias)
        return -value if sign else value

    def encode_bits(self, value: float) -> List[int]:
        """Little-endian bit list of :meth:`encode`."""
        pattern = self.encode(value)
        return [(pattern >> i) & 1 for i in range(self.width)]

    def decode_bits(self, bits: Sequence[int]) -> float:
        if len(bits) != self.width:
            raise ValueError(f"{self.name} expects {self.width} bits, got {len(bits)}")
        return self.decode(decode_int(bits))

    # -- bit-exact reference semantics (mirrors the circuits) -----------

    def _fields(self, pattern: int) -> Tuple[int, int, int]:
        sign = (pattern >> (self.width - 1)) & 1
        e_field = (pattern >> self.mantissa_bits) & ((1 << self.exponent_bits) - 1)
        frac = pattern & ((1 << self.mantissa_bits) - 1)
        return sign, e_field, frac

    def _pack(self, sign: int, e_field: int, frac: int) -> int:
        return (sign << (self.width - 1)) | (e_field << self.mantissa_bits) | frac

    def ref_add(self, a: int, b: int) -> int:
        """Bit-exact reference for :func:`fp_add` on encoded patterns."""
        m = self.mantissa_bits
        sa, ea, fa = self._fields(a)
        sb, eb, fb = self._fields(b)
        mag_a = (ea << m) | (fa if ea else 0)
        mag_b = (eb << m) | (fb if eb else 0)
        if mag_a < mag_b:
            (sa, ea, fa, sb, eb, fb) = (sb, eb, fb, sa, ea, fa)
            mag_a, mag_b = mag_b, mag_a
        sig_big = ((1 << m) | fa) if ea else 0
        sig_small = ((1 << m) | fb) if eb else 0
        big_ext = sig_big << _GUARD_BITS
        diff = ea - eb if eb else 0
        width = m + 1 + _GUARD_BITS
        small_ext = (sig_small << _GUARD_BITS) >> diff if diff < width else 0
        if sa == sb:
            raw = big_ext + small_ext
        else:
            raw = big_ext - small_ext
        if raw == 0:
            return 0
        # Normalise: leading one to position m + GUARD.
        target = m + _GUARD_BITS
        position = raw.bit_length() - 1
        exponent = ea + (position - target)
        if position > target:
            raw >>= position - target
        else:
            raw <<= target - position
        if exponent <= 0:
            return 0
        if exponent > self.max_exponent:
            return self._pack(sa, self.max_exponent, (1 << m) - 1)
        frac = (raw >> _GUARD_BITS) & ((1 << m) - 1)
        return self._pack(sa, exponent, frac)

    def ref_sub(self, a: int, b: int) -> int:
        return self.ref_add(a, b ^ (1 << (self.width - 1)))

    def ref_mul(self, a: int, b: int) -> int:
        """Bit-exact reference for :func:`fp_mul` on encoded patterns."""
        m = self.mantissa_bits
        sa, ea, fa = self._fields(a)
        sb, eb, fb = self._fields(b)
        sign = sa ^ sb
        if ea == 0 or eb == 0:
            return 0
        product = ((1 << m) | fa) * ((1 << m) | fb)  # 2m+2 bits, in [2^2m, 2^(2m+2))
        top = (product >> (2 * m + 1)) & 1
        if top:
            frac = (product >> (m + 1)) & ((1 << m) - 1)
        else:
            frac = (product >> m) & ((1 << m) - 1)
        exponent = ea + eb - self.bias + top
        if exponent <= 0:
            return 0
        if exponent > self.max_exponent:
            return self._pack(sign, self.max_exponent, (1 << m) - 1)
        return self._pack(sign, exponent, frac)


FP8 = FloatFormat(exponent_bits=4, mantissa_bits=3, name="fp8")
FP16 = FloatFormat(exponent_bits=5, mantissa_bits=10, name="fp16")
FP32 = FloatFormat(exponent_bits=8, mantissa_bits=23, name="fp32")


# ---------------------------------------------------------------------------
# Wire-level helpers
# ---------------------------------------------------------------------------


def fp_unpack(
    fmt: FloatFormat, bits: Sequence[int]
) -> Tuple[List[int], List[int], int]:
    """Split a float bit-vector into (mantissa, exponent, sign)."""
    if len(bits) != fmt.width:
        raise ValueError(f"{fmt.name} expects {fmt.width} bits, got {len(bits)}")
    mantissa = list(bits[: fmt.mantissa_bits])
    exponent = list(bits[fmt.mantissa_bits : fmt.mantissa_bits + fmt.exponent_bits])
    sign = bits[-1]
    return mantissa, exponent, sign


def fp_pack(
    fmt: FloatFormat, mantissa: Sequence[int], exponent: Sequence[int], sign: int
) -> List[int]:
    if len(mantissa) != fmt.mantissa_bits or len(exponent) != fmt.exponent_bits:
        raise ValueError("field widths do not match the format")
    return list(mantissa) + list(exponent) + [sign]


def fp_neg(b: CircuitBuilder, fmt: FloatFormat, xs: Sequence[int]) -> List[int]:
    """Negation: flip the sign bit (free).  Note -0 is still 0 on decode."""
    mantissa, exponent, sign = fp_unpack(fmt, xs)
    return fp_pack(fmt, mantissa, exponent, b.NOT(sign))


def fp_relu(b: CircuitBuilder, fmt: FloatFormat, xs: Sequence[int]) -> List[int]:
    """ReLU: zero everything when the sign bit is set.

    This is the paper's ReLU kernel: one INV level plus one AND level
    (Table 2 reports depth 2 and ~97 % AND gates).
    """
    not_negative = b.NOT(xs[-1])
    return [b.AND(bit, not_negative) for bit in xs[:-1]] + [b.const_zero()]


def barrel_shift_right(
    b: CircuitBuilder, xs: Sequence[int], amount: Sequence[int]
) -> List[int]:
    """Variable logical right shift; flushes to zero when amount >= width.

    log2 mux stages, each width T.
    """
    width = len(xs)
    result = list(xs)
    zero = b.const_zero()
    stages = max(1, (width - 1).bit_length())
    for stage in range(min(stages, len(amount))):
        step = 1 << stage
        shifted = list(result[step:]) + [zero] * min(step, width)
        shifted = shifted[:width]
        result = mux(b, amount[stage], result, shifted)
    # Any higher-order shift bit flushes the result to zero.
    for bit in amount[stages:]:
        keep = b.NOT(bit)
        result = [b.AND(r, keep) for r in result]
    return result


def barrel_shift_left(
    b: CircuitBuilder, xs: Sequence[int], amount: Sequence[int]
) -> List[int]:
    """Variable logical left shift; flushes to zero when amount >= width."""
    width = len(xs)
    result = list(xs)
    zero = b.const_zero()
    stages = max(1, (width - 1).bit_length())
    for stage in range(min(stages, len(amount))):
        step = 1 << stage
        shifted = ([zero] * min(step, width) + list(result))[:width]
        result = mux(b, amount[stage], result, shifted)
    for bit in amount[stages:]:
        keep = b.NOT(bit)
        result = [b.AND(r, keep) for r in result]
    return result


def leading_zero_count(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Count of leading (most-significant) zeros of a bit-vector.

    Builds one-hot "first one is here" indicators with a prefix-OR chain,
    then encodes the count.  Because indicators are mutually exclusive the
    encoding is free (XOR trees).  Returns ceil(log2(n+1)) bits.
    """
    width = len(xs)
    if width == 0:
        raise ValueError("leading_zero_count needs at least one bit")
    # Enough bits to represent the maximum count, `width` (all-zero input).
    out_bits = width.bit_length()

    seen_one = b.const_zero()
    indicators: List[Tuple[int, int]] = []  # (leading-zero count value, wire)
    for position in range(width - 1, -1, -1):
        bit = xs[position]
        here = b.AND(bit, b.NOT(seen_one))
        indicators.append((width - 1 - position, here))
        seen_one = b.OR(seen_one, bit)
    all_zero = b.NOT(seen_one)
    indicators.append((width, all_zero))

    result: List[int] = []
    for out_bit in range(out_bits):
        terms = [wire for value, wire in indicators if (value >> out_bit) & 1]
        if not terms:
            result.append(b.const_zero())
        else:
            acc = terms[0]
            for term in terms[1:]:
                acc = b.XOR(acc, term)  # indicators are one-hot: XOR == OR
            result.append(acc)
    return result


# ---------------------------------------------------------------------------
# Addition
# ---------------------------------------------------------------------------


@stamped
def fp_add(
    b: CircuitBuilder, fmt: FloatFormat, a_bits: Sequence[int], b_bits: Sequence[int]
) -> List[int]:
    """Floating-point addition matching :meth:`FloatFormat.ref_add` bit-exactly."""
    m = fmt.mantissa_bits
    e = fmt.exponent_bits
    man_a, exp_a, sign_a = fp_unpack(fmt, a_bits)
    man_b, exp_b, sign_b = fp_unpack(fmt, b_bits)

    a_nonzero = b.NOT(is_zero(b, exp_a))
    b_nonzero = b.NOT(is_zero(b, exp_b))
    # Zero operands must compare as magnitude 0: mask their mantissas.
    mag_a = [b.AND(bit, a_nonzero) for bit in man_a] + list(exp_a)
    mag_b = [b.AND(bit, b_nonzero) for bit in man_b] + list(exp_b)

    a_smaller = less_than(b, mag_a, mag_b)
    exp_big = mux(b, a_smaller, exp_a, exp_b)
    exp_small = mux(b, a_smaller, exp_b, exp_a)
    man_big = mux(b, a_smaller, man_a, man_b)
    man_small = mux(b, a_smaller, man_b, man_a)
    sign_big = mux_bit(b, a_smaller, sign_a, sign_b)
    sign_small = mux_bit(b, a_smaller, sign_b, sign_a)
    big_nonzero = mux_bit(b, a_smaller, a_nonzero, b_nonzero)
    small_nonzero = mux_bit(b, a_smaller, b_nonzero, a_nonzero)

    # Extended significands: [guard*3, mantissa, implicit].
    zero = b.const_zero()
    sig_big = (
        [zero] * _GUARD_BITS
        + [b.AND(bit, big_nonzero) for bit in man_big]
        + [big_nonzero]
    )
    sig_small_raw = (
        [zero] * _GUARD_BITS
        + [b.AND(bit, small_nonzero) for bit in man_small]
        + [small_nonzero]
    )

    # Align: shift the small significand right by the exponent difference.
    # If small is zero its significand is zero anyway, so the garbage
    # difference exp_big - 0 is harmless.
    diff = sub(b, exp_big, exp_small)
    sig_small = barrel_shift_right(b, sig_small_raw, diff)

    # Add or subtract significands depending on sign agreement.
    same_sign = b.XNOR(sign_big, sign_small)
    sum_bits, carry = add_with_carry(b, sig_big, sig_small, zero)
    sum_ext = sum_bits + [carry]
    diff_bits = sub(b, sig_big, sig_small)
    diff_ext = diff_bits + [zero]
    raw = mux(b, same_sign, diff_ext, sum_ext)  # width W+1 = m+5

    # Normalise: leading one should land at position m + GUARD.
    width_raw = len(raw)  # m + 5
    lzc = leading_zero_count(b, raw)
    shifted = barrel_shift_left(b, raw, lzc)
    # After the shift the leading one (if any) is at width_raw-1 = m+4.
    # Final mantissa: bits [GUARD+1 .. GUARD+m] of shifted (dropping the
    # implicit at m+4 and one extra guard position).
    mantissa_out = shifted[_GUARD_BITS + 1 : _GUARD_BITS + 1 + m]

    # Exponent: exp_big + 1 - lzc  (computed in e+2-bit signed arithmetic;
    # the +1 accounts for the raw leading-one home being m+4, one above
    # the input significand's m+3).
    ext = e + 2
    exp_big_ext = list(exp_big) + [zero, zero]
    lzc_ext = list(lzc) + [zero] * (ext - len(lzc))
    one_ext = [b.const_one()] + [zero] * (ext - 1)
    exp_raw = add(b, exp_big_ext, one_ext)
    exp_raw = sub(b, exp_raw, lzc_ext[:ext])

    # Flush / saturate.
    result_nonzero_sig = b.NOT(is_zero(b, raw))
    exp_negative_or_zero = b.OR(exp_raw[-1], is_zero(b, exp_raw))
    max_exp_ext = [b.const_one()] * e + [zero, zero]
    overflow = less_than(b, max_exp_ext, exp_raw)  # exp_raw > max (unsigned;
    # sign bit clear when not negative, so unsigned compare is safe here)
    overflow = b.AND(overflow, b.NOT(exp_raw[-1]))

    exp_out = mux(b, overflow, exp_raw[:e], [b.const_one()] * e)
    man_out = mux(b, overflow, mantissa_out, [b.const_one()] * m)

    produce = b.AND(result_nonzero_sig, b.NOT(exp_negative_or_zero))
    exp_final = [b.AND(bit, produce) for bit in exp_out]
    man_final = [b.AND(bit, produce) for bit in man_out]
    sign_final = b.AND(sign_big, produce)
    return fp_pack(fmt, man_final, exp_final, sign_final)


def fp_sub(
    b: CircuitBuilder, fmt: FloatFormat, a_bits: Sequence[int], b_bits: Sequence[int]
) -> List[int]:
    """a - b as a + (-b); the sign flip is free."""
    return fp_add(b, fmt, a_bits, fp_neg(b, fmt, b_bits))


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


@stamped
def fp_mul(
    b: CircuitBuilder, fmt: FloatFormat, a_bits: Sequence[int], b_bits: Sequence[int]
) -> List[int]:
    """Floating-point multiply matching :meth:`FloatFormat.ref_mul` bit-exactly."""
    from .integer import mul_full

    m = fmt.mantissa_bits
    e = fmt.exponent_bits
    man_a, exp_a, sign_a = fp_unpack(fmt, a_bits)
    man_b, exp_b, sign_b = fp_unpack(fmt, b_bits)

    a_nonzero = b.NOT(is_zero(b, exp_a))
    b_nonzero = b.NOT(is_zero(b, exp_b))
    both_nonzero = b.AND(a_nonzero, b_nonzero)
    sign_out = b.XOR(sign_a, sign_b)
    zero = b.const_zero()
    one = b.const_one()

    sig_a = list(man_a) + [one]  # implicit leading 1 (zero handled at the end)
    sig_b = list(man_b) + [one]
    product = mul_full(b, sig_a, sig_b)  # 2m+2 bits
    top = product[2 * m + 1]
    frac_hi = product[m + 1 : 2 * m + 1]
    frac_lo = product[m : 2 * m]
    mantissa_out = mux(b, top, frac_lo, frac_hi)

    # exponent = ea + eb - bias + top, in e+2-bit signed arithmetic.
    ext = e + 2
    exp_a_ext = list(exp_a) + [zero, zero]
    exp_b_ext = list(exp_b) + [zero, zero]
    bias_ext = [one if (fmt.bias >> i) & 1 else zero for i in range(ext)]
    top_ext = [top] + [zero] * (ext - 1)
    exp_raw = add(b, exp_a_ext, exp_b_ext)
    exp_raw = sub(b, exp_raw, bias_ext)
    exp_raw = add(b, exp_raw, top_ext)

    exp_negative_or_zero = b.OR(exp_raw[-1], is_zero(b, exp_raw))
    max_exp_ext = [one] * e + [zero, zero]
    overflow = b.AND(less_than(b, max_exp_ext, exp_raw), b.NOT(exp_raw[-1]))

    exp_out = mux(b, overflow, exp_raw[:e], [one] * e)
    man_out = mux(b, overflow, mantissa_out, [one] * m)

    produce = b.AND(both_nonzero, b.NOT(exp_negative_or_zero))
    exp_final = [b.AND(bit, produce) for bit in exp_out]
    man_final = [b.AND(bit, produce) for bit in man_out]
    sign_final = b.AND(sign_out, produce)
    return fp_pack(fmt, man_final, exp_final, sign_final)
