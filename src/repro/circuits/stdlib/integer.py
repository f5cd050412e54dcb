"""Integer arithmetic circuits (little-endian bit-vectors).

These use the GC-optimised constructions the paper's EMP frontend uses:

* full adder with **one** AND gate:  ``s = a xor b xor c``,
  ``c' = c xor ((a xor c) and (b xor c))`` -- so n-bit addition costs nT;
* subtraction as add-with-inverted-operand and carry-in 1;
* comparison via the sign of a subtraction;
* multiplication as the schoolbook AND-array plus an adder tree.

All results are little-endian wire lists.  Widths follow two's-complement
conventions; helpers to encode/decode plaintext integers live next to
each workload's reference implementation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..builder import CircuitBuilder, stamped
from .logic import mux, shift_left_const

__all__ = [
    "full_adder",
    "add",
    "add_with_carry",
    "kogge_stone_add",
    "sub",
    "negate",
    "increment",
    "less_than",
    "less_than_signed",
    "greater_than",
    "min_max",
    "mul",
    "mul_full",
    "square",
    "abs_value",
    "divmod_unsigned",
    "encode_int",
    "decode_int",
    "decode_signed",
]


def full_adder(b: CircuitBuilder, a: int, x: int, carry: int) -> Tuple[int, int]:
    """One-bit full adder costing a single garbled table.

    Returns (sum, carry_out) using the standard GC trick:
    ``carry_out = majority(a, x, carry) = carry xor ((a xor carry) and
    (x xor carry))``.
    """
    axc = b.XOR(a, carry)
    xxc = b.XOR(x, carry)
    total = b.XOR(axc, x)
    carry_out = b.XOR(carry, b.AND(axc, xxc))
    return total, carry_out


def add_with_carry(
    b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int], carry_in: int
) -> Tuple[List[int], int]:
    """Ripple-carry addition; returns (sum bits, carry out).  nT."""
    if len(xs) != len(ys):
        raise ValueError("addition operands must have equal width")
    carry = carry_in
    out: List[int] = []
    for a, y in zip(xs, ys):
        total, carry = full_adder(b, a, y, carry)
        out.append(total)
    return out, carry


def add(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """Modular (wrap-around) addition, width-preserving.  (n-1)T.

    The final carry is dropped, so the last bit needs only XORs.
    """
    if len(xs) != len(ys):
        raise ValueError("addition operands must have equal width")
    if not xs:
        return []
    carry = b.const_zero()
    out: List[int] = []
    for index, (a, y) in enumerate(zip(xs, ys)):
        if index == len(xs) - 1:
            out.append(b.XOR(b.XOR(a, y), carry))
        else:
            total, carry = full_adder(b, a, y, carry)
            out.append(total)
    return out


def kogge_stone_add(
    b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]
) -> List[int]:
    """Kogge-Stone (parallel-prefix) addition: O(log n) depth.

    The ripple adder of :func:`add` costs one table per bit but has
    depth n; Kogge-Stone spends ~2n*log2(n) tables to reach depth
    O(log n).  On HAAC this is a genuine trade: more Half-Gate work but
    far more ILP for the GEs -- the adder-style ablation benchmark
    quantifies it.

    The prefix combine on (generate, propagate) pairs is
    ``(g, p) o (g', p') = (g xor (p and g'), p and p')``; the XOR is
    legal because ``g`` and ``p`` are mutually exclusive.
    """
    if len(xs) != len(ys):
        raise ValueError("addition operands must have equal width")
    width = len(xs)
    if width == 0:
        return []
    generate = [b.AND(x, y) for x, y in zip(xs, ys)]
    propagate = [b.XOR(x, y) for x, y in zip(xs, ys)]
    prefix_g = list(generate)
    prefix_p = list(propagate)
    distance = 1
    while distance < width:
        next_g = list(prefix_g)
        next_p = list(prefix_p)
        for i in range(distance, width):
            next_g[i] = b.XOR(
                prefix_g[i], b.AND(prefix_p[i], prefix_g[i - distance])
            )
            next_p[i] = b.AND(prefix_p[i], prefix_p[i - distance])
        prefix_g, prefix_p = next_g, next_p
        distance *= 2
    # carry into bit i is prefix_g[i-1]; sum = p xor carry_in.
    out = [propagate[0]]
    for i in range(1, width):
        out.append(b.XOR(propagate[i], prefix_g[i - 1]))
    return out


def sub(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """Modular subtraction ``xs - ys`` via two's complement.  (n-1)T."""
    if len(xs) != len(ys):
        raise ValueError("subtraction operands must have equal width")
    if not xs:
        return []
    carry = b.const_one()
    out: List[int] = []
    for index, (a, y) in enumerate(zip(xs, ys)):
        ny = b.NOT(y)
        if index == len(xs) - 1:
            out.append(b.XOR(b.XOR(a, ny), carry))
        else:
            total, carry = full_adder(b, a, ny, carry)
            out.append(total)
    return out


def negate(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Two's-complement negation: NOT then +1.  (n-1)T."""
    zero = [b.const_zero()] * len(xs)
    return sub(b, zero, xs)


def increment(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Add one (ripple of half-adders), (n-1)T worst case."""
    carry = b.const_one()
    out: List[int] = []
    for index, a in enumerate(xs):
        if index == len(xs) - 1:
            out.append(b.XOR(a, carry))
        else:
            out.append(b.XOR(a, carry))
            carry = b.AND(a, carry)
    return out


def _borrow_out(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Carry-out of xs + NOT(ys) + 1; equals NOT(borrow) of xs - ys."""
    carry = b.const_one()
    for a, y in zip(xs, ys):
        ny = b.NOT(y)
        axc = b.XOR(a, carry)
        yxc = b.XOR(ny, carry)
        carry = b.XOR(carry, b.AND(axc, yxc))
    return carry


def less_than(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Unsigned ``xs < ys``: the borrow of the subtraction.  nT."""
    if len(xs) != len(ys):
        raise ValueError("comparison operands must have equal width")
    return b.NOT(_borrow_out(b, xs, ys))


def less_than_signed(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Signed ``xs < ys``: flip both sign bits then compare unsigned."""
    if len(xs) != len(ys):
        raise ValueError("comparison operands must have equal width")
    if not xs:
        raise ValueError("comparison needs at least one bit")
    fx = list(xs[:-1]) + [b.NOT(xs[-1])]
    fy = list(ys[:-1]) + [b.NOT(ys[-1])]
    return less_than(b, fx, fy)


def greater_than(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Unsigned ``xs > ys``."""
    return less_than(b, ys, xs)


def min_max(
    b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int], signed: bool = False
) -> Tuple[List[int], List[int]]:
    """Compare-exchange returning (min, max) -- the Bubble-Sort kernel.

    Costs n (compare) + 2n (two muxes) tables.
    """
    swap = less_than_signed(b, ys, xs) if signed else less_than(b, ys, xs)
    lo = mux(b, swap, xs, ys)
    hi = mux(b, swap, ys, xs)
    return lo, hi


def mul_full(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """Schoolbook multiply returning the full 2n-bit (or n+m) product.

    n*m T for the partial-product AND array plus ~n*m T for the adds.
    """
    if not xs or not ys:
        raise ValueError("multiplication needs non-empty operands")
    width = len(xs) + len(ys)
    zero = b.const_zero()
    acc: List[int] = [zero] * width
    for i, y_bit in enumerate(ys):
        partial = [b.AND(x, y_bit) for x in xs]
        padded = [zero] * i + partial + [zero] * (width - i - len(xs))
        acc = add(b, acc, padded)
    return acc


@stamped
def mul(b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
    """Width-preserving (modular) multiply: low n bits of the product.

    Partial products above bit n-1 are discarded before adding, saving
    roughly half the adder tables relative to :func:`mul_full`.
    """
    if len(xs) != len(ys):
        raise ValueError("mul operands must have equal width")
    width = len(xs)
    zero = b.const_zero()
    acc: List[int] = [zero] * width
    for i, y_bit in enumerate(ys):
        partial = [b.AND(xs[j], y_bit) for j in range(width - i)]
        acc = add(b, acc, shift_left_const(b, partial + [zero] * i, i))
    return acc


def square(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Full-width square (2n bits)."""
    return mul_full(b, xs, xs)


def abs_value(b: CircuitBuilder, xs: Sequence[int]) -> List[int]:
    """Two's-complement absolute value: mux(sign, x, -x)."""
    return mux(b, xs[-1], xs, negate(b, xs))


def divmod_unsigned(
    b: CircuitBuilder, xs: Sequence[int], ys: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Restoring division: returns (quotient, remainder), both n bits.

    Classic bit-serial restoring division: ~2n^2 tables in an n^2-deep
    dependence chain -- the deepest primitive in the stdlib, useful for
    stressing HAAC's low-ILP behaviour.  Division by zero yields
    quotient of all ones and remainder = dividend (the hardware
    convention of the non-restoring units EMP wraps).
    """
    if len(xs) != len(ys):
        raise ValueError("division operands must have equal width")
    width = len(xs)
    zero = b.const_zero()
    remainder: List[int] = [zero] * width
    quotient: List[int] = [zero] * width
    for i in range(width - 1, -1, -1):
        # remainder = (remainder << 1) | dividend_bit_i
        remainder = [xs[i]] + remainder[:-1]
        # Trial subtract; keep it if it does not borrow.
        fits = b.NOT(less_than(b, remainder, ys))
        trial = sub(b, remainder, ys)
        remainder = mux(b, fits, remainder, trial)
        quotient[i] = fits
    # Divide-by-zero: fits is never set for ys == 0... actually with
    # ys == 0 every trial "fits" (remainder >= 0 always), giving
    # quotient all-ones and remainder = remainder - 0 = dividend bits,
    # which matches the documented convention without extra gates.
    return quotient, remainder


# ---------------------------------------------------------------------------
# Plaintext encode/decode helpers (used by workloads, tests, examples)
# ---------------------------------------------------------------------------


def encode_int(value: int, width: int) -> List[int]:
    """Two's-complement little-endian bits of ``value``."""
    if width <= 0:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    value &= mask
    return [(value >> i) & 1 for i in range(width)]


def decode_int(bits: Sequence[int]) -> int:
    """Unsigned value of little-endian bits."""
    return sum(bit << i for i, bit in enumerate(bits))


def decode_signed(bits: Sequence[int]) -> int:
    """Two's-complement value of little-endian bits."""
    value = decode_int(bits)
    if bits and bits[-1]:
        value -= 1 << len(bits)
    return value
