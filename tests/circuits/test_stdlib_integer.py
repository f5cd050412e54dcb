"""Integer arithmetic circuits vs Python integer semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import OP_AND
from repro.circuits.stdlib.integer import (
    abs_value,
    add,
    add_with_carry,
    decode_int,
    decode_signed,
    encode_int,
    full_adder,
    greater_than,
    increment,
    less_than,
    less_than_signed,
    min_max,
    mul,
    mul_full,
    negate,
    square,
    sub,
)

_W = 8
_VALS = st.integers(0, (1 << _W) - 1)


def _binary_op(build_fn, a, b, width=_W):
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(width)
    ys = builder.add_evaluator_inputs(width)
    builder.mark_outputs(build_fn(builder, xs, ys))
    circuit = builder.build()
    return circuit.eval_plain(encode_int(a, width), encode_int(b, width))


def _unary_op(build_fn, a, width=_W):
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(width)
    builder.mark_outputs(build_fn(builder, xs))
    circuit = builder.build()
    return circuit.eval_plain(encode_int(a, width), [])


class TestFullAdder:
    def test_single_table(self):
        """The GC full adder must cost exactly one AND gate."""
        builder = CircuitBuilder()
        a, x, c = builder.add_garbler_inputs(3)
        full_adder(builder, a, x, c)
        assert builder._op.count(OP_AND) == 1

    def test_truth_table(self):
        builder = CircuitBuilder()
        a, x, c = builder.add_garbler_inputs(3)
        s, cout = full_adder(builder, a, x, c)
        builder.mark_outputs([s, cout])
        circuit = builder.build()
        for va in (0, 1):
            for vx in (0, 1):
                for vc in (0, 1):
                    total = va + vx + vc
                    assert circuit.eval_plain([va, vx, vc], []) == [
                        total & 1,
                        total >> 1,
                    ]


class TestAddSub:
    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_add(self, a, b):
        got = decode_int(_binary_op(add, a, b))
        assert got == (a + b) % 256

    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_sub(self, a, b):
        got = decode_int(_binary_op(sub, a, b))
        assert got == (a - b) % 256

    @settings(max_examples=20, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_add_with_carry_out(self, a, b):
        def build(builder, xs, ys):
            bits, carry = add_with_carry(builder, xs, ys, builder.const_zero())
            return bits + [carry]

        out = _binary_op(build, a, b)
        assert decode_int(out) == a + b  # 9 bits: exact sum

    def test_add_width_mismatch(self):
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(4)
        with pytest.raises(ValueError):
            add(builder, xs[:2], xs[:3])


class TestUnary:
    @settings(max_examples=30, deadline=None)
    @given(a=_VALS)
    def test_negate(self, a):
        assert decode_int(_unary_op(negate, a)) == (-a) % 256

    @settings(max_examples=30, deadline=None)
    @given(a=_VALS)
    def test_increment(self, a):
        assert decode_int(_unary_op(increment, a)) == (a + 1) % 256

    @settings(max_examples=30, deadline=None)
    @given(a=_VALS)
    def test_abs(self, a):
        signed = a - 256 if a & 0x80 else a
        expected = abs(signed) % 256
        assert decode_int(_unary_op(abs_value, a)) == expected

    @settings(max_examples=20, deadline=None)
    @given(a=_VALS)
    def test_square(self, a):
        assert decode_int(_unary_op(square, a)) == a * a


class TestCompare:
    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_unsigned(self, a, b):
        def build(builder, xs, ys):
            return [less_than(builder, xs, ys), greater_than(builder, xs, ys)]

        got = _binary_op(build, a, b)
        assert got == [int(a < b), int(a > b)]

    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_signed(self, a, b):
        def build(builder, xs, ys):
            return [less_than_signed(builder, xs, ys)]

        sa = a - 256 if a & 0x80 else a
        sb = b - 256 if b & 0x80 else b
        assert _binary_op(build, a, b) == [int(sa < sb)]

    @settings(max_examples=30, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_min_max(self, a, b):
        def build(builder, xs, ys):
            lo, hi = min_max(builder, xs, ys)
            return lo + hi

        out = _binary_op(build, a, b)
        assert decode_int(out[:8]) == min(a, b)
        assert decode_int(out[8:]) == max(a, b)

    @settings(max_examples=20, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_min_max_signed(self, a, b):
        def build(builder, xs, ys):
            lo, hi = min_max(builder, xs, ys, signed=True)
            return lo + hi

        out = _binary_op(build, a, b)
        sa = a - 256 if a & 0x80 else a
        sb = b - 256 if b & 0x80 else b
        assert decode_signed(out[:8]) == min(sa, sb)
        assert decode_signed(out[8:]) == max(sa, sb)


class TestMul:
    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_mul_modular(self, a, b):
        assert decode_int(_binary_op(mul, a, b)) == (a * b) % 256

    @settings(max_examples=40, deadline=None)
    @given(a=_VALS, b=_VALS)
    def test_mul_full(self, a, b):
        assert decode_int(_binary_op(mul_full, a, b)) == a * b

    def test_mul_width_mismatch(self):
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(6)
        with pytest.raises(ValueError):
            mul(builder, xs[:2], xs[:4])


class TestEncodeDecode:
    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(-128, 127))
    def test_signed_roundtrip(self, a):
        assert decode_signed(encode_int(a, 8)) == a

    @settings(max_examples=30, deadline=None)
    @given(a=_VALS)
    def test_unsigned_roundtrip(self, a):
        assert decode_int(encode_int(a, 8)) == a

    def test_bad_width(self):
        with pytest.raises(ValueError):
            encode_int(1, 0)
