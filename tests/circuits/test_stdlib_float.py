"""Floating-point circuits: bit-exact vs reference, approximate vs Python."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.float import (
    FP8,
    FP16,
    FP32,
    FloatFormat,
    barrel_shift_left,
    barrel_shift_right,
    fp_add,
    fp_mul,
    fp_neg,
    fp_relu,
    fp_sub,
    leading_zero_count,
)
from repro.circuits.stdlib.integer import decode_int, encode_int

_FLOATS = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _circuit_binop(fmt: FloatFormat, op):
    builder = CircuitBuilder()
    a = builder.add_garbler_inputs(fmt.width)
    b = builder.add_evaluator_inputs(fmt.width)
    builder.mark_outputs(op(builder, fmt, a, b))
    return builder.build()


def _bits(pattern: int, width: int):
    return [(pattern >> i) & 1 for i in range(width)]


class TestEncodeDecode:
    @pytest.mark.parametrize("fmt", [FP8, FP16, FP32])
    def test_zero(self, fmt):
        assert fmt.encode(0.0) == 0
        assert fmt.decode(0) == 0.0

    @pytest.mark.parametrize("fmt", [FP16, FP32])
    @pytest.mark.parametrize("value", [1.0, -1.0, 0.5, 2.0, 1.5, -3.25, 100.0])
    def test_exact_values_roundtrip(self, fmt, value):
        assert fmt.decode(fmt.encode(value)) == value

    @settings(max_examples=40, deadline=None)
    @given(value=_FLOATS)
    def test_fp32_roundtrip_close(self, value):
        decoded = FP32.decode(FP32.encode(value))
        if value == 0 or abs(value) < 1e-35:  # flush-to-zero region
            assert abs(decoded) <= abs(value)
        else:
            assert abs(decoded - value) <= abs(value) * 2**-22

    def test_overflow_saturates(self):
        assert FP8.decode(FP8.encode(1e30)) == FP8.decode(FP8._max_finite_pattern())

    def test_underflow_flushes(self):
        assert FP16.encode(1e-30) == 0

    def test_nan_encodes_to_zero(self):
        assert FP16.encode(float("nan")) == 0

    def test_bias_and_width(self):
        assert FP32.bias == 127
        assert FP32.width == 32
        assert FP16.bias == 15
        assert FP16.width == 16


class TestBitExactVsReference:
    """The circuits must match FloatFormat.ref_* pattern-for-pattern."""

    @pytest.mark.parametrize("fmt", [FP8, FP16])
    @settings(max_examples=60, deadline=None)
    @given(a=_FLOATS, b=_FLOATS)
    def test_add(self, fmt, a, b):
        circuit = _circuit_binop(fmt, fp_add)
        pa, pb = fmt.encode(a), fmt.encode(b)
        out = circuit.eval_plain(_bits(pa, fmt.width), _bits(pb, fmt.width))
        assert decode_int(out) == fmt.ref_add(pa, pb)

    @pytest.mark.parametrize("fmt", [FP8, FP16])
    @settings(max_examples=60, deadline=None)
    @given(a=_FLOATS, b=_FLOATS)
    def test_mul(self, fmt, a, b):
        circuit = _circuit_binop(fmt, fp_mul)
        pa, pb = fmt.encode(a), fmt.encode(b)
        out = circuit.eval_plain(_bits(pa, fmt.width), _bits(pb, fmt.width))
        assert decode_int(out) == fmt.ref_mul(pa, pb)

    @settings(max_examples=20, deadline=None)
    @given(a=_FLOATS, b=_FLOATS)
    def test_sub(self, a, b):
        fmt = FP16
        circuit = _circuit_binop(fmt, fp_sub)
        pa, pb = fmt.encode(a), fmt.encode(b)
        out = circuit.eval_plain(_bits(pa, fmt.width), _bits(pb, fmt.width))
        assert decode_int(out) == fmt.ref_sub(pa, pb)

    def test_fp32_spot_checks(self):
        fmt = FP32
        circuit = _circuit_binop(fmt, fp_add)
        for a, b in [(1.0, 2.0), (-1.5, 1.5), (0.0, 3.25), (1e30, 1e30), (1.0, -3.0)]:
            pa, pb = fmt.encode(a), fmt.encode(b)
            out = circuit.eval_plain(_bits(pa, fmt.width), _bits(pb, fmt.width))
            assert decode_int(out) == fmt.ref_add(pa, pb)


class TestNumericalAccuracy:
    @settings(max_examples=40, deadline=None)
    @given(a=_FLOATS, b=_FLOATS)
    def test_ref_add_close_to_python(self, a, b):
        fmt = FP16
        got = fmt.decode(fmt.ref_add(fmt.encode(a), fmt.encode(b)))
        expected = fmt.decode(fmt.encode(a)) + fmt.decode(fmt.encode(b))
        if abs(expected) < 1e-3:
            assert abs(got) < 0.1
        else:
            assert got == pytest.approx(expected, rel=2**-8)

    @settings(max_examples=40, deadline=None)
    @given(a=_FLOATS, b=_FLOATS)
    def test_ref_mul_close_to_python(self, a, b):
        fmt = FP16
        got = fmt.decode(fmt.ref_mul(fmt.encode(a), fmt.encode(b)))
        expected = fmt.decode(fmt.encode(a)) * fmt.decode(fmt.encode(b))
        if abs(expected) < 1e-3 or abs(expected) > 60000:
            return  # flush/saturate region
        assert got == pytest.approx(expected, rel=2**-8)


def ref_relu(fmt, a: int) -> int:
    """ReLU of an encoded float: zero when the sign bit is set."""
    sign = (a >> (fmt.width - 1)) & 1
    return 0 if sign else a


class TestReluNeg:
    @settings(max_examples=30, deadline=None)
    @given(a=_FLOATS)
    def test_relu(self, a):
        fmt = FP16
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(fmt.width)
        builder.mark_outputs(fp_relu(builder, fmt, xs))
        circuit = builder.build()
        pa = fmt.encode(a)
        out = circuit.eval_plain(_bits(pa, fmt.width), [])
        assert decode_int(out) == ref_relu(fmt, pa)

    def test_relu_depth_two(self):
        fmt = FP16
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(fmt.width)
        builder.mark_outputs(fp_relu(builder, fmt, xs))
        circuit = builder.build()
        # INV level + AND level (the const-zero XOR is also level 1).
        assert circuit.depth() <= 2

    @settings(max_examples=20, deadline=None)
    @given(a=_FLOATS)
    def test_neg_flips_sign(self, a):
        fmt = FP16
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(fmt.width)
        builder.mark_outputs(fp_neg(builder, fmt, xs))
        circuit = builder.build()
        pa = fmt.encode(a)
        out = decode_int(circuit.eval_plain(_bits(pa, fmt.width), []))
        assert fmt.decode(out) == -fmt.decode(pa) or (
            fmt.decode(pa) == 0 and fmt.decode(out) == 0
        )


class TestShifterLzc:
    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 2**12 - 1), amount=st.integers(0, 15))
    def test_barrel_right(self, value, amount):
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(12)
        amt = builder.add_evaluator_inputs(4)
        builder.mark_outputs(barrel_shift_right(builder, xs, amt))
        circuit = builder.build()
        out = circuit.eval_plain(encode_int(value, 12), encode_int(amount, 4))
        assert decode_int(out) == (value >> amount if amount < 12 else 0)

    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 2**12 - 1), amount=st.integers(0, 15))
    def test_barrel_left(self, value, amount):
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(12)
        amt = builder.add_evaluator_inputs(4)
        builder.mark_outputs(barrel_shift_left(builder, xs, amt))
        circuit = builder.build()
        out = circuit.eval_plain(encode_int(value, 12), encode_int(amount, 4))
        expected = (value << amount) & 0xFFF if amount < 12 else 0
        assert decode_int(out) == expected

    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 2**10 - 1))
    def test_lzc(self, value):
        width = 10
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(width)
        builder.mark_outputs(leading_zero_count(builder, xs))
        circuit = builder.build()
        out = decode_int(circuit.eval_plain(encode_int(value, width), []))
        expected = width - value.bit_length()
        assert out == expected
