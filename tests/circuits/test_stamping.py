"""Stamped combinators against their plain bodies, column for column.

Every ``@stamped`` combinator is called through the stamp path and, on a
second builder running the same script, through ``fn.__wrapped__`` (the
plain body).  The two netlists must be identical: same gates, same wire
ids, same returned wires.
"""

from __future__ import annotations

import pytest

from repro.circuits.builder import CircuitBuilder, stamped
from repro.circuits.netlist import CircuitError
from repro.circuits.stdlib.aes_circuit import sbox_circuit
from repro.circuits.stdlib.float import FP16, FP32, FloatFormat, fp_add, fp_mul
from repro.circuits.stdlib.integer import mul

TINY = FloatFormat(exponent_bits=2, mantissa_bits=1, name="fp4")


def _twin(script, *fns):
    """Run ``script(builder, call)`` once stamped and once plain; return
    both builders.  ``call(fn, *args)`` marks every returned wire as an
    output, so returned wires are compared too."""
    builders = []
    for plain in (False, True):
        builder = CircuitBuilder()

        def call(fn, *args, builder=builder, plain=plain):
            assert fn in fns
            wires = (fn.__wrapped__ if plain else fn)(builder, *args)
            builder.mark_outputs(wires)
            return wires

        script(builder, call)
        builders.append(builder)
    return builders


def _columns(builder: CircuitBuilder):
    circuit = builder.build()
    return (
        bytes(circuit.op), circuit.a.tobytes(), circuit.b.tobytes(),
        circuit.out.tobytes(), circuit.outputs, circuit.n_inputs,
    )


def _assert_twin(script, *fns):
    stamped_builder, plain_builder = _twin(script, *fns)
    assert _columns(stamped_builder) == _columns(plain_builder)
    return stamped_builder


@pytest.mark.parametrize("width", range(1, 21))
def test_mul_every_width(width):
    def script(b, call):
        x = b.add_garbler_inputs(width)
        y = b.add_evaluator_inputs(width)
        call(mul, x, y)  # creates const_zero: not recorded
        call(mul, x, y)  # records
        b.XOR(x[0], y[-1])
        call(mul, y, x)
        call(mul, x, x)  # aliased arguments
        b.AND(x[-1], y[0])
        call(mul, y, y)
        call(mul, x, y[::-1])

    stamped_builder = _assert_twin(script, mul)
    assert stamped_builder._stamps  # the later calls really were stamped


@pytest.mark.parametrize("width", [1, 2, 5, 8, 16])
def test_mul_with_constant_wires(width):
    def script(b, call):
        x = b.add_garbler_inputs(width)
        y = b.add_evaluator_inputs(width)
        zero, one = b.const_zero(), b.const_one()
        call(mul, x, y)
        call(mul, [zero] + x[1:], y)
        call(mul, [one] * width, y)
        call(mul, x, [zero] * width)
        call(mul, [one] + x[1:], [zero] + y[1:])
        call(mul, [zero] + x[1:], y)
        call(mul, x, [one] * width)

    _assert_twin(script, mul)


def test_mul_aliasing_in_either_order():
    # A template recorded on distinct operands must not serve an aliased
    # call, nor the other way round.
    def script(b, call):
        x = b.add_garbler_inputs(6)
        y = b.add_evaluator_inputs(6)
        b.const_zero()
        call(mul, x, y)
        call(mul, x, x)
        call(mul, y, y)
        call(mul, x, y)
        call(mul, x, x[:3] + y[3:])
        call(mul, x, y[:3] + x[3:])

    _assert_twin(script, mul)


@pytest.mark.parametrize("fmt", [FP16, FP32, TINY], ids=lambda f: f.name)
@pytest.mark.parametrize("fn", [fp_add, fp_mul], ids=lambda f: f.__name__)
def test_float_formats(fn, fmt):
    def script(b, call):
        x = b.add_garbler_inputs(fmt.width)
        y = b.add_evaluator_inputs(fmt.width)
        first = call(fn, fmt, x, y)
        call(fn, fmt, x, y)
        b.XOR(x[0], y[0])
        call(fn, fmt, first, y)
        call(fn, fmt, y, y)
        b.NOT(first[-1])
        call(fn, fmt, x, [b.const_one()] + first[1:])
        call(fn, fmt, first, x)

    _assert_twin(script, fn)


def test_float_mixes_formats_and_combinators():
    def script(b, call):
        x = b.add_garbler_inputs(FP32.width)
        y = b.add_evaluator_inputs(FP32.width)
        x16, y16 = x[: FP16.width], y[: FP16.width]
        for _ in range(2):
            call(fp_mul, FP16, x16, y16)
            call(fp_add, FP32, x, y)
            call(fp_add, FP16, x16, y16)
            call(fp_mul, FP32, y, x)

    _assert_twin(script, fp_add, fp_mul)


def test_sbox_before_and_after_constants():
    def script(b, call):
        x = b.add_garbler_inputs(8)
        y = b.add_evaluator_inputs(8)
        call(sbox_circuit, x)  # neither constant exists yet
        out = call(sbox_circuit, y)
        b.XOR(out[0], x[0])
        zero = b.const_zero()
        call(sbox_circuit, x)
        call(sbox_circuit, [zero] + y[1:])
        one = b.const_one()
        call(sbox_circuit, out)
        call(sbox_circuit, [one, zero] + x[2:])
        call(sbox_circuit, [x[0]] * 8)

    _assert_twin(script, sbox_circuit)


def test_constant_creating_call_is_not_recorded():
    builder = CircuitBuilder()
    x = builder.add_garbler_inputs(4)
    y = builder.add_evaluator_inputs(4)
    mul(builder, x, y)  # creates const_zero
    assert builder._stamps == {}
    mul(builder, x, y)
    assert len(builder._stamps) == 1
    template = next(iter(builder._stamps.values()))
    assert template is not None
    mul(builder, y, x)  # stamped: no new template
    assert len(builder._stamps) == 1


def test_foreign_wire_is_never_stamped():
    def build(use_plain: bool):
        builder = CircuitBuilder()
        x = builder.add_garbler_inputs(6)
        foreign = builder.AND(x[0], x[1])

        @stamped
        def leaky(b, xs):
            return [b.AND(w, foreign) for w in xs]

        fn = leaky.__wrapped__ if use_plain else leaky
        for chunk in (x[2:4], x[4:6], x[2:4], x[3:5]):
            builder.mark_outputs(fn(builder, chunk))
        return builder

    stamped_builder = build(False)
    assert _columns(stamped_builder) == _columns(build(True))
    assert list(stamped_builder._stamps.values()) == [None]


@pytest.mark.parametrize("bad", ["next", 10**6, -1])
@pytest.mark.parametrize("recorded", [False, True])
def test_out_of_range_wire_raises_plain_message(bad, recorded):
    def attempt(plain: bool):
        builder = CircuitBuilder()
        x = builder.add_garbler_inputs(8)
        y = builder.add_evaluator_inputs(8)
        builder.const_zero()  # or `mul` would create wire "next" itself
        fn = mul.__wrapped__ if plain else mul
        if recorded:
            fn(builder, x, y)
            fn(builder, x, y)
        wire = builder.n_wires if bad == "next" else bad
        with pytest.raises(CircuitError) as info:
            fn(builder, [wire] + x[1:], y)
        assert str(info.value) == f"wire {wire} does not exist yet"
        return str(info.value), builder

    (message, stamped_builder), (expected, plain_builder) = attempt(False), attempt(True)
    assert message == expected
    # The failed call left both builders in the same state.
    assert bytes(stamped_builder._op) == bytes(plain_builder._op)
    assert stamped_builder._a == plain_builder._a
    assert stamped_builder._b == plain_builder._b
