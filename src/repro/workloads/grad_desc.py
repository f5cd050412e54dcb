"""Linear Regression via Gradient Descent (VIP-Bench ``GradDesc``).

True floating-point gradient descent for a 1-D linear model
``pred = w * x + b``.  Per round::

    err_i = (w * x_i + b) - y_i
    w    -= lr * sum(err_i * x_i)
    b    -= lr * sum(err_i)

Everything is floating point built from :mod:`repro.circuits.stdlib.float`,
which is why this is the paper's slowest benchmark relative to plaintext
(Figure 10): FP adders/multipliers explode into deep Boolean logic with
very low ILP (Table 2: ILP 60, 106 k levels at 20 rounds of FP32).

Alice (Garbler) holds the feature values ``x_i`` and the initial model;
Bob (Evaluator) holds the targets ``y_i``.  The learning rate is a public
circuit constant.  The bit-exact plaintext reference uses the same
truncating float semantics as the circuits (:meth:`FloatFormat.ref_add` /
``ref_mul``), so results match pattern-for-pattern.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..circuits.stdlib.float import FP16, FP32, FloatFormat, fp_add, fp_mul, fp_sub
from ..circuits.stdlib.integer import decode_int
from .base import BuiltWorkload, PaperTable2Row, Workload

__all__ = ["build", "reference", "WORKLOAD"]


def _tree_sum(
    builder: CircuitBuilder, fmt: FloatFormat, values: List[List[int]]
) -> List[int]:
    """Balanced floating-point summation tree.

    Note: FP addition is not associative, so the reference implementation
    mirrors this exact pairing order.
    """
    work = list(values)
    while len(work) > 1:
        nxt = [
            fp_add(builder, fmt, work[i], work[i + 1])
            for i in range(0, len(work) - 1, 2)
        ]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _ref_tree_sum(fmt: FloatFormat, values: List[int]) -> int:
    work = list(values)
    while len(work) > 1:
        nxt = [
            fmt.ref_add(work[i], work[i + 1]) for i in range(0, len(work) - 1, 2)
        ]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def build(
    n_points: int = 4,
    rounds: int = 3,
    fmt: FloatFormat = FP16,
    learning_rate: float = 0.05,
) -> BuiltWorkload:
    """Gradient-descent circuit over ``n_points`` samples for ``rounds`` rounds."""
    if n_points < 1 or rounds < 1:
        raise ValueError("need at least one point and one round")
    builder = CircuitBuilder()
    w_bits = builder.add_garbler_inputs(fmt.width)
    b_bits = builder.add_garbler_inputs(fmt.width)
    xs = [builder.add_garbler_inputs(fmt.width) for _ in range(n_points)]
    ys = [builder.add_evaluator_inputs(fmt.width) for _ in range(n_points)]

    lr_bits = [
        builder.const_bit(bit) for bit in fmt.encode_bits(learning_rate)
    ]

    weight, bias = w_bits, b_bits
    for _ in range(rounds):
        errors = []
        weighted_errors = []
        for x, y in zip(xs, ys):
            pred = fp_add(builder, fmt, fp_mul(builder, fmt, weight, x), bias)
            err = fp_sub(builder, fmt, pred, y)
            errors.append(err)
            weighted_errors.append(fp_mul(builder, fmt, err, x))
        grad_w = _tree_sum(builder, fmt, weighted_errors)
        grad_b = _tree_sum(builder, fmt, errors)
        weight = fp_sub(builder, fmt, weight, fp_mul(builder, fmt, lr_bits, grad_w))
        bias = fp_sub(builder, fmt, bias, fp_mul(builder, fmt, lr_bits, grad_b))

    builder.mark_outputs(weight)
    builder.mark_outputs(bias)
    circuit = builder.build(
        f"grad_desc_n{n_points}_r{rounds}_{fmt.name}"
    )

    def encode_inputs(
        w0: float, b0: float, x_vals: Sequence[float], y_vals: Sequence[float]
    ) -> Tuple[List[int], List[int]]:
        if len(x_vals) != n_points or len(y_vals) != n_points:
            raise ValueError(f"expected {n_points} samples")
        garbler: List[int] = []
        garbler.extend(fmt.encode_bits(w0))
        garbler.extend(fmt.encode_bits(b0))
        for x in x_vals:
            garbler.extend(fmt.encode_bits(x))
        evaluator: List[int] = []
        for y in y_vals:
            evaluator.extend(fmt.encode_bits(y))
        return garbler, evaluator

    def ref(
        w0: float, b0: float, x_vals: Sequence[float], y_vals: Sequence[float]
    ) -> List[int]:
        w_pat, b_pat = reference(
            w0, b0, x_vals, y_vals, rounds=rounds, fmt=fmt, learning_rate=learning_rate
        )
        bits = [(w_pat >> i) & 1 for i in range(fmt.width)]
        bits += [(b_pat >> i) & 1 for i in range(fmt.width)]
        return bits

    def decode_outputs(bits: Sequence[int]) -> Tuple[float, float]:
        w_pat = decode_int(bits[: fmt.width])
        b_pat = decode_int(bits[fmt.width : 2 * fmt.width])
        return fmt.decode(w_pat), fmt.decode(b_pat)

    return BuiltWorkload(
        name="GradDesc",
        circuit=circuit,
        params={
            "n_points": n_points,
            "rounds": rounds,
            "fmt": fmt,
            "learning_rate": learning_rate,
        },
        encode_inputs=encode_inputs,
        reference=ref,
        decode_outputs=decode_outputs,
    )


def reference(
    w0: float,
    b0: float,
    x_vals: Sequence[float],
    y_vals: Sequence[float],
    rounds: int = 3,
    fmt: FloatFormat = FP16,
    learning_rate: float = 0.05,
) -> Tuple[int, int]:
    """Bit-exact reference; returns final (w, b) encoded patterns."""
    weight = fmt.encode(w0)
    bias = fmt.encode(b0)
    xs = [fmt.encode(x) for x in x_vals]
    ys = [fmt.encode(y) for y in y_vals]
    lr = fmt.encode(learning_rate)
    for _ in range(rounds):
        errors = []
        weighted = []
        for x, y in zip(xs, ys):
            pred = fmt.ref_add(fmt.ref_mul(weight, x), bias)
            err = fmt.ref_sub(pred, y)
            errors.append(err)
            weighted.append(fmt.ref_mul(err, x))
        grad_w = _ref_tree_sum(fmt, weighted)
        grad_b = _ref_tree_sum(fmt, errors)
        weight = fmt.ref_sub(weight, fmt.ref_mul(lr, grad_w))
        bias = fmt.ref_sub(bias, fmt.ref_mul(lr, grad_b))
    return weight, bias


def plaintext_ops(
    n_points: int, rounds: int, fmt: FloatFormat, learning_rate: float
) -> int:
    """~6 FP ops per sample per round plus the update."""
    return rounds * (6 * n_points + 4)


WORKLOAD = Workload(
    name="GradDesc",
    description="Floating-point linear regression via gradient descent",
    build=build,
    scaled_params={"n_points": 4, "rounds": 3, "fmt": FP16, "learning_rate": 0.05},
    paper_params={"n_points": 16, "rounds": 20, "fmt": FP32, "learning_rate": 0.05},
    plaintext_ops=plaintext_ops,
    paper_table2=PaperTable2Row(
        levels=106314, wires_k=6344, gates_k=6343, and_pct=42.91, ilp=60,
        spent_wire_pct=99.70,
    ),
    character="deep",
)
