"""The one-push depth-first walk against its two-push oracle.

``reorder.depth_first_order`` descends through the first pending
operand and pushes each gate once; :mod:`tests.core.scalar_dfs` is the
walk it replaced (every gate pushed as itself and as ``~position``),
kept verbatim.  Both must permute every netlist identically -- the
live gates in post-order, the dead ones after them in netlist order --
on random netlists with unlowered INVs, outputs that are input wires or
repeat, ``a == b`` gates, dead gates and no gates, on deep chains, and
on every registered workload's lowered netlist at full scale.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, OP_INV, OP_XOR, Circuit
from repro.core.assembler import lower_inv
from repro.core.passes.reorder import depth_first_order
from repro.workloads import PAPER_ORDER, get_workload
from tests.core.scalar_dfs import scalar_depth_first_order


def random_netlist(
    seed: int,
    n_inputs: int,
    n_gates: int,
    renamed: bool,
    recent: float,
    same: float,
    n_outputs: int,
) -> Circuit:
    """A well-formed netlist: INVs keep ``b == -1``; a ``same`` share of
    binary gates read one wire twice; a ``recent`` share of operands is
    one of the last few wires (deep chains), the rest any defined wire;
    outputs are drawn with repeats from every defined wire, inputs
    included, so gates no output reaches stay dead."""
    rng = random.Random(seed)
    ids = list(range(n_inputs, n_inputs + n_gates))
    if not renamed:
        rng.shuffle(ids)
    defined = list(range(n_inputs))
    op, a, b = bytearray(), array("q"), array("q")

    def operand():
        if rng.random() < recent:
            return rng.choice(defined[-4:])
        return rng.choice(defined)

    for wire in ids:
        code = rng.choice((OP_AND, OP_XOR, OP_INV))
        op.append(code)
        a.append(operand())
        if code == OP_INV:
            b.append(-1)
        else:
            b.append(a[-1] if rng.random() < same else operand())
        defined.append(wire)
    outputs = [rng.choice(defined) for _ in range(n_outputs)]
    outputs += outputs[: rng.randrange(len(outputs) + 1)]
    rng.shuffle(outputs)
    return Circuit.from_columns(
        n_inputs, 0, outputs, op, a, b, array("q", ids), "dfs"
    )


def assert_matches_oracle(circuit: Circuit) -> None:
    ours, oracle = depth_first_order(circuit), scalar_depth_first_order(circuit)
    assert ours.out == oracle.out  # outputs are distinct: the same order
    assert (ours.op, ours.a, ours.b) == (oracle.op, oracle.a, oracle.b)
    assert (ours.outputs, ours.name) == (oracle.outputs, oracle.name)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 6),
    n_gates=st.integers(0, 120),
    renamed=st.booleans(),
    recent=st.sampled_from([0.0, 0.5, 0.9]),
    same=st.sampled_from([0.0, 0.2, 1.0]),
    n_outputs=st.integers(0, 8),
)
def test_random_netlists(seed, n_inputs, n_gates, renamed, recent, same, n_outputs):
    assert_matches_oracle(
        random_netlist(seed, n_inputs, n_gates, renamed, recent, same, n_outputs)
    )


def test_zero_gates():
    assert_matches_oracle(Circuit.from_columns(
        2, 0, [0, 1, 1], bytearray(), array("q"), array("q"), array("q"), "empty"
    ))


def test_only_input_outputs_leave_every_gate_dead():
    gates = random_netlist(1, 3, 40, False, 0.5, 0.2, 0)
    circuit = Circuit.from_columns(
        3, 0, [2, 0, 2], gates.op, gates.a, gates.b, gates.out, "dead"
    )
    assert list(depth_first_order(circuit).out) == list(gates.out)
    assert_matches_oracle(circuit)


@pytest.mark.parametrize("operands", ["a", "b", "both"])
def test_deep_chain(operands):
    """A 50,000-gate chain through ``a``, ``b`` or both operands: the
    walk's depth is the netlist's, with no recursion limit."""
    n_gates = 50_000
    # Gate p reads wire p: the input for p = 0, gate p - 1's output after.
    chain = array("q", range(n_gates))
    zeros = array("q", bytes(8 * n_gates))
    circuit = Circuit.from_columns(
        1, 0, [n_gates], bytearray([OP_AND]) * n_gates,
        chain if operands != "b" else zeros,
        chain if operands != "a" else zeros,
        array("q", range(1, n_gates + 1)), "chain",
    )
    assert_matches_oracle(circuit)


@pytest.mark.slow
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_full_scale_workloads(name):
    """Every workload's lowered full-scale netlist (the compiler's DFS
    input) walks to the oracle's order."""
    workload = get_workload(name)
    assert_matches_oracle(lower_inv(workload.build_scaled().circuit).circuit)
