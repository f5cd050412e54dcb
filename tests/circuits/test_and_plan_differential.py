"""The AND-level plan against the list walk and the gathers it replaced.

``Circuit.and_level_plan`` derives the schedule in one key walk and one
stable sort; :mod:`tests.circuits.scalar_and_schedule` keeps the
per-gate list walk and the per-group gathers of the block stores' old
plan verbatim.  The list view (``and_level_schedule``) must equal the
walk, and every plan run, its operand rows mapped back to wire ids
through ``rows``, the gathered wire ids, value for value -- on the
depth-first walk's random netlists (unary INVs with ``b = -1``,
``a == b`` gates, long chains, input wires among the outputs, shuffled
wire ids, no gates), also recoded AND-free and XOR-free; on every
stdlib family; on AES-128; and, under ``-m slow``, on every workload's
netlist at full scale.  The row contract: inputs keep their rows, the
runs write consecutive row slices that tile ``[n_inputs, n_wires)`` in
schedule order, and an INV's ``b`` is the sentinel row ``n_wires``.
The plan stores its columns narrow (int32 when the rows fit) and its
memo holds no Python lists.
"""

from __future__ import annotations

import copy
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import OP_AND, OP_INV, OP_XOR, Circuit, column_view
from repro.circuits.stdlib import aes_circuit, fixed, float as fp, integer, logic
from repro.workloads import PAPER_ORDER, get_workload
from tests.circuits.scalar_and_schedule import (
    scalar_and_level_schedule,
    scalar_vector_plan,
)
from tests.core.test_dfs_differential import random_netlist


#: Recodings of the drawn ``op`` column: as drawn, AND-free (every AND
#: an XOR: long free chains, one phase) and XOR-free.
RECODE = {
    "mixed": bytes.maketrans(b"", b""),
    "and_free": bytes.maketrans(bytes([OP_AND]), bytes([OP_XOR])),
    "xor_free": bytes.maketrans(bytes([OP_XOR]), bytes([OP_AND])),
}


def _part(array_or_none):
    """An oracle gather (``None`` when empty) as a plain list."""
    return [] if array_or_none is None else array_or_none.tolist()


def assert_matches_oracle(circuit: Circuit) -> None:
    circuit.validate()
    assert circuit.and_level_schedule() == scalar_and_level_schedule(circuit)
    plan = circuit.and_level_plan
    n_inputs, n_wires = circuit.n_inputs, circuit.n_wires
    assert len(plan.rows) == n_wires
    assert plan.rows[:n_inputs].tolist() == list(range(n_inputs))
    # Row -> wire id, the sentinel row reading as -1 (an INV's b).
    wire_of = np.full(n_wires + 1, -1, dtype=np.int64)
    wire_of[plan.rows] = np.arange(n_wires)
    assert sorted(wire_of[:n_wires].tolist()) == list(range(n_wires))
    is_inv = np.zeros(n_wires, dtype=bool)
    is_inv[column_view(circuit.out)] = column_view(circuit.op) == OP_INV

    oracle = scalar_vector_plan(circuit)
    assert len(plan) == len(oracle)
    written = n_inputs
    for index, (positions, a, b, out, groups) in enumerate(oracle):
        and_positions, and_a, and_b, and_out, ours = plan.phase(index)
        assert and_positions.tolist() == plan.and_batch(index).tolist() == _part(positions)
        assert all(len(group[0]) for group in ours)
        got = []
        for run_a, run_b, run_out in [(and_a, and_b, and_out), *ours]:
            # Each run writes exactly its own slice, right after the last.
            assert (run_out.start, run_out.step) == (written, None)
            assert run_out.stop - written == len(run_a) == len(run_b)
            written = run_out.stop
            assert not (run_a == n_wires).any()
            inv = run_b == n_wires
            assert inv.tolist() == is_inv[wire_of[run_out]].tolist()
            a_w, b_w, out_w = (wire_of[part] for part in (run_a, run_b, run_out))
            got.append([part.tolist() for part in (
                a_w[~inv], b_w[~inv], out_w[~inv], a_w[inv], out_w[inv]
            )])
        assert got[0] == [_part(a), _part(b), _part(out), [], []]
        assert got[1:] == [[_part(part) for part in group] for group in groups]
    assert written == n_wires


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 6),
    n_gates=st.integers(0, 150),
    renamed=st.booleans(),
    recent=st.sampled_from([0.0, 0.5, 0.9]),
    same=st.sampled_from([0.0, 0.2, 1.0]),
    n_outputs=st.integers(0, 8),
    ops=st.sampled_from(sorted(RECODE)),
)
def test_random_netlists(seed, n_inputs, n_gates, renamed, recent, same, n_outputs, ops):
    drawn = random_netlist(seed, n_inputs, n_gates, renamed, recent, same, n_outputs)
    assert_matches_oracle(Circuit.from_columns(
        n_inputs, 0, drawn.outputs, bytearray(drawn.op.translate(RECODE[ops])),
        drawn.a, drawn.b, drawn.out, "plan",
    ))


def test_zero_gates():
    circuit = Circuit.from_columns(
        2, 1, [0, 2, 2], bytearray(), array("q"), array("q"), array("q"), "empty"
    )
    assert_matches_oracle(circuit)
    assert circuit.and_level_schedule() == [([], [])]
    assert len(circuit.and_level_plan) == 1


def test_free_level_wider_than_a_fixed_field_stays_out_of_the_depth():
    """A 70,000-gate XOR/INV chain reaches free level 70,000 (past any
    16-bit field) at depth 0, then an AND and another chain at depth 1:
    the key's free-level field is sized from the circuit, so the long
    chain never carries into the depth and both phases keep their
    gates."""
    chain = 70_000
    op = bytearray([OP_XOR, OP_INV]) * (chain // 2)
    a = array("q", range(1, chain + 1))
    b = array("q", [0, -1] * (chain // 2))
    op += bytearray([OP_AND, OP_XOR, OP_INV])
    a.extend([chain + 1, chain + 2, chain + 3])
    b.extend([0, 1, -1])
    circuit = Circuit.from_columns(
        1, 1, [chain + 4], op, a, b, array("q", range(2, chain + 5)), "chain"
    )
    assert_matches_oracle(circuit)
    (and0, groups0), (and1, groups1) = circuit.and_level_schedule()
    assert (and0, len(groups0)) == ([], chain)
    assert (and1, groups1) == ([chain], [[chain + 1], [chain + 2]])


@pytest.fixture(scope="module")
def stdlib_circuits():
    """One small circuit per stdlib family."""
    def build(name, n_bits, body):
        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(n_bits)
        ys = builder.add_evaluator_inputs(n_bits)
        body(builder, xs, ys)
        return name, builder.build(name)

    def outputs(builder, *wire_lists):
        for wires in wire_lists:
            builder.mark_outputs(list(wires))

    q8 = fixed.FixedFormat(width=8, fraction_bits=3)
    return dict([
        build("integer", 8, lambda b, x, y: outputs(
            b, integer.add(b, x, y), integer.kogge_stone_add(b, x, y),
            integer.sub(b, x, y), integer.mul(b, x, y),
            [integer.less_than(b, x, y)], *integer.min_max(b, x, y),
        )),
        build("logic", 8, lambda b, x, y: outputs(
            b, logic.mux(b, x[0], x, y), logic.bitwise_not(b, x),
            [logic.equals(b, x, y), logic.parity(b, y), logic.any_bit(b, x)],
            logic.popcount(b, x + y), logic.rotate_left_const(b, y, 3),
        )),
        build("fixed", 8, lambda b, x, y: outputs(
            b, fixed.fx_add(b, q8, x, y), fixed.fx_mul(b, q8, x, y),
        )),
        build("float", 8, lambda b, x, y: outputs(
            b, fp.fp_add(b, fp.FP8, x, y), fp.fp_mul(b, fp.FP8, x, y),
            fp.fp_relu(b, fp.FP8, x),
        )),
        build("aes", 8, lambda b, x, y: outputs(
            b, aes_circuit.sbox_circuit(b, x),
            aes_circuit.gf_mul_circuit(b, x, y),
        )),
    ])


@pytest.mark.parametrize("family", ["aes", "fixed", "float", "integer", "logic"])
def test_stdlib_families(stdlib_circuits, family):
    assert_matches_oracle(stdlib_circuits[family])


@pytest.fixture(scope="module")
def aes128():
    return aes_circuit.build_aes128_circuit()


def test_aes128(aes128):
    assert_matches_oracle(aes128)


class TestNarrowPlan:
    def test_aes128_plan_is_narrow_arrays_only(self, aes128):
        circuit = copy.copy(aes128)  # memo-free
        plan = circuit.and_level_plan
        members = [getattr(plan, name) for name in plan.__slots__]
        assert all(isinstance(member, np.ndarray) for member in members)
        assert all(member.dtype.kind == "i" for member in members)
        for column in (plan.a, plan.b, plan.rows, plan.and_positions):
            assert column.dtype == np.int32
        assert len(plan.and_positions) == circuit.op.count(OP_AND)
        per_gate = sum(member.nbytes for member in members) / len(circuit.op)
        assert per_gate <= 14.0
        assert "_and_level_lists" not in vars(circuit)

    def test_copies_drop_the_plan_and_its_list_view(self, aes128):
        aes128.and_level_schedule()
        assert {"and_level_plan", "_and_level_lists"} <= set(vars(aes128))
        clone = copy.copy(aes128)
        assert not {"and_level_plan", "_and_level_lists"} & set(vars(clone))


@pytest.mark.slow
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_full_scale_workloads(name):
    """Every workload's full-scale netlist: the list view equals the
    list walk and every plan slice the old gather."""
    workload = get_workload(name)
    assert_matches_oracle(workload.build_scaled().circuit)
