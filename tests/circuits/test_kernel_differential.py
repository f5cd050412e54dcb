"""Differential properties of the compiler's array kernels.

``Circuit.validate`` and the compile passes run as NumPy kernels over
the gate columns (DESIGN.md section 13).  Two things hold them:

* the scalar validator they replaced, kept verbatim in
  :mod:`tests.circuits.scalar_oracle` -- on random well-formed netlists
  and on single-field mutations of them the kernel accepts, rejects,
  reports ``renamed`` and words its message exactly as the oracle does;
* the compiler's own contract (ROADMAP item 5's compile fuzz) -- every
  random netlist compiles at every ``OptLevel`` and window to
  streams ``verify_streams`` accepts, timed identically by the numpy
  and reference sim engines on and off the compile's schedule, and a
  netlist that computes what the source computes; and the two column
  kernels equal their one-line stdlib spellings.
"""

from __future__ import annotations

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, OP_INV, OP_XOR, Circuit, CircuitError
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.passes.rename import rename
from repro.core.passes.reorder import _permute
from repro.core.sww import WIRE_BYTES, SlidingWindow
from repro.core.verify import verify_streams
from repro.sim.config import HaacConfig, Role
from repro.sim.timing import simulate, simulate_batch
from tests.circuits.scalar_oracle import scalar_validate
from tests.circuits.test_netlist import MALFORMED, malformed_circuit


def random_netlist(seed: int, n_inputs: int, n_gates: int, renamed: bool) -> Circuit:
    """A well-formed netlist with INVs, dead gates, fan-out and primary
    inputs among the outputs; gate outputs follow program order only
    when ``renamed``."""
    rng = random.Random(seed)
    ids = list(range(n_inputs, n_inputs + n_gates))
    if not renamed:
        rng.shuffle(ids)
    defined = list(range(n_inputs))
    op, a, b = bytearray(), array("q"), array("q")
    for wire in ids:
        code = rng.choice((OP_AND, OP_XOR, OP_XOR, OP_INV))
        op.append(code)
        a.append(rng.choice(defined))
        b.append(-1 if code == OP_INV else rng.choice(defined))
        defined.append(wire)
    outputs = [rng.choice(defined) for _ in range(rng.randrange(5))]
    n_garbler = rng.randrange(n_inputs + 1)
    return Circuit.from_columns(
        n_garbler, n_inputs - n_garbler, outputs, op, a, b, array("q", ids), "fuzz"
    )


netlists = st.builds(
    random_netlist,
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 6),
    n_gates=st.integers(0, 48),
    renamed=st.booleans(),
)


def outcome(validate, circuit):
    try:
        return ("renamed", validate(circuit))
    except CircuitError as error:
        return ("CircuitError", str(error))


@st.composite
def mutations(draw):
    """A well-formed netlist with one field overwritten."""
    circuit = draw(netlists)
    n_gates, n_wires = len(circuit.op), circuit.n_wires
    wire = st.integers(-2, n_wires + 1)
    fields = ["output", "ragged"] if n_gates == 0 else [
        "op", "a", "b", "out", "output", "ragged",
    ]
    field = draw(st.sampled_from(fields))
    if field == "op":
        circuit.op[draw(st.integers(0, n_gates - 1))] = draw(st.integers(0, 4))
    elif field == "output":
        circuit.outputs.insert(
            draw(st.integers(0, len(circuit.outputs))), draw(wire)
        )
    elif field == "ragged":
        draw(st.sampled_from([circuit.a, circuit.b, circuit.out])).append(0)
    else:
        getattr(circuit, field)[draw(st.integers(0, n_gates - 1))] = draw(wire)
    return circuit


class TestValidateAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(netlists)
    def test_well_formed_netlists(self, circuit):
        assert outcome(Circuit.validate, circuit) == outcome(scalar_validate, circuit)
        assert outcome(Circuit.validate, circuit)[0] == "renamed"

    @settings(max_examples=600, deadline=None)
    @given(mutations())
    def test_single_field_mutations(self, circuit):
        assert outcome(Circuit.validate, circuit) == outcome(scalar_validate, circuit)

    @pytest.mark.parametrize(
        "columns", [case[1:6] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
    )
    def test_malformed_table(self, columns):
        circuit = malformed_circuit(*columns)
        result = outcome(Circuit.validate, circuit)
        assert result == outcome(scalar_validate, circuit)
        assert result[0] == "CircuitError"

    def test_first_bad_gate_wins_over_later_ones(self):
        # Gate 1 reads wire 4 before gate 2 defines it and gate 3 has an
        # unknown op: the report is about gate 1, the first in program
        # order, although gate 3's rule is checked earlier per gate.
        circuit = Circuit.from_columns(
            2, 0, [2], bytearray([OP_XOR, OP_AND, OP_XOR, 9]),
            array("q", [0, 4, 0, 0]), array("q", [1, 2, 1, 1]),
            array("q", [2, 3, 4, 5]), "bad",
        )
        assert outcome(Circuit.validate, circuit) == (
            "CircuitError", "gate 1 reads a wire before it is defined"
        )
        assert outcome(scalar_validate, circuit) == outcome(Circuit.validate, circuit)

    def test_rejected_netlist_can_still_be_resized(self):
        # The kernel's views must not outlive the call, error or not.
        circuit = malformed_circuit([2], [OP_XOR], [0], [9], [2])
        with pytest.raises(CircuitError) as caught:
            circuit.validate()
        circuit.a.append(0)
        circuit.op.append(OP_XOR)
        assert "n_wires" in str(caught.value)


def _input_bits(seed: int, circuit: Circuit):
    rng = random.Random(seed ^ 0xB175)
    return (
        [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)],
        [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)],
    )


def _timing(sim) -> tuple:
    return sim.compute_cycles, sim.stalls.as_dict(), sim.issued_per_ge


class TestCompileFuzz:
    """Random netlists x five OptLevels x windows from 4 to 2,048 wires."""

    @settings(max_examples=25, deadline=None)
    @given(
        circuit=netlists,
        # Segments of half the window: 2, 4, 5, 16, and one segment
        # longer than any program here.
        capacity=st.sampled_from([4, 8, 10, 32, 2048]),
        n_ges=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_every_level_and_window(self, circuit, capacity, n_ges, seed):
        garbler_bits, evaluator_bits = _input_bits(seed, circuit)
        expected = circuit.eval_plain(garbler_bits, evaluator_bits)
        # The compile's own latencies (numpy reads the schedule) plus
        # three replay keys timed as one batch (garbler latencies, no
        # forward, a 4-cycle forward): a row-mixing bug cannot hide
        # behind a one-row replay.  Every row equals its serial
        # reference call.
        evaluator = HaacConfig(
            n_ges=n_ges, sww_bytes=capacity * WIRE_BYTES, sim_engine="numpy"
        )
        configs = [
            evaluator,
            evaluator.with_role(Role.GARBLER),
            evaluator._replace(cross_ge_forward=0),
            evaluator._replace(cross_ge_forward=4),
        ]
        for opt in OptLevel:
            result = compile_circuit(
                circuit, SlidingWindow(capacity), n_ges, opt, cache=False
            )
            verify_streams(result.streams)
            assert [
                _timing(sim) for sim in simulate_batch(result.streams, configs)
            ] == [
                _timing(simulate(result.streams, config.with_sim_engine("reference")))
                for config in configs
            ]
            netlist = result.program.netlist
            assert netlist.validate() is True
            assert netlist.eval_plain(
                *result.lowered.adapt_inputs(garbler_bits, evaluator_bits)
            ) == expected

    @settings(max_examples=100, deadline=None)
    @given(circuit=netlists, seed=st.integers(0, 2**16))
    def test_permute_is_one_gather_per_column(self, circuit, seed):
        # A random topological order: by ASAP level, ties shuffled.
        rng = random.Random(seed)
        levels = circuit.gate_levels()
        order = sorted(range(len(levels)), key=lambda p: (levels[p], rng.random()))
        permuted = _permute(circuit, np.array(order, dtype=np.int64), "+p")
        assert permuted.op == bytearray(circuit.op[p] for p in order)
        assert permuted.a == array("q", [circuit.a[p] for p in order])
        assert permuted.b == array("q", [circuit.b[p] for p in order])
        assert permuted.out == array("q", [circuit.out[p] for p in order])
        assert permuted.outputs == circuit.outputs

    @settings(max_examples=100, deadline=None)
    @given(circuit=netlists)
    def test_rename_is_one_mapping_per_column(self, circuit):
        n_inputs = circuit.n_inputs
        mapping = {wire: wire for wire in range(n_inputs)}
        mapping.update((w, n_inputs + p) for p, w in enumerate(circuit.out))
        mapping[-1] = -1
        renamed = rename(circuit)
        assert renamed.op == circuit.op
        assert renamed.a == array("q", [mapping[w] for w in circuit.a])
        assert renamed.b == array("q", [mapping[w] for w in circuit.b])
        assert renamed.out == array("q", range(n_inputs, circuit.n_wires))
        assert renamed.outputs == [mapping[w] for w in circuit.outputs]
        assert all(type(w) is int for w in renamed.outputs)
