"""The bucket-queue greedy GE mapper against its scan-based oracle.

``streams._greedy_schedule`` keeps the GEs as int bitmasks bucketed by
the cycle they free at; :mod:`tests.core.scalar_greedy` is the
``min(ge_free)`` scan it replaced, kept verbatim.  On random renamed
netlists both must give every instruction the same GE and issue cycle,
and the same makespan, for GE counts on both sides of a 64-bit mask,
every tie-break, forwarding penalties from none to four cycles, and
windows from 4 slots (every level evicts) to one that holds every wire
(no window sync).
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, OP_XOR, Circuit
from repro.core.depgraph import DepGraph
from repro.core.passes.streams import TIE_BREAKS, ScheduleParams, _greedy_schedule
from repro.core.program import HaacProgram
from tests.core.scalar_greedy import scalar_greedy_schedule

GE_COUNTS = [1, 2, 3, 16, 17, 65]
FORWARDS = [0, 1, 4]
CAPACITIES = [4, 8, 32, None]  # None: the program's wire count


def renamed_program(seed: int, n_inputs: int, n_gates: int) -> HaacProgram:
    """An INV-free renamed netlist whose operands are mostly recent wires
    (chains that stall in-order GEs) and sometimes any earlier wire."""
    rng = random.Random(seed)
    op, a, b = bytearray(), array("q"), array("q")
    for out in range(n_inputs, n_inputs + n_gates):
        op.append(rng.choice((OP_AND, OP_XOR, OP_XOR)))
        for column in (a, b):
            low = max(0, out - 6) if rng.random() < 0.7 else 0
            column.append(rng.randrange(low, out))
    n_wires = n_inputs + n_gates
    circuit = Circuit.from_columns(
        n_inputs, 0, [n_wires - 1], op, a, b,
        array("q", range(n_inputs, n_wires)), "greedy",
    )
    return HaacProgram.from_netlist(circuit)


def assert_matches_oracle(program, n_ges, params, capacity):
    capacity = capacity or program.n_inputs + len(program.op)
    args = (program, n_ges, params, capacity, DepGraph(program.netlist))
    assert _greedy_schedule(*args) == scalar_greedy_schedule(*args)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(0, 160),
    n_ges=st.sampled_from(GE_COUNTS),
    tie_break=st.sampled_from(TIE_BREAKS),
    cross_ge_forward=st.sampled_from(FORWARDS),
    capacity=st.sampled_from(CAPACITIES),
    and_latency=st.sampled_from([1, 3, 18]),
)
def test_random_netlists(
    seed, n_inputs, n_gates, n_ges, tie_break, cross_ge_forward, capacity,
    and_latency,
):
    params = ScheduleParams(
        and_latency=and_latency, cross_ge_forward=cross_ge_forward,
        tie_break=tie_break,
    )
    program = renamed_program(seed, n_inputs, n_gates)
    assert_matches_oracle(program, n_ges, params, capacity)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("n_ges", GE_COUNTS)
def test_every_grid_point(n_ges, tie_break):
    # 600 gates keep more than 65 GEs busy, so every mask bit is used.
    program = renamed_program(n_ges, 6, 600)
    for cross_ge_forward in FORWARDS:
        params = ScheduleParams(cross_ge_forward=cross_ge_forward, tie_break=tie_break)
        for capacity in CAPACITIES:
            assert_matches_oracle(program, n_ges, params, capacity)
