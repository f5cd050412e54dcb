"""The bucket-queue greedy GE mapper against its scan-based oracle.

``streams._greedy_schedule`` keeps the GEs as int bitmasks bucketed by
the cycle they free at; :mod:`tests.core.scalar_greedy` is the
``min(ge_free)`` scan it replaced, kept verbatim.  On random renamed
netlists both must give every instruction the same GE and issue cycle,
and the same makespan, for GE counts on both sides of a 64-bit mask,
every tie-break, forwarding penalties from none to four cycles, and
windows from 4 slots (every level evicts) to one that holds every wire
(no window sync).

Level-ordered programs (full or segment reorder, then rename) carry
their gate levels, so their wide equal-level runs take the mapper's
array path; those run with the run-width threshold forced to 1 and 8
as well as at its real value, windows down to 2 slots (below the GE
count, so one accept cycle can read and evict the same slot), and
every registered workload at full scale.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, OP_XOR, Circuit
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.depgraph import DepGraph, dep_graph
from repro.core.passes import streams
from repro.core.passes.rename import rename
from repro.core.passes.reorder import full_reorder, segment_reorder
from repro.core.passes.streams import TIE_BREAKS, ScheduleParams, _greedy_schedule
from repro.core.program import HaacProgram
from repro.sim.config import HaacConfig
from repro.workloads import iter_workloads
from tests.core.scalar_greedy import scalar_greedy_schedule

GE_COUNTS = [1, 2, 3, 16, 17, 65]
FORWARDS = [0, 1, 4]
CAPACITIES = [4, 8, 32, None]  # None: the program's wire count


def renamed_program(
    seed: int, n_inputs: int, n_gates: int, recent: float = 0.7
) -> HaacProgram:
    """An INV-free renamed netlist whose operands are mostly recent wires
    (chains that stall in-order GEs) and sometimes any earlier wire;
    ``recent`` is the share of recent operands."""
    rng = random.Random(seed)
    op, a, b = bytearray(), array("q"), array("q")
    for out in range(n_inputs, n_inputs + n_gates):
        op.append(rng.choice((OP_AND, OP_XOR, OP_XOR)))
        for column in (a, b):
            low = max(0, out - 6) if rng.random() < recent else 0
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


# ----------------------------------------------------------------------
# Level-ordered programs: the array path for wide equal-level runs
# ----------------------------------------------------------------------

LEVELLED_GE_COUNTS = [1, 2, 3, 16, 17, 62, 65]  # 65: past int64 masks
LEVELLED_CAPACITIES = [2, 3, 5, 8, 32, None]


def levelled_program(seed, n_inputs, n_gates, recent, segment_size=None):
    """``renamed_program`` level-sorted (whole program, or per segment)
    and renamed: its graph carries the gate levels through rename."""
    netlist = renamed_program(seed, n_inputs, n_gates, recent).netlist
    if segment_size is None:
        netlist = full_reorder(netlist)
    else:
        netlist = segment_reorder(netlist, segment_size)
    return HaacProgram.from_netlist(rename(netlist))


def assert_levelled_matches(program, n_ges, params, capacity):
    capacity = capacity or program.n_inputs + len(program.op)
    graph = dep_graph(program.netlist)
    assert graph.has_levels
    args = (program, n_ges, params, capacity, graph)
    assert _greedy_schedule(*args) == scalar_greedy_schedule(*args)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(0, 300),
    recent=st.sampled_from([0.0, 0.3, 0.7]),
    segment_size=st.sampled_from([None, 7, 64]),
    run_min=st.sampled_from([1, 8]),
    n_ges=st.sampled_from(LEVELLED_GE_COUNTS),
    tie_break=st.sampled_from(TIE_BREAKS),
    cross_ge_forward=st.integers(0, 4),
    capacity=st.sampled_from(LEVELLED_CAPACITIES),
    and_latency=st.sampled_from([1, 3, 18]),
)
def test_levelled_random_netlists(
    seed, n_inputs, n_gates, recent, segment_size, run_min, n_ges,
    tie_break, cross_ge_forward, capacity, and_latency,
):
    params = ScheduleParams(
        and_latency=and_latency, cross_ge_forward=cross_ge_forward,
        tie_break=tie_break,
    )
    program = levelled_program(seed, n_inputs, n_gates, recent, segment_size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_RUN_MIN", run_min)
        assert_levelled_matches(program, n_ges, params, capacity)


@pytest.mark.parametrize("run_min", [1, 8])
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("n_ges", LEVELLED_GE_COUNTS)
def test_levelled_grid(monkeypatch, n_ges, tie_break, run_min):
    monkeypatch.setattr(streams, "_RUN_MIN", run_min)
    programs = [
        # Far operands over many inputs: levels 400-500 gates wide.
        levelled_program(n_ges, 512, 2400, 0.0),
        levelled_program(n_ges, 8, 1500, 0.1, segment_size=400),
    ]
    for program in programs:
        for cross_ge_forward in FORWARDS:
            params = ScheduleParams(
                cross_ge_forward=cross_ge_forward, tie_break=tie_break
            )
            for capacity in [2, 5, 32, None]:
                assert_levelled_matches(program, n_ges, params, capacity)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_wide_runs_take_the_array_path(monkeypatch, tie_break):
    """At the real threshold a level-ordered wide program commits most
    of its instructions through the array path."""
    committed = []
    speculate = streams._speculate

    def counting(graph, n_ges, params, capacity, start, *args):
        result = speculate(graph, n_ges, params, capacity, start, *args)
        committed.append(result[0] - start)
        return result

    monkeypatch.setattr(streams, "_speculate", counting)
    program = levelled_program(0, 512, 2400, 0.0)
    params = ScheduleParams(tie_break=tie_break)
    assert_levelled_matches(program, 16, params, None)
    assert sum(committed) > 1000


@pytest.mark.slow
@pytest.mark.parametrize("sww_bytes", [None, 512])
@pytest.mark.parametrize("name", [w.name for w in iter_workloads()])
def test_full_scale_workloads(name, sww_bytes):
    """Every workload's full-scale schedule equals the scan oracle's."""
    config = HaacConfig.paper_default()
    if sww_bytes is not None:
        config = config.with_sww_bytes(sww_bytes)
    workload = next(w for w in iter_workloads() if w.name == name)
    result = compile_circuit(
        workload.build_scaled().circuit, config.window, config.n_ges,
        OptLevel.RO_RN_ESW, params=config.schedule_params(), cache=False,
    )
    schedule = result.streams
    oracle = scalar_greedy_schedule(
        result.program, config.n_ges, config.schedule_params(),
        config.window.capacity, schedule.depgraph,
    )
    assert (schedule.ge_of, schedule.issue_cycle, schedule.makespan) == oracle
