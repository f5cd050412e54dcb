"""The bucket-queue greedy GE mapper against its scan-based oracle.

``streams._greedy_schedule`` keeps the GEs as int bitmasks bucketed by
the cycle they free at; :mod:`tests.core.scalar_greedy` is the
``min(ge_free)`` scan it replaced, kept verbatim.  On random renamed
netlists both must give every instruction the same GE and issue cycle,
and the same makespan, for GE counts on both sides of a 64-bit mask,
AND latencies from one cycle (an XOR's) to the Garbler's 21,
forwarding penalties from none to four cycles, and windows from 4 slots (every level evicts) to one that holds every wire
(no window sync).

Level-ordered programs (full or segment reorder, then rename) carry
their gate levels, so their wide equal-level runs take the mapper's
array path; those run with the run-width threshold forced to 1 and 8
as well as at its real value, windows down to 2 slots (below the GE
count, so one accept cycle can read and evict the same slot), and
every registered workload at full scale.

The mapper returns int64 arrays; ``generate_streams`` stores them as the
narrowest unsigned ``array`` columns, which the full-scale check and
``test_stream_columns_are_narrow_arrays`` pin byte for byte.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import OP_AND, OP_XOR, Circuit, narrow_column
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.depgraph import DepGraph, dep_graph
from repro.core.passes import streams
from repro.core.passes.rename import rename
from repro.core.passes.reorder import full_reorder, segment_reorder
from repro.core.passes.streams import (
    ScheduleParams,
    _greedy_schedule,
    generate_streams,
)
from repro.core.program import HaacProgram
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig
from repro.workloads import PAPER_ORDER, get_workload
from tests.core.scalar_greedy import scalar_greedy_schedule

GE_COUNTS = [1, 2, 3, 16, 17, 65]
FORWARDS = [0, 1, 4]
CAPACITIES = [4, 8, 32, None]  # None: the program's wire count
# One cycle (an AND as fast as an XOR), then the paper's Evaluator and
# Garbler Half-Gate pipelines.
AND_LATENCIES = [1, 18, 21]


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


def schedule_values(schedule):
    """``(ge_of, issue_cycle, makespan)`` with the columns as lists, to
    compare the mapper's arrays with the oracle's lists."""
    ge_of, issue_cycle, makespan = schedule
    return list(ge_of), list(issue_cycle), makespan


def assert_matches_oracle(program, n_ges, params, capacity):
    capacity = capacity or program.n_inputs + len(program.op)
    args = (program, n_ges, params, capacity, DepGraph(program.netlist))
    assert schedule_values(_greedy_schedule(*args)) == scalar_greedy_schedule(*args)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(0, 160),
    n_ges=st.sampled_from(GE_COUNTS),
    cross_ge_forward=st.sampled_from(FORWARDS),
    capacity=st.sampled_from(CAPACITIES),
    and_latency=st.sampled_from([1, 3, 18]),
)
def test_random_netlists(
    seed, n_inputs, n_gates, n_ges, cross_ge_forward, capacity, and_latency,
):
    params = ScheduleParams(
        and_latency=and_latency, cross_ge_forward=cross_ge_forward
    )
    program = renamed_program(seed, n_inputs, n_gates)
    assert_matches_oracle(program, n_ges, params, capacity)


@pytest.mark.parametrize("and_latency", AND_LATENCIES)
@pytest.mark.parametrize("n_ges", GE_COUNTS)
def test_every_grid_point(n_ges, and_latency):
    # 600 gates keep more than 65 GEs busy, so every mask bit is used.
    program = renamed_program(n_ges, 6, 600)
    for cross_ge_forward in FORWARDS:
        params = ScheduleParams(
            and_latency=and_latency, cross_ge_forward=cross_ge_forward
        )
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
    assert schedule_values(_greedy_schedule(*args)) == scalar_greedy_schedule(*args)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(0, 300),
    recent=st.sampled_from([0.0, 0.3, 0.7]),
    segment_size=st.sampled_from([None, 7, 64]),
    run_min=st.sampled_from([1, 8]),
    n_ges=st.sampled_from(LEVELLED_GE_COUNTS),
    cross_ge_forward=st.integers(0, 4),
    capacity=st.sampled_from(LEVELLED_CAPACITIES),
    and_latency=st.sampled_from([1, 3, 18]),
)
def test_levelled_random_netlists(
    seed, n_inputs, n_gates, recent, segment_size, run_min, n_ges,
    cross_ge_forward, capacity, and_latency,
):
    params = ScheduleParams(
        and_latency=and_latency, cross_ge_forward=cross_ge_forward
    )
    program = levelled_program(seed, n_inputs, n_gates, recent, segment_size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "_RUN_MIN", run_min)
        assert_levelled_matches(program, n_ges, params, capacity)


@pytest.mark.parametrize("run_min", [1, 8])
@pytest.mark.parametrize("and_latency", AND_LATENCIES)
@pytest.mark.parametrize("n_ges", LEVELLED_GE_COUNTS)
def test_levelled_grid(monkeypatch, n_ges, and_latency, run_min):
    monkeypatch.setattr(streams, "_RUN_MIN", run_min)
    programs = [
        # Far operands over many inputs: levels 400-500 gates wide.
        levelled_program(n_ges, 512, 2400, 0.0),
        levelled_program(n_ges, 8, 1500, 0.1, segment_size=400),
    ]
    for program in programs:
        for cross_ge_forward in FORWARDS:
            params = ScheduleParams(
                and_latency=and_latency, cross_ge_forward=cross_ge_forward
            )
            for capacity in [2, 5, 32, None]:
                assert_levelled_matches(program, n_ges, params, capacity)


@pytest.fixture
def committed(monkeypatch):
    """The instruction count of each array-path commit."""
    counts = []
    speculate = streams._speculate

    def counting(graph, params, capacity, start, *args):
        result = speculate(graph, params, capacity, start, *args)
        counts.append(result[0] - start)
        return result

    monkeypatch.setattr(streams, "_speculate", counting)
    return counts


@pytest.mark.parametrize("and_latency", AND_LATENCIES)
def test_wide_runs_take_the_array_path(committed, and_latency):
    """At the real threshold a level-ordered wide program commits most
    of its instructions through the array path."""
    program = levelled_program(0, 512, 2400, 0.0)
    assert_levelled_matches(
        program, 16, ScheduleParams(and_latency=and_latency), None
    )
    assert sum(committed) > 1000


def two_stall_program(first: int, second: int) -> HaacProgram:
    """Two equal-level runs of 300 and 600 XORs on two inputs.  The
    first run ends in two ANDs; run-two positions ``first`` and
    ``second`` read them (every other one reads an early XOR), so on two
    GEs at the paper's latencies both stall, the second while the first
    still holds its GE."""
    n_inputs, width = 2, 300
    op, a, b = bytearray(), array("q"), array("q")
    late = {first: n_inputs + width - 2, second: n_inputs + width - 1}
    for code, source in (
        [(OP_XOR, 0)] * (width - 2) + [(OP_AND, 0)] * 2
        + [(OP_XOR, late.get(k, n_inputs + k % (width - 2))) for k in range(600)]
    ):
        op.append(code)
        a.append(source)
        b.append(1 if source == 0 else 0)
    n_wires = n_inputs + len(op)
    circuit = Circuit.from_columns(
        n_inputs, 0, [n_wires - 1], op, a, b,
        array("q", range(n_inputs, n_wires)), "two-stall",
    )
    return HaacProgram.from_netlist(rename(full_reorder(circuit)))


@pytest.mark.parametrize("first, calls_after", [
    # Both stalls follow progress: speculation resumes after each.
    (10, [(300, 900, 310), (311, 900, 315), (316, 900, 900)]),
    # The run stalls at its first position: the step takes the run.
    (0, [(300, 900, 300)]),
])
def test_speculation_resumes_after_each_stall(monkeypatch, first, calls_after):
    """After the step issues a stalled instruction of a wide run, the
    rest of the run goes back to the array path while ``_RUN_MIN`` or
    more positions remain, unless the speculation before the stall
    committed nothing; the schedule is the oracle's either way."""
    calls = []
    speculate = streams._speculate

    def recording(graph, params, capacity, start, stop, *args):
        result = speculate(graph, params, capacity, start, stop, *args)
        calls.append((start, stop, result[0]))
        return result

    monkeypatch.setattr(streams, "_speculate", recording)
    program = two_stall_program(first, 15)
    assert_levelled_matches(program, 2, ScheduleParams(), None)
    assert calls == [(0, 300, 300), *calls_after]


def assert_narrow_oracle_columns(schedule, oracle):
    """``ge_of`` / ``issue_cycle`` are ``array`` columns of the narrowest
    unsigned typecode holding their max, byte for byte the oracle's
    lists narrowed: the program-cache entry depends on both."""
    for column, values in zip((schedule.ge_of, schedule.issue_cycle), oracle):
        assert isinstance(column, array)
        assert column.typecode == np.min_scalar_type(max(values, default=0)).char
        assert column.tobytes() == narrow_column(values).tobytes()
    assert schedule.makespan == oracle[2]


@pytest.mark.parametrize("capacity", [32, 4096])  # evicting / holds every wire
def test_stream_columns_are_narrow_arrays(committed, capacity):
    program = levelled_program(0, 512, 2400, 0.0)
    graph = dep_graph(program.netlist)
    params = ScheduleParams()
    schedule = generate_streams(program, SlidingWindow(capacity), 16, params, graph)
    assert sum(committed) > 1000
    assert_narrow_oracle_columns(
        schedule, scalar_greedy_schedule(program, 16, params, capacity, graph)
    )


@pytest.mark.slow
@pytest.mark.parametrize("sww_bytes", [None, 512])
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_full_scale_workloads(name, sww_bytes):
    """Every workload's full-scale schedule equals the scan oracle's."""
    config = HaacConfig.paper_default()
    if sww_bytes is not None:
        config = replace(config, sww_bytes=sww_bytes)
    workload = get_workload(name)
    result = compile_circuit(
        workload.build_scaled().circuit, config.window, config.n_ges,
        OptLevel.RO_RN_ESW, params=config.schedule_params(), cache=False,
    )
    schedule = result.streams
    oracle = scalar_greedy_schedule(
        result.program, config.n_ges, config.schedule_params(),
        config.window.capacity, schedule.depgraph,
    )
    assert_narrow_oracle_columns(schedule, oracle)
