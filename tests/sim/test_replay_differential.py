"""The level replay against its row-major oracle.

``engine._replay_issue`` keeps an instruction-major, biased state
(``issue + shift`` per instruction) with the segment shifts folded into
its weights; :mod:`tests.sim.scalar_level_replay` is the row-major
replay it replaced, kept verbatim.  On random renamed netlists both must
give every instruction of every row the same issue cycle -- the arrays,
not just the totals the closed form reads off them -- for windows from
4 slots (every level evicts) to one that holds every wire (no window
sync), one to sixteen GEs and one to five replay keys.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_circuit
from repro.core.passes.streams import ScheduleParams, generate_streams
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig
from repro.sim.coupled import _per_instruction_bytes, coupled_runtime_batch
from repro.sim.dram import DDR4
from repro.sim.engine import ENGINE_REFERENCE, _replay_issue, compiled_arrays
from repro.workloads import get_workload
from tests.core.test_greedy_differential import renamed_program
from tests.sim.scalar_level_replay import scalar_replay_issue

CAPACITIES = [4, 8, 32, None]  # None: the program's wire count
GE_COUNTS = [1, 3, 16]

#: ``(and_latency, xor_latency, cross_ge_forward)``: the Half-Gate
#: depths and a 1-cycle AND, a 2-cycle XOR, no forward to a 4-cycle one.
replay_keys = st.lists(
    st.tuples(
        st.sampled_from([1, 18, 21]),
        st.sampled_from([1, 2]),
        st.sampled_from([0, 1, 4]),
    ),
    min_size=1,
    max_size=5,
)


def _streams(seed, n_inputs, n_gates, n_ges, capacity):
    program = renamed_program(seed, n_inputs, n_gates)
    # Every wire: the window holds an even number of slots, at least 4.
    capacity = capacity or max(4, program.n_wires + program.n_wires % 2)
    return generate_streams(program, SlidingWindow(capacity), n_ges, ScheduleParams())


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(1, 160),
    n_ges=st.sampled_from(GE_COUNTS),
    capacity=st.sampled_from(CAPACITIES),
    keys=replay_keys,
)
def test_issue_arrays_match_oracle(seed, n_inputs, n_gates, n_ges, capacity, keys):
    arrays = compiled_arrays(_streams(seed, n_inputs, n_gates, n_ges, capacity))
    issue = _replay_issue(arrays, keys)
    assert issue.shape == (len(keys), arrays.n_instructions)
    np.testing.assert_array_equal(issue, scalar_replay_issue(arrays, keys))


def test_every_grid_point():
    keys = [(18, 1, 1), (21, 1, 0), (1, 2, 4), (18, 2, 0), (21, 1, 4)]
    for n_ges in GE_COUNTS:
        for capacity in CAPACITIES:
            arrays = compiled_arrays(_streams(n_ges, 6, 400, n_ges, capacity))
            for count in range(1, len(keys) + 1):
                np.testing.assert_array_equal(
                    _replay_issue(arrays, keys[:count]),
                    scalar_replay_issue(arrays, keys[:count]),
                )


def test_coupled_batch_lagging_at_ddr4():
    """DDR4's 35.2 B/cycle is fractional, so fill times are too; a
    64 B queue makes most instructions wait on the prefetcher.  Each
    batched row equals the serial reference loop."""
    config = HaacConfig(n_ges=4, sww_bytes=64 * 16, dram=DDR4)
    assert config.dram_bytes_per_ge_cycle == 35.2
    streams = compile_circuit(
        get_workload("Hamm").build(n_bits=64).circuit, config.window,
        config.n_ges, params=config.schedule_params(), cache=False,
    ).streams
    queues = [64, 96, 4096]
    bandwidth = config.dram_bytes_per_ge_cycle
    input_bytes = streams.program.n_inputs * 16
    prefix = accumulate(_per_instruction_bytes(streams, config))
    lagging = sum(
        (input_bytes + filled - queues[0]) / bandwidth > issue
        for filled, issue in zip(prefix, streams.issue_cycle)
    )
    assert lagging > len(streams.issue_cycle) // 2
    batched = coupled_runtime_batch(streams, config, queues)
    reference = coupled_runtime_batch(
        streams, config.with_sim_engine(ENGINE_REFERENCE), queues
    )
    assert [(r.cycles, r.stall_cycles, r.decoupled_cycles) for r in batched] == [
        (r.cycles, r.stall_cycles, r.decoupled_cycles) for r in reference
    ]
    assert batched[0].stall_cycles > 0
