"""Columns are the IR: the pipeline builds no per-gate objects.

Work-done tests (counts, not timings): a cold compile, a cache read and
the replays construct zero ``Gate`` / ``Instruction`` values; the public
views construct them once, on first use; a cache entry holds columns.
"""

from __future__ import annotations

import pytest

from repro.circuits.netlist import Circuit, CircuitError, Gate, GateOp
from repro.core.assembler import assemble
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.depgraph import DepGraph
from repro.core.isa import Instruction
from repro.core.passes.esw import eliminate_spent_wires
from repro.core.passes.rename import rename
from repro.core.passes.reorder import (
    _producer_column,
    depth_first_order,
    full_reorder,
    segment_reorder,
)
from repro.core.passes.streams import generate_streams
from repro.core.progcache import ProgramCache, compile_key
from repro.core.program import HaacProgram, ProgramError
from repro.core.sww import SlidingWindow
from repro.core.verify import verify_streams
from repro.sim.config import HaacConfig
from repro.sim.dram import DramSpec
from repro.sim.timing import simulate, simulate_batch
from repro.workloads import get_workload

#: Size of the ReLU k=8 RO_RN_ESW entry under CACHE_SCHEMA 4 (pickled
#: Gate / Instruction object graphs), recorded on PR 13's parent commit.
V4_RELU_K8_ENTRY_BYTES = 42518


@pytest.fixture
def constructed(monkeypatch):
    """Counts of value objects constructed, by class name."""
    counts = {"Gate": 0, "Instruction": 0}
    for cls in (Gate, Instruction):
        original = cls.__post_init__

        def counting(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def _compile(cache):
    config = HaacConfig.paper_default()
    built = get_workload("ReLU").build_scaled(k=8)
    result = compile_circuit(
        built.circuit, config.window, config.n_ges, OptLevel.RO_RN_ESW,
        params=config.schedule_params(), cache=cache,
    )
    key = compile_key(
        built.circuit, config.window.capacity, config.n_ges,
        OptLevel.RO_RN_ESW, config.schedule_params(),
    )
    return config, result, key


def _replay(config, streams):
    variants = config.variants(
        dram=[DramSpec(name="slow", bandwidth_gb_s=4.4), config.dram]
    )
    return simulate(streams, config), simulate_batch(streams, variants)


def test_compile_cache_and_replay_construct_no_objects(tmp_path, constructed):
    config, cold, key = _compile(ProgramCache(tmp_path))
    cold_replay = _replay(config, cold.streams)
    assert constructed == {"Gate": 0, "Instruction": 0}

    warm = ProgramCache(tmp_path).get(key)
    assert warm is not None and warm is not cold
    warm_replay = _replay(config, warm.streams)
    assert constructed == {"Gate": 0, "Instruction": 0}
    assert warm_replay[0].runtime_cycles == cold_replay[0].runtime_cycles


def test_views_materialise_once(constructed):
    _, result, _ = _compile(False)
    program = result.program
    n = len(program.instructions)
    assert n == len(program.netlist.gates) > 0
    assert constructed == {"Gate": 0, "Instruction": 0}  # len is O(1)

    first = list(program.instructions)
    assert constructed["Instruction"] == n
    assert list(program.instructions) == first
    # Per-GE views share the program's instruction objects.
    assert sum(len(list(ge.instructions)) for ge in result.streams.ges) == n
    assert constructed["Instruction"] == n

    assert len(list(program.netlist.gates)) == n
    assert program.netlist.gates[0] is program.netlist.gates[0]
    assert constructed["Gate"] == n


def test_cache_entry_pickles_columns_not_objects(tmp_path):
    cache = ProgramCache(tmp_path)
    _, result, key = _compile(cache)
    list(result.program.instructions)  # a materialised view is not persisted
    cache.put(key, result)
    data = cache.path_for(key).read_bytes()
    assert b"Instruction" not in data and b"Gate" not in data
    assert len(data) < V4_RELU_K8_ENTRY_BYTES


# ----------------------------------------------------------------------
# Degenerate shapes through the array kernels
# ----------------------------------------------------------------------
#
# The passes run as NumPy kernels over the columns; an empty or
# one-element column must take the same path as a large one and end the
# same way -- accepted, or a typed CircuitError / ProgramError, never an
# exception out of NumPy (``np.min`` of an empty array, a float index
# array built from ``[]``, ``concatenate`` of nothing).

DEGENERATE = {
    "zero_gates": Circuit(1, 1, [0, 1], []),
    "zero_gates_no_outputs": Circuit(1, 1, [], []),
    "nothing_at_all": Circuit(0, 0, [], []),
    "one_and": Circuit(1, 1, [2], [Gate(GateOp.AND, 0, 1, 2)]),
    "one_inv": Circuit(1, 0, [1], [Gate(GateOp.INV, 0, -1, 1)]),
    "inv_only": Circuit(1, 1, [2, 3, 4], [
        Gate(GateOp.INV, 0, -1, 2),
        Gate(GateOp.INV, 2, -1, 3),
        Gate(GateOp.INV, 1, -1, 4),
    ]),
    "outputs_are_inputs": Circuit(1, 1, [0, 1, 0], [
        Gate(GateOp.XOR, 0, 1, 2),
        Gate(GateOp.AND, 2, 0, 3),
    ]),
    "no_outputs": Circuit(1, 1, [], [
        Gate(GateOp.XOR, 0, 1, 2),
        Gate(GateOp.AND, 2, 0, 3),
    ]),
}


@pytest.mark.parametrize("shape", DEGENERATE)
@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda opt: opt.value)
def test_degenerate_shapes_compile_and_verify(shape, opt):
    circuit = DEGENERATE[shape]
    bits = ([1] * circuit.n_garbler_inputs, [0] * circuit.n_evaluator_inputs)
    # segment_size 1000 is larger than every program here.
    for segment_size in (None, 1, 1000):
        result = compile_circuit(
            circuit, SlidingWindow(4), 2, opt,
            segment_size=segment_size, cache=False,
        )
        verify_streams(result.streams)
        streams, program = result.streams, result.program
        assert len(streams.ge_of) == len(streams.issue_cycle) == len(program.op)
        assert sorted(p for ge in streams.ges for p in ge.positions) == list(
            range(len(program.op))
        )
        assert sum(ge.n_tables for ge in streams.ges) == circuit.op.count(0)
        assert program.netlist.eval_plain(
            *result.lowered.adapt_inputs(*bits)
        ) == circuit.eval_plain(*bits)


def test_zero_gate_circuit_through_each_kernel():
    circuit = DEGENERATE["zero_gates"]
    assert circuit.validate() is True
    graph = DepGraph(circuit)
    assert list(graph.gate_level_column) == [] and graph.wire_level == [0, 0]
    assert graph.last_reader == [-1, -1] == _producer_column(graph)[:-1].tolist()
    assert graph.oor_flags(4) == (bytearray(), bytearray())
    for reorder in (depth_first_order, full_reorder, rename):
        assert len(reorder(circuit).op) == 0
    assert segment_reorder(circuit, 7).outputs == [0, 1]
    program, _ = assemble(circuit)
    program, report = eliminate_spent_wires(program, SlidingWindow(4))
    assert (report.total_outputs, report.live, report.spent_pct) == (0, 0, 0.0)
    streams = generate_streams(program, SlidingWindow(4), 3)
    assert streams.makespan == 0 and streams.ge_of == []
    assert [(list(ge.positions), ge.n_tables) for ge in streams.ges] == [([], 0)] * 3


def test_emitting_an_unready_netlist_is_a_program_error():
    with pytest.raises(ProgramError, match="gate 0 is INV"):
        HaacProgram.from_netlist(DEGENERATE["inv_only"])
    swapped = Circuit(1, 1, [3], [
        Gate(GateOp.XOR, 0, 1, 2),
        Gate(GateOp.XOR, 0, 1, 4),
        Gate(GateOp.AND, 2, 4, 3),
    ])
    with pytest.raises(ProgramError, match="gate 1 writes 4, ISA requires 3"):
        HaacProgram.from_netlist(swapped)
    with pytest.raises(CircuitError, match="renamed"):
        DepGraph(swapped).oor_flags(4)


@pytest.mark.parametrize("segment_size", [0, -3])
@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda opt: opt.value)
def test_non_positive_segment_size_is_rejected_at_every_level(opt, segment_size):
    # 0 used to fall through ``segment_size or window.half`` and compile.
    with pytest.raises(ValueError, match="segment size must be positive"):
        compile_circuit(
            DEGENERATE["one_and"], SlidingWindow(4), 2, opt,
            segment_size=segment_size, cache=False,
        )


def test_default_segment_size_still_shares_the_explicit_half_key():
    circuit = DEGENERATE["one_and"]
    args = (circuit, 64, 2, OptLevel.SEG_RN_ESW, None)
    assert compile_key(*args, None) == compile_key(*args, 32)
    assert compile_key(*args, None) != compile_key(*args, 16)
