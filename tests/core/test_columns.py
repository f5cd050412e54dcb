"""Columns are the IR: the pipeline builds no per-gate objects.

Work-done tests (counts, not timings): a cold compile, a cache read and
the replays construct zero ``Gate`` / ``Instruction`` values; the public
views construct them once, on first use; a cache entry holds columns.
"""

from __future__ import annotations

import pytest

from repro.circuits.netlist import Gate
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.isa import Instruction
from repro.core.progcache import ProgramCache, compile_key
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
