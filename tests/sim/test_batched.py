"""Batched multi-config replay: bit-identity with the serial loops.

The contract under test: ``simulate_batch`` (and the
``compute_cycles_batch`` dispatcher underneath) returns, for every
config in the batch, exactly what serial ``simulate`` calls return --
under both engines, including the bank-conflict fallback (inherently
sequential port arbitration, always on the reference replay) -- and
``coupled_runtime_batch`` returns, for every queue size, what the
per-instruction oracle of ``tests/sim/scalar_coupled.py`` does.  Covered across three
workload families so the batched axis sees real OoR / window-sync
structure, not just one circuit shape.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

import repro.sim.engine as engine
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.progcache import ProgramCache
from repro.core.program import HaacProgram
from repro.sim.config import HaacConfig, Role
from repro.sim.coupled import coupled_runtime_batch, pull_based_runtime
from repro.sim.dram import DDR4, HBM2, DramSpec
from repro.sim.engine import (
    _level_replay,
    _replay_issue,
    _replay_key,
    _scheduled_rows,
    compute_cycles_batch,
    schedule_plan,
)
from repro.sim.timing import simulate, simulate_batch
from repro.workloads import get_workload
from tests.sim.scalar_coupled import scalar_coupled_runtime

ALL_ENGINES = ("numpy", "reference")

#: Three workload families, small builds (compile once per session).
WORKLOADS = {
    "ReLU": {"k": 16, "width": 8},
    "Hamm": {"n_bits": 64},
    "MatMult": {"n": 2, "width": 4},
}

QUEUES = [64, 256, 4096, 1 << 20, None]


@lru_cache(maxsize=None)
def _compiled(name: str):
    config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
    built = get_workload(name).build(**WORKLOADS[name])
    result = compile_circuit(
        built.circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )
    return result.streams, config


def _grid(config):
    """A batch with several distinct compute signatures plus duplicates:
    both roles (AND latency), a forwarding variant, a writeback/XOR
    variant, two DRAM points (compute-identical -- the dedup case)."""
    return config.variants(dram=[DDR4, HBM2], role=list(Role)) + [
        config._replace(cross_ge_forward=2),
        config._replace(writeback_stages=4, xor_latency=2),
        config,  # duplicate of the first entry
    ]


def _snap(sim):
    return (
        sim.compute_cycles,
        sim.traffic_cycles,
        sim.stalls.as_dict(),
        dict(sim.issued_per_ge),
        sim.memory_bound,
    )


def _coupled_snap(point):
    return (point.name, point.cycles, point.stall_cycles, point.decoupled_cycles)


@pytest.mark.parametrize("family", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestBatchedVsSerial:
    def test_simulate_batch_identical(self, family, engine):
        streams, config = _compiled(family)
        config = config.with_sim_engine(engine)
        configs = _grid(config)
        serial = [_snap(simulate(streams, c)) for c in configs]
        batched = [_snap(s) for s in simulate_batch(streams, configs)]
        assert batched == serial

    def test_coupled_batch_identical(self, family, engine):
        streams, config = _compiled(family)
        config = config.with_sim_engine(engine)
        serial = [
            _coupled_snap(scalar_coupled_runtime(streams, config, q))
            for q in QUEUES
        ]
        batched = [
            _coupled_snap(p)
            for p in coupled_runtime_batch(streams, config, QUEUES)
        ]
        assert batched == serial

    def test_bank_conflict_configs_fall_back(self, family, engine):
        """model_bank_conflicts rides in a mixed batch via the serial
        fallback and stays indistinguishable from serial calls."""
        streams, config = _compiled(family)
        config = config.with_sim_engine(engine)
        configs = [
            config,
            config._replace(model_bank_conflicts=True),
            config.with_role(Role.GARBLER)._replace(model_bank_conflicts=True),
            config.with_role(Role.GARBLER),
        ]
        serial = [_snap(simulate(streams, c)) for c in configs]
        batched = [_snap(s) for s in simulate_batch(streams, configs)]
        assert batched == serial


class TestScenarioPhysics:
    """Scenario-grid physics.  The other two grid claims live where
    their model is tested: coupled >= decoupled in
    ``tests/sim/test_coupled.py`` and "generous queues converge" in
    ``test_engine_equivalence.py::test_generous_queues_converge_to_decoupled``."""

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_more_bandwidth_never_increases_runtime(self, family):
        streams, config = _compiled(family)
        sweep = config.variants(
            dram=[DramSpec(name=f"{g}GB/s", bandwidth_gb_s=g)
                  for g in (1.0, 4.4, 8.8, 35.2, 128.0, 512.0)]
        )
        runtimes = [sim.runtime_cycles for sim in simulate_batch(streams, sweep)]
        assert runtimes == sorted(runtimes, reverse=True)
        assert runtimes[0] > runtimes[-1]  # the sweep crosses memory-bound


class TestComputeCyclesBatch:
    def test_empty_batch(self):
        streams, _ = _compiled("ReLU")
        assert compute_cycles_batch(streams, []) == []
        assert simulate_batch(streams, []) == []
        assert coupled_runtime_batch(streams, _compiled("ReLU")[1], []) == []

    def test_stall_breakdowns_equal_serial(self):
        streams, config = _compiled("Hamm")
        configs = [config, config.with_role(Role.GARBLER)]
        serial_stalls = [simulate(streams, c).stalls.as_dict() for c in configs]
        batched = compute_cycles_batch(streams, configs)
        assert [stalls.as_dict() for _, _, stalls in batched] == serial_stalls

    def test_duplicate_configs_share_a_row(self, level_replays):
        """Dedup by compute signature: many compute-identical configs
        (a bandwidth sweep off the compile's schedule) cost one replay
        row and return equal results."""
        streams, config = _compiled("ReLU")
        sweep = config._replace(cross_ge_forward=2).variants(
            dram=[DramSpec(name=f"{g}GB/s", bandwidth_gb_s=g)
                  for g in (8.8, 35.2, 512.0)]
        )
        results = compute_cycles_batch(streams, sweep)
        assert level_replays == [1]
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_own_key_replay_is_the_schedule(self, family):
        """Replayed at the compile's own key, the level replay issues
        every instruction at ``streams.issue_cycle`` and its row is the
        closed form's over that schedule."""
        streams, _ = _compiled(family)
        own_key = [_replay_key(streams.params)]
        issue = _replay_issue(streams, own_key)
        assert issue.tolist() == [list(streams.issue_cycle)]
        assert _level_replay(streams, own_key) == _scheduled_rows(
            streams, own_key, schedule_plan(streams).issue[None]
        )

    def test_writeback_adds_no_replay_row(self, level_replays):
        """Rows are deduped on (and_latency, xor_latency,
        cross_ge_forward) and writeback_stages is added after the
        replay: a forward x writeback grid costs one closed form (the
        compile's forward) plus one replay row per other forward."""
        streams, config = _compiled("Hamm")
        sweep = config.variants(
            cross_ge_forward=[1, 2, 4], writeback_stages=[0, 1, 3]
        )
        batched = [_snap(s) for s in simulate_batch(streams, sweep)]
        assert level_replays == [2]
        assert batched == [
            _snap(simulate(streams, c.with_sim_engine("reference"))) for c in sweep
        ]

    def test_sim_engine_pin_respected_per_config(self):
        """A config pinning sim_engine=reference inside a batch takes
        the serial path but still matches the numpy rows bit-for-bit."""
        streams, config = _compiled("MatMult")
        configs = [
            config.with_sim_engine("numpy"),
            config.with_sim_engine("reference"),
        ]
        snaps = [_snap(s) for s in simulate_batch(streams, configs)]
        assert snaps[0] == snaps[1]


class TestReplayRowsAtFullScale:
    @pytest.mark.parametrize("name, sww_bytes", [("Hamm", 512), ("GradDesc", 2048)])
    def test_evicting_rows_equal_serial_reference(
        self, level_replays, name, sww_bytes
    ):
        """Full-scale Hamm at a 512 B SWW (858 levels) and GradDesc at a
        2 KB SWW (4,503 levels; at the paper's 128 KB none of sweep_warm's
        programs evicts): every level evicts.  Three replay keys share
        one level replay, and each row equals its serial reference call."""
        config = replace(HaacConfig.paper_default(), sww_bytes=sww_bytes)
        built = get_workload(name).build_scaled()
        streams = compile_circuit(
            built.circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(), cache=False,
        ).streams
        configs = [
            config.with_role(Role.GARBLER),
            config._replace(cross_ge_forward=0),
            config._replace(cross_ge_forward=4),
        ]
        batched = [_snap(s) for s in simulate_batch(streams, configs)]
        assert level_replays == [3]
        assert batched == [
            _snap(simulate(streams, c.with_sim_engine("reference")))
            for c in configs
        ]
        assert any(s[2]["window_sync"] for s in batched)


class TestWorkOncePerProgram:
    """One sweep over a program loaded from the cache derives each piece
    of program-derived timing work once."""

    def test_closed_form_and_n_and_computed_once(
        self, monkeypatch, tmp_path, level_replays
    ):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        circuit = get_workload("Hamm").build(**WORKLOADS["Hamm"]).circuit

        def load():
            return compile_circuit(
                circuit, config.window, config.n_ges, opt=OptLevel.RO_RN_ESW,
                params=config.schedule_params(), cache=ProgramCache(tmp_path),
            ).streams

        load()  # the cold compile and put
        streams = load()
        own_key = [_replay_key(config)]
        rows_keys = []
        scheduled_rows = engine._scheduled_rows

        def rows_spy(arrays, keys, issue):
            rows_keys.append(list(keys))
            return scheduled_rows(arrays, keys, issue)

        monkeypatch.setattr(engine, "_scheduled_rows", rows_spy)
        n_and_reads = []
        n_and = HaacProgram.n_and

        def n_and_spy(program):
            n_and_reads.append(1)
            return n_and.fget(program)

        monkeypatch.setattr(HaacProgram, "n_and", property(n_and_spy))

        decoupled = simulate(streams, config)
        n_and_reads.clear()
        grid = config.variants(
            dram=[DDR4, HBM2], cross_ge_forward=[1, 2, 4], writeback_stages=[1, 3]
        )
        simulate_batch(streams, grid)
        assert len(n_and_reads) == 1
        coupled_runtime_batch(streams, config, QUEUES[:-1])
        pull_based_runtime(streams, config)
        assert rows_keys.count(own_key) == 1
        assert level_replays == [2]
        assert decoupled.n_and == n_and.fget(streams.program)


class TestVariants:
    def test_cartesian_product_last_axis_fastest(self):
        config = HaacConfig()
        variants = config.variants(dram=[DDR4, HBM2], role=list(Role))
        assert len(variants) == 4
        assert [(v.dram.name, v.role) for v in variants] == [
            (DDR4.name, Role.GARBLER),
            (DDR4.name, Role.EVALUATOR),
            (HBM2.name, Role.GARBLER),
            (HBM2.name, Role.EVALUATOR),
        ]

    def test_scalar_values_mix_with_swept_axes(self):
        config = HaacConfig()
        variants = config.variants(n_ges=[4, 8], sim_engine="reference")
        assert [(v.n_ges, v.sim_engine) for v in variants] == [
            (4, "reference"), (8, "reference"),
        ]

    def test_no_sweeps_is_identity(self):
        config = HaacConfig()
        assert config.variants() == [config]
