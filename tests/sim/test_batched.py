"""Batched multi-config replay: bit-identity with the serial loops.

The contract under test: ``simulate_batch`` / ``coupled_runtime_batch``
(and the ``compute_cycles_batch`` dispatcher underneath) return, for
every config / queue size in the batch, exactly what the serial
``simulate`` / ``coupled_runtime`` calls return -- under both engines,
including the bank-conflict fallback (inherently sequential port
arbitration, always on the reference replay).  Covered across three
workload families so the batched axis sees real OoR / window-sync
structure, not just one circuit shape.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import repro.sim.engine as engine
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.progcache import ProgramCache
from repro.core.program import HaacProgram
from repro.sim.config import HaacConfig, Role
from repro.sim.coupled import (
    coupled_runtime,
    coupled_runtime_batch,
    pull_based_runtime,
)
from repro.sim.dram import DDR4, HBM2, DramSpec
from repro.sim.engine import (
    ENGINE_ENV_VAR,
    ENGINE_NUMPY,
    ENGINE_REFERENCE,
    _replay_key,
    compute_cycles_batch,
    compute_cycles_numpy_batched,
    compiled_arrays,
)
from repro.sim.stats import StallBreakdown
from repro.sim.timing import simulate, simulate_batch
from repro.workloads import get_workload

ALL_ENGINES = (ENGINE_NUMPY, ENGINE_REFERENCE)

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
    def test_simulate_batch_identical(self, monkeypatch, family, engine):
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        streams, config = _compiled(family)
        configs = _grid(config)
        serial = [_snap(simulate(streams, c)) for c in configs]
        batched = [_snap(s) for s in simulate_batch(streams, configs)]
        assert batched == serial

    def test_coupled_batch_identical(self, monkeypatch, family, engine):
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        streams, config = _compiled(family)
        serial = [
            _coupled_snap(coupled_runtime(streams, config, q)) for q in QUEUES
        ]
        batched = [
            _coupled_snap(p)
            for p in coupled_runtime_batch(streams, config, QUEUES)
        ]
        assert batched == serial

    def test_bank_conflict_configs_fall_back(self, monkeypatch, family, engine):
        """model_bank_conflicts rides in a mixed batch via the serial
        fallback and stays indistinguishable from serial calls."""
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        streams, config = _compiled(family)
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
    def test_more_bandwidth_never_increases_runtime(self, monkeypatch, family):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
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

    def test_stalls_list_length_checked(self):
        streams, config = _compiled("ReLU")
        with pytest.raises(ValueError):
            compute_cycles_batch(streams, [config], [])
        with pytest.raises(ValueError):
            compute_cycles_numpy_batched(
                compiled_arrays(streams), [config], [StallBreakdown()] * 2
            )

    def test_stall_breakdowns_accumulate_like_serial(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_NUMPY)
        streams, config = _compiled("Hamm")
        configs = [config, config.with_role(Role.GARBLER)]
        serial_stalls = [simulate(streams, c).stalls.as_dict() for c in configs]
        batch_stalls = [StallBreakdown() for _ in configs]
        compute_cycles_batch(streams, configs, batch_stalls)
        assert [s.as_dict() for s in batch_stalls] == serial_stalls

    def test_duplicate_configs_share_a_row(self, monkeypatch):
        """Dedup by compute signature: many compute-identical configs
        (a bandwidth sweep) cost one replay row and return equal
        results."""
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_NUMPY)
        streams, config = _compiled("ReLU")
        sweep = config.variants(
            dram=[DramSpec(name=f"{g}GB/s", bandwidth_gb_s=g)
                  for g in (8.8, 35.2, 512.0)]
        )
        results = compute_cycles_numpy_batched(
            compiled_arrays(streams), sweep
        )
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    def test_writeback_adds_no_replay_row(self, monkeypatch, level_replays):
        """Rows are deduped on (and_latency, xor_latency,
        cross_ge_forward) and writeback_stages is added after the
        replay: a forward x writeback grid costs one closed form (the
        compile's forward) plus one replay row per other forward."""
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_NUMPY)
        streams, config = _compiled("Hamm")
        sweep = config.variants(
            cross_ge_forward=[1, 2, 4], writeback_stages=[0, 1, 3]
        )
        batched = [_snap(s) for s in simulate_batch(streams, sweep)]
        assert level_replays == [2]
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_REFERENCE)
        assert batched == [_snap(simulate(streams, c)) for c in sweep]

    def test_sim_engine_pin_respected_per_config(self, monkeypatch):
        """A config pinning sim_engine=reference inside a batch takes
        the serial path but still matches the numpy rows bit-for-bit."""
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
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
        self, monkeypatch, level_replays, name, sww_bytes
    ):
        """Full-scale Hamm at a 512 B SWW (858 levels) and GradDesc at a
        2 KB SWW (4,503 levels; at the paper's 128 KB none of sweep_warm's
        programs evicts): every level evicts.  Three replay keys share
        one level replay, and each row equals its serial reference call."""
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        config = HaacConfig.paper_default().with_sww_bytes(sww_bytes)
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
            _snap(simulate(streams, c.with_sim_engine(ENGINE_REFERENCE)))
            for c in configs
        ]
        assert any(s[2]["window_sync"] for s in batched)


class TestWorkOncePerProgram:
    """One sweep over a program loaded from the cache derives each piece
    of program-derived timing work once."""

    def test_closed_form_and_n_and_computed_once(
        self, monkeypatch, tmp_path, level_replays
    ):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
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
