"""DataProvider: typed rows, store-backed resume, zero-replay warmth."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import faults as faults_mod
from repro.analysis import experiments as exp
from repro.analysis.dataprovider import (
    COMPILE_POINT_SCHEMA,
    SIM_POINT_SCHEMA,
    CompilePoint,
    DataProvider,
    SimPoint,
)
from repro.core.compiler import OptLevel
from repro.faults import RecoveryLog
from repro.hwmodel.energy import energy_model
from repro.sim.config import HaacConfig
from repro.store import ResultStore

WORKLOAD = "DotProd"
CONFIG = HaacConfig(n_ges=4, sww_bytes=16 * 1024)
OPT = OptLevel.RO_RN_ESW


class TestTypedRows:
    def test_sim_point_matches_live_simulation(self):
        provider = DataProvider()
        point = provider.sim_point(WORKLOAD, CONFIG, OPT)
        assert isinstance(point, SimPoint)
        assert point.runtime_cycles > 0
        assert point.runtime_s == point.runtime_cycles / point.ge_clock_hz
        assert point.memory_bound == (
            point.traffic_cycles > point.compute_cycles
        )
        assert provider.replays == 1
        assert provider.compiles == 1

    def test_sim_point_feeds_energy_model(self):
        # SimPoint mirrors SimResult's field names on purpose: the
        # energy model must accept either without adapters.
        provider = DataProvider()
        point = provider.sim_point(WORKLOAD, CONFIG, OPT)
        report = energy_model(point, CONFIG)
        assert report.total > 0

    def test_in_process_memoization(self):
        provider = DataProvider()
        provider.sim_point(WORKLOAD, CONFIG, OPT)
        provider.compile_point(WORKLOAD, CONFIG, OPT)
        provider.sim_point(WORKLOAD, CONFIG, OPT)
        assert provider.compiles == 1  # shared across both point kinds

    def test_rows_are_frozen(self):
        provider = DataProvider()
        point = provider.compile_point(WORKLOAD, CONFIG, OPT)
        assert isinstance(point, CompilePoint)
        try:
            point.makespan = 0
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError("CompilePoint must be immutable")


class TestStoreResume:
    def test_warm_store_zero_compiles_zero_replays(self, tmp_path):
        store_dir = tmp_path / "store"
        cold = DataProvider(store=str(store_dir))
        cold_sim = cold.sim_point(WORKLOAD, CONFIG, OPT)
        cold_compile = cold.compile_point(WORKLOAD, CONFIG, OPT)
        assert cold.replays == 1 and cold.compiles == 1

        warm = DataProvider(store=str(store_dir))
        warm_sim = warm.sim_point(WORKLOAD, CONFIG, OPT)
        warm_compile = warm.compile_point(WORKLOAD, CONFIG, OPT)
        assert warm.replays == 0 and warm.compiles == 0
        assert warm_sim == cold_sim
        assert warm_compile == cold_compile
        assert warm.stats()["hits"] == 2

    def test_store_entries_use_versioned_schemas(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        provider = DataProvider(store=store)
        provider.sim_point(WORKLOAD, CONFIG, OPT)
        provider.compile_point(WORKLOAD, CONFIG, OPT)
        schemas = set()
        for path in store.root.glob("*.json"):
            schemas.add(store._load_entry(path)["bench_schema"])
        assert schemas == {SIM_POINT_SCHEMA, COMPILE_POINT_SCHEMA}

    def test_distinct_design_points_do_not_collide(self, tmp_path):
        provider = DataProvider(store=str(tmp_path / "store"))
        a = provider.sim_point(WORKLOAD, CONFIG, OPT)
        b = provider.sim_point(
            WORKLOAD, HaacConfig(n_ges=8, sww_bytes=16 * 1024), OPT
        )
        assert a != b
        rewarm = DataProvider(store=str(tmp_path / "store"))
        assert rewarm.sim_point(WORKLOAD, CONFIG, OPT) == a
        assert rewarm.replays == 0


class TestDriverIntegration:
    def test_driver_resume_skips_cached_points(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = DataProvider(store=store_dir)
        cold_result = exp.table3_wire_traffic(quick=True, provider=cold)
        assert cold.compiles > 0

        warm = DataProvider(store=store_dir)
        warm_result = exp.table3_wire_traffic(quick=True, provider=warm)
        assert warm.compiles == 0 and warm.replays == 0
        assert warm_result.rows == cold_result.rows


class TestForeignPayload:
    """A well-keyed entry whose payload is not exactly the row's fields
    is torn: recorded, recomputed and put back, never a crash."""

    @staticmethod
    def _point(provider, schema):
        if schema == SIM_POINT_SCHEMA:
            return provider.micro_sim_point("Add-6", CONFIG, OPT)
        return provider.compile_point_for(
            provider.micro_circuit("Add-6"), CONFIG, OPT
        )

    @pytest.mark.parametrize(
        "schema, foreign",
        [
            (SIM_POINT_SCHEMA, {"runtime_cycles": 1.0}),
            (COMPILE_POINT_SCHEMA, {"makespan": 1, "spent_pct": 0.0, "extra": 2}),
        ],
        ids=["SimPoint", "CompilePoint"],
    )
    def test_foreign_payload_is_recomputed(self, tmp_path, schema, foreign):
        root = tmp_path / "store"
        expected = self._point(DataProvider(store=ResultStore(root)), schema)
        (path,) = [
            path for path in root.glob("*.json")
            if json.loads(path.read_text())["bench_schema"] == schema
        ]
        entry = json.loads(path.read_text())
        entry["payload"] = foreign  # key fields untouched: still well-keyed
        path.write_text(json.dumps(entry))

        provider = DataProvider(store=ResultStore(root))
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert self._point(provider, schema) == expected
        assert log.count("store", "entry_recovered") == 1
        assert provider.compiles == 1

        rewarm = DataProvider(store=ResultStore(root))
        assert self._point(rewarm, schema) == expected
        assert rewarm.compiles == 0 and rewarm.replays == 0
