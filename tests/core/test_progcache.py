"""Persistent compiled-program cache: digests, store, wiring."""

from __future__ import annotations

import pickle
import subprocess
import sys

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import add, mul
from repro.core import depgraph
from repro.core.compiler import OptLevel, compile_best, compile_circuit
from repro.core.passes.streams import ScheduleParams
from repro.core.progcache import (
    CACHE_ENV_VAR,
    ProgramCache,
    circuit_digest,
    compile_key,
    resolve_cache,
    shard_key,
)
from repro.sim.config import HaacConfig
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import simulate
from repro.workloads import get_workload


def _adder(width=8, name="adder"):
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(width)
    ys = b.add_evaluator_inputs(width)
    b.mark_outputs(add(b, xs, ys))
    return b.build(name)


def _multiplier(width=8):
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(width)
    ys = b.add_evaluator_inputs(width)
    b.mark_outputs(mul(b, xs, ys))
    return b.build("multiplier")


@pytest.fixture
def config():
    return HaacConfig(n_ges=4, sww_bytes=64 * 16)


def _result_fingerprint(result):
    """Everything that must survive a cache round trip."""
    return (
        [(i.op, i.wa, i.wb, i.live) for i in result.program.instructions],
        result.program.n_inputs,
        result.program.outputs,
        result.streams.ge_of,
        result.streams.issue_cycle,
        result.streams.makespan,
        [ge.oor_addresses for ge in result.streams.ges],
        result.opt,
        result.esw_report.spent_pct,
    )


class TestDigest:
    def test_identical_circuits_share_digest(self):
        assert circuit_digest(_adder()) == circuit_digest(_adder())

    def test_different_netlists_differ(self):
        assert circuit_digest(_adder()) != circuit_digest(_multiplier())
        assert circuit_digest(_adder(8)) != circuit_digest(_adder(9))

    def test_name_is_part_of_identity(self):
        # Cached results carry the circuit name into reports, so two
        # identical netlists with different names must not collide.
        assert circuit_digest(_adder(name="a")) != circuit_digest(_adder(name="b"))

    def test_stable_across_process_restarts(self):
        """Hash randomization must not leak into the digest."""
        import os
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.circuits.builder import CircuitBuilder\n"
            "from repro.circuits.stdlib.integer import add\n"
            "from repro.core.progcache import circuit_digest\n"
            "b = CircuitBuilder()\n"
            "xs = b.add_garbler_inputs(8)\n"
            "ys = b.add_evaluator_inputs(8)\n"
            "b.mark_outputs(add(b, xs, ys))\n"
            "print(circuit_digest(b.build('adder')))\n"
        )
        runs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                cwd=str(root), env=env,
            )
            runs.add(proc.stdout.strip())
        assert runs == {circuit_digest(_adder())}

    def test_memoized_digest_matches_fresh_instance(self):
        circuit = _adder()
        first = circuit_digest(circuit)
        assert circuit_digest(circuit) == first  # memo path
        assert circuit_digest(_adder()) == first  # fresh instance


class TestCompileKey:
    def test_distinct_config_tuples_distinct_keys(self, config):
        circuit = _adder()
        base = compile_key(circuit, config.window.capacity, config.n_ges,
                           OptLevel.RO_RN_ESW)
        assert base != compile_key(circuit, config.window.capacity * 2,
                                   config.n_ges, OptLevel.RO_RN_ESW)
        assert base != compile_key(circuit, config.window.capacity,
                                   config.n_ges + 4, OptLevel.RO_RN_ESW)
        for opt in OptLevel:
            if opt is not OptLevel.RO_RN_ESW:
                assert base != compile_key(
                    circuit, config.window.capacity, config.n_ges, opt
                )

    def test_role_params_distinguish_keys(self, config):
        circuit = _adder()
        evaluator = compile_key(
            circuit, config.window.capacity, config.n_ges,
            OptLevel.RO_RN_ESW, ScheduleParams.evaluator(),
        )
        garbler = compile_key(
            circuit, config.window.capacity, config.n_ges,
            OptLevel.RO_RN_ESW, ScheduleParams.garbler(),
        )
        assert evaluator != garbler

    def test_default_params_normalised(self, config):
        circuit = _adder()
        implicit = compile_key(circuit, config.window.capacity, config.n_ges,
                               OptLevel.RO_RN_ESW)
        explicit = compile_key(circuit, config.window.capacity, config.n_ges,
                               OptLevel.RO_RN_ESW, ScheduleParams.evaluator(),
                               segment_size=config.window.half)
        assert implicit == explicit

    def test_shard_key_depends_on_positions(self):
        digest = circuit_digest(_adder())
        a = shard_key(digest, [0, 1, 2], 64, 4, OptLevel.RO_RN_ESW)
        b = shard_key(digest, [0, 1, 3], 64, 4, OptLevel.RO_RN_ESW)
        assert a != b
        # Order-insensitive: positions are a set of gates.
        assert a == shard_key(digest, [2, 1, 0], 64, 4, OptLevel.RO_RN_ESW)


class TestProgramCache:
    def test_warm_hit_returns_equal_result(self, tmp_path, config):
        store = ProgramCache(tmp_path)
        circuit = _adder()
        cold = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=store,
        )
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 1, "corrupt": 0, "puts": 1,
        }
        warm = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=store,
        )
        assert store.stats.hits == 1
        assert _result_fingerprint(cold) == _result_fingerprint(warm)
        assert simulate(warm.streams, config).compute_cycles == \
            simulate(cold.streams, config).compute_cycles

    def test_disk_round_trip_without_memory_layer(self, tmp_path, config):
        circuit = _adder()
        writer = ProgramCache(tmp_path, memory=False)
        cold = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=writer,
        )
        reader = ProgramCache(tmp_path, memory=False)
        warm = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=reader,
        )
        assert reader.stats.hits == 1
        assert warm is not cold  # genuine unpickle, not aliasing
        assert _result_fingerprint(cold) == _result_fingerprint(warm)

    def test_level_partition_round_trips(self, tmp_path, config):
        """Cached entries carry the engine arrays *and* their
        dependence-level partition, so warm loads skip the partition
        pass; the derived NumPy plans (runtime views) must not ride
        along in the pickle."""
        from repro.sim.engine import _PLAN_ATTR, _SCHEDULE_ATTR, compiled_arrays

        circuit = _multiplier()
        writer = ProgramCache(tmp_path, memory=False)
        cold = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=writer,
        )
        cold_arrays = compiled_arrays(cold.streams)
        assert cold_arrays.level_of is not None  # persisted eagerly
        # On the compile's schedule (the schedule plan) and off it (the
        # level plan); re-persist now that both plans exist so the round
        # trip below proves __getstate__ keeps them out of the pickle.
        simulate(cold.streams, config)
        simulate(cold.streams, config._replace(cross_ge_forward=2))
        assert getattr(cold_arrays, _PLAN_ATTR, None) is not None
        assert getattr(cold_arrays, _SCHEDULE_ATTR, None) is not None
        key = compile_key(
            circuit, config.window.capacity, config.n_ges,
            OptLevel.RO_RN_ESW, config.schedule_params(),
        )
        writer.put(key, cold)

        reader = ProgramCache(tmp_path, memory=False)
        warm = compile_circuit(
            circuit, config.window, config.n_ges,
            params=config.schedule_params(), cache=reader,
        )
        warm_arrays = getattr(warm.streams, "_engine_arrays", None)
        assert warm_arrays is not None, "arrays must be persisted"
        assert warm_arrays.level_of == cold_arrays.level_of
        assert warm_arrays.n_levels == cold_arrays.n_levels
        assert getattr(warm_arrays, _PLAN_ATTR, None) is None
        assert getattr(warm_arrays, _SCHEDULE_ATTR, None) is None
        # The loaded partition drives the same replay.
        for point in (config, config._replace(cross_ge_forward=2)):
            assert simulate(warm.streams, point).compute_cycles == \
                simulate(cold.streams, point).compute_cycles

    def test_corrupted_entry_recovers_by_recompiling(self, tmp_path, config):
        circuit = _adder()
        store = ProgramCache(tmp_path, memory=False)
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params(), cache=store)
        (entry,) = list(tmp_path.glob("*.pkl"))
        entry.write_bytes(b"not a pickle at all")
        result = compile_circuit(circuit, config.window, config.n_ges,
                                 params=config.schedule_params(), cache=store)
        assert result.streams.makespan > 0
        assert store.stats.corrupt == 1
        assert store.stats.misses == 2  # cold + corrupted
        assert store.stats.puts == 2  # entry was rewritten
        # And the rewritten entry is healthy again.
        fresh = ProgramCache(tmp_path, memory=False)
        warm = compile_circuit(circuit, config.window, config.n_ges,
                               params=config.schedule_params(), cache=fresh)
        assert fresh.stats.hits == 1
        assert _result_fingerprint(warm) == _result_fingerprint(result)

    def test_truncated_entry_recovers(self, tmp_path, config):
        circuit = _adder()
        store = ProgramCache(tmp_path, memory=False)
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params(), cache=store)
        (entry,) = list(tmp_path.glob("*.pkl"))
        entry.write_bytes(entry.read_bytes()[:100])
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params(), cache=store)
        assert store.stats.corrupt == 1

    def test_distinct_tuples_distinct_entries(self, tmp_path, config):
        store = ProgramCache(tmp_path)
        circuit = _adder()
        for opt in (OptLevel.BASELINE, OptLevel.RO_RN_ESW):
            compile_circuit(circuit, config.window, config.n_ges,
                            opt=opt, params=config.schedule_params(),
                            cache=store)
        wide = config.with_sww_bytes(config.sww_bytes * 2)
        compile_circuit(circuit, wide.window, wide.n_ges,
                        params=wide.schedule_params(), cache=store)
        assert store.stats.hits == 0
        assert store.entry_count() == 3

    def test_clear(self, tmp_path, config):
        store = ProgramCache(tmp_path)
        compile_circuit(_adder(), config.window, config.n_ges,
                        params=config.schedule_params(), cache=store)
        assert store.entry_count() == 1
        assert store.clear() == 1
        assert store.entry_count() == 0


class TestNoArrayTypeLeaks:
    """The passes compute on NumPy views (DESIGN.md section 14); what a
    compile returns and what the cache pickles is stdlib columns and
    Python ints, so entries stay loadable without NumPy and JSON rows
    never meet an ``np.int64``."""

    @staticmethod
    def _cold(config, opt=OptLevel.SEG_RN_ESW):
        depgraph.clear_registry()
        return compile_circuit(
            _multiplier(), config.window, config.n_ges, opt,
            params=config.schedule_params(), segment_size=50, cache=False,
        )

    def test_pickle_names_no_numpy_and_is_deterministic(self, config):
        first = pickle.dumps(self._cold(config))
        assert b"numpy" not in first
        assert first == pickle.dumps(self._cold(config))

    @pytest.mark.parametrize("opt", list(OptLevel), ids=lambda opt: opt.value)
    def test_every_indexable_element_is_a_python_int(self, config, opt):
        result = self._cold(config, opt)
        streams, program = result.streams, result.program
        graph = streams.depgraph
        sequences = {
            "ge_of": streams.ge_of,
            "issue_cycle": streams.issue_cycle,
            "gate_level": graph.gate_level,
            "wire_level": graph.wire_level,
            "last_reader": graph.last_reader,
            "producer_index": graph.producer_index(),
            "outputs": program.outputs,
            "netlist.outputs": program.netlist.outputs,
            "lowered.outputs": result.lowered.circuit.outputs,
            "netlist.a": program.netlist.a,
            "netlist.b": program.netlist.b,
            "netlist.out": program.netlist.out,
            "live": program.live,
            **{f"oor[{i}]": flags for i, flags in
               enumerate(graph.oor_flags(config.window.capacity))},
        }
        assert sum(map(len, sequences.values())) > 0
        for ge_id, ge in enumerate(streams.ges):
            sequences[f"positions[{ge_id}]"] = ge.positions
            sequences[f"oor_addresses[{ge_id}]"] = ge.oor_addresses
            assert type(ge.n_tables) is int
        assert sum(ge.n_tables for ge in streams.ges) == program.n_and
        assert type(streams.makespan) is int
        for name, values in sequences.items():
            leaked = {type(v).__name__ for v in values} - {"int"}
            assert not leaked, f"{name} holds {leaked}"


class TestConcurrency:
    """Races the multiplexer exposed: prune/clear unlinking entries a
    concurrent session is mid-get on, and concurrent cold compiles
    putting the same digest."""

    def test_entry_unlinked_mid_get_degrades_to_recompile(
        self, tmp_path, config, monkeypatch
    ):
        from repro import faults as faults_mod
        from repro.core import progcache as progcache_module
        from repro.faults import RecoveryLog

        circuit = _adder()
        store = ProgramCache(tmp_path, memory=False)
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params(), cache=store)
        key = compile_key(
            circuit, config.window.capacity, config.n_ges,
            OptLevel.RO_RN_ESW, config.schedule_params(),
        )
        assert store.path_for(key).exists()

        # Deterministically lose the race: the entry exists when get()
        # checks, then a "concurrent prune" unlinks it before the read.
        original = progcache_module.ProgramCache._load_payload

        def vanish(self, path):
            path.unlink()
            return original(self, path)

        monkeypatch.setattr(
            progcache_module.ProgramCache, "_load_payload", vanish
        )
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert store.get(key) is None
        assert store.stats.misses == 2  # cold + vanished
        assert store.stats.corrupt == 0  # a vanished file is not damage
        assert log.count("cache", "entry_recovered") == 1

        # The caller's recompile path is intact.
        monkeypatch.setattr(
            progcache_module.ProgramCache, "_load_payload", original
        )
        result = compile_circuit(circuit, config.window, config.n_ges,
                                 params=config.schedule_params(), cache=store)
        assert result.streams.makespan > 0
        assert store.stats.puts == 2

    def test_plain_miss_records_no_recovery_event(self, tmp_path):
        from repro import faults as faults_mod
        from repro.faults import RecoveryLog

        store = ProgramCache(tmp_path, memory=False)
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert store.get("0" * 64) is None
        assert log.count("cache", "entry_recovered") == 0

    def test_concurrent_put_get_prune_stress(self, tmp_path):
        import random
        import threading

        store = ProgramCache(tmp_path, memory=False)
        keys = [f"{i:064x}" for i in range(4)]
        for key in keys:
            store.put(key, {"key": key, "rev": -1})

        n_threads = 4
        iterations = 150
        barrier = threading.Barrier(n_threads)
        errors = []
        gets = [0] * n_threads

        def worker(worker_id):
            rng = random.Random(worker_id)
            barrier.wait()
            try:
                for step in range(iterations):
                    key = rng.choice(keys)
                    roll = rng.random()
                    if roll < 0.45:
                        got = store.get(key)
                        gets[worker_id] += 1
                        assert got is None or got["key"] == key
                    elif roll < 0.75:
                        store.put(key, {"key": key, "rev": step})
                    elif roll < 0.9:
                        # Vandal: damage the entry on disk so get and
                        # prune race to unlink the same file.
                        try:
                            store.path_for(key).write_bytes(b"garbage")
                        except OSError:
                            pass
                    else:
                        store.prune()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((worker_id, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Locked counters: every get landed as exactly one hit or miss.
        assert store.stats.hits + store.stats.misses == sum(gets)
        # The store is healthy afterwards.
        store.put(keys[0], {"key": keys[0], "rev": 999})
        assert store.get(keys[0])["rev"] == 999


class TestResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache("off") is None

    def test_env_path_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        store = resolve_cache(None)
        assert store is not None
        assert store.root == tmp_path

    def test_env_off_values(self, monkeypatch):
        for value in ("0", "off", "none"):
            monkeypatch.setenv(CACHE_ENV_VAR, value)
            assert resolve_cache(None) is None

    def test_instances_memoized_per_directory(self, tmp_path):
        first = resolve_cache(str(tmp_path))
        second = resolve_cache(str(tmp_path))
        assert first is second  # shared counters across call sites

    def test_compile_circuit_picks_up_env(self, monkeypatch, tmp_path, config):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        circuit = _adder()
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params())
        store = resolve_cache(None)
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params())
        assert store.stats.hits >= 1
        assert store.entry_count() == 1


class TestWiring:
    def test_compile_best_uses_cache(self, tmp_path, config):
        store = ProgramCache(tmp_path)
        circuit = _adder()

        def score(result):
            return float(result.streams.makespan)

        best_cold, scores_cold = compile_best(
            circuit, config.window, config.n_ges, score,
            params=config.schedule_params(), cache=store,
        )
        assert store.stats.puts == 2  # both reorderings stored
        best_warm, scores_warm = compile_best(
            circuit, config.window, config.n_ges, score,
            params=config.schedule_params(), cache=store,
        )
        assert store.stats.hits == 2
        assert scores_cold == scores_warm
        assert best_warm.opt == best_cold.opt

    def test_multicore_warm_sweep_hits(self, tmp_path):
        store = ProgramCache(tmp_path)
        built = get_workload("ReLU").build(k=16, width=8)
        config = HaacConfig(n_ges=4, sww_bytes=16 * 1024)
        cold = simulate_multicore(built.circuit, config, 4, cache=store)
        assert store.stats.hits == 0
        warm = simulate_multicore(built.circuit, config, 4, cache=store)
        assert store.stats.misses == store.stats.puts
        assert store.stats.hits == 5  # single + 4 shards
        assert cold.core_compute_cycles == warm.core_compute_cycles
        assert cold.total_traffic_cycles == warm.total_traffic_cycles

    def test_multicore_warm_sweep_cross_store(self, tmp_path):
        """Fresh store instance (as in a new process) still hits disk."""
        built = get_workload("ReLU").build(k=16, width=8)
        config = HaacConfig(n_ges=4, sww_bytes=16 * 1024)
        cold = simulate_multicore(
            built.circuit, config, 4, cache=ProgramCache(tmp_path)
        )
        fresh = ProgramCache(tmp_path)
        warm = simulate_multicore(built.circuit, config, 4, cache=fresh)
        assert fresh.stats.hits == 5
        assert fresh.stats.misses == 0
        assert cold.core_compute_cycles == warm.core_compute_cycles

    def test_config_prog_cache_field(self, tmp_path):
        built = get_workload("ReLU").build(k=8, width=8)
        config = HaacConfig(
            n_ges=4, sww_bytes=16 * 1024, prog_cache=str(tmp_path)
        )
        simulate_multicore(built.circuit, config, 2)
        store = resolve_cache(str(tmp_path))
        assert store.entry_count() > 0


class TestScanPrune:
    """Stale-schema census and pruning: pre-current-schema entries are
    unreachable (the schema is baked into the key), so info must not
    count them as live and prune must delete exactly them."""

    def _seed(self, tmp_path, config):
        """One live entry plus one stale-schema and two corrupt files."""
        import pickle

        from repro.core.progcache import CACHE_SCHEMA

        store = ProgramCache(tmp_path)
        result = compile_circuit(
            _adder(), config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
            cache=store,
        )
        stale_key = "ab" * 32
        (tmp_path / f"{stale_key}.pkl").write_bytes(pickle.dumps({
            "schema": CACHE_SCHEMA - 1, "key": stale_key, "result": result,
        }))
        (tmp_path / ("cd" * 32 + ".pkl")).write_bytes(b"not a pickle")
        mismatch_key = "ef" * 32
        (tmp_path / f"{mismatch_key}.pkl").write_bytes(pickle.dumps({
            "schema": CACHE_SCHEMA, "key": "something else", "result": result,
        }))
        return store

    def test_scan_classifies_entries(self, tmp_path, config):
        store = self._seed(tmp_path, config)
        census = store.scan()
        assert census.live == 1
        assert census.stale == 1
        assert census.corrupt == 2  # unparseable + key mismatch
        assert census.live_bytes > 0 and census.stale_bytes > 0
        # The naive file count would report all four as live entries.
        assert store.entry_count() == 4

    def test_scan_empty_store(self, tmp_path):
        assert ProgramCache(tmp_path / "nowhere").scan().as_dict() == {
            "live": 0, "live_bytes": 0, "stale": 0, "stale_bytes": 0,
            "corrupt": 0, "corrupt_bytes": 0,
        }

    def test_prune_keeps_live_entries_loadable(self, tmp_path, config):
        store = self._seed(tmp_path, config)
        removed = store.prune()
        assert removed.stale == 1 and removed.corrupt == 2
        assert removed.live == 0
        after = store.scan()
        assert (after.live, after.stale, after.corrupt) == (1, 0, 0)
        # The surviving entry is the reachable one: a fresh store warms
        # from it without recompiling.
        fresh = ProgramCache(tmp_path)
        key = compile_key(
            _adder(), config.window.capacity, config.n_ges,
            OptLevel.RO_RN_ESW, config.schedule_params(),
        )
        assert fresh.get(key) is not None
        assert fresh.stats.hits == 1

    def test_clear_also_removes_stale(self, tmp_path, config):
        store = self._seed(tmp_path, config)
        assert store.clear() == 4
        assert store.scan().as_dict()["live"] == 0

    def test_cache_cli_info_and_prune(self, tmp_path, config, capsys):
        from repro.cli import main

        self._seed(tmp_path, config)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "live entries" in out and "stale-schema entries" in out
        assert "repro cache prune" in out
        assert main(["cache", "prune", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale-schema and 2 corrupt entries" in out
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert "repro cache prune" not in capsys.readouterr().out
