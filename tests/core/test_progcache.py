"""Persistent compiled-program cache: digests, store, wiring.

The keyed-entry contract both content-addressed stores share -- torn
recovery, concurrency, census/prune and resolution -- runs here once
per codec (``ProgramCache`` and ``ResultStore``).
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import OP_AND, OP_INV, OP_XOR, Circuit
from repro.circuits.stdlib.integer import add, mul
from repro.core import depgraph
from repro.core.compiler import OptLevel, compile_best, compile_circuit
from repro.core.passes.streams import ScheduleParams
from repro.core.progcache import (
    CACHE_ENV_VAR,
    ProgramCache,
    circuit_digest,
    compile_key,
)
from repro.sim.config import HaacConfig
from repro.sim.timing import simulate
from repro.store import ResultStore
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


class _Codec:
    """Drives one store class through the shared tests: entry ``n`` is
    addressed by the codec's own key derivation."""

    SIG = "b" * 64
    SCHEMA = "repro.test_point/v1"

    def __init__(self, cls):
        self.cls = cls

    def put(self, store, n, value):
        digest = f"{n:064x}"
        if self.cls is ProgramCache:
            store.put(digest, value)
            return digest
        return store.put(digest, self.SIG, self.SCHEMA, value)

    def get(self, store, n):
        digest = f"{n:064x}"
        if self.cls is ProgramCache:
            return store.get(digest)
        return store.get(digest, self.SIG, self.SCHEMA)

    def write_stale(self, store, n):
        """Rewrite entry ``n`` under another schema of its store."""
        path = store.path_for(self.put(store, n, {"v": "stale"}))
        envelope = store._loads(path.read_bytes())
        envelope[self.cls.schema_field] = self.cls.schema + 1
        with open(path, "wb") as handle:
            store._dump(envelope, handle)


@pytest.fixture(params=[ProgramCache, ResultStore], ids=lambda cls: cls.__name__)
def codec(request):
    return _Codec(request.param)


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


def _interleaved_digest(circuit):
    """``circuit_digest`` as it stood before the digest was built in one
    block -- the columns interleaved by slice assignment into one
    ``array('q')`` -- kept verbatim (less the memo) as the oracle."""
    n_gates = len(circuit.op)
    n_outputs = len(circuit.outputs)
    h = hashlib.sha256()
    h.update(b"repro.circuit/v1\0")
    h.update(circuit.name.encode("utf-8"))
    h.update(b"\0")
    # Canonical form: int64 header, outputs, then one (op, a, b, out)
    # quadruple per gate -- the columns interleaved by slice assignment.
    head = array(
        "q",
        [circuit.n_garbler_inputs, circuit.n_evaluator_inputs, n_outputs, n_gates],
    )
    head.extend(circuit.outputs)
    body = array("q", bytes(32 * n_gates))
    body[0::4] = array("q", list(circuit.op))
    body[1::4] = circuit.a
    body[2::4] = circuit.b
    body[3::4] = circuit.out
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        head.byteswap()
        body.byteswap()
    h.update(head)
    h.update(body)
    return h.hexdigest()


_wires = st.one_of(st.integers(-1, 64), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _digest_netlists(draw):
    """Columns as the digest reads them, well-formed or not: every op
    code, INV's ``-1``, wire ids up to the int64 range, no gates, no
    outputs, and names outside ASCII."""
    gates = draw(st.lists(
        st.tuples(st.sampled_from([OP_AND, OP_XOR, OP_INV]), _wires, _wires, _wires),
        max_size=40,
    ))
    op, a, b, out = bytearray(), array("q"), array("q"), array("q")
    for code, first, second, wire in gates:
        op.append(code)
        a.append(first)
        b.append(-1 if code == OP_INV else second)
        out.append(wire)
    return Circuit.from_columns(
        draw(st.integers(0, 2**40)), draw(st.integers(0, 2**40)),
        draw(st.lists(_wires, max_size=8)), op, a, b, out,
        draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)),
    )


class TestDigestOracle:
    @settings(max_examples=300, deadline=None)
    @given(circuit=_digest_netlists())
    def test_block_digest_equals_interleaved(self, circuit):
        assert circuit_digest(circuit) == _interleaved_digest(circuit)


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
        assert (reader.stats.hits, reader.stats.misses) == (1, 0)
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

    def test_entry_envelope_is_unchanged(self, tmp_path):
        """An entry in the pickle envelope every earlier release wrote
        is a hit, and a put writes exactly that envelope."""
        result = {"compiled": list(range(8))}
        old = "ab" * 32
        (tmp_path / f"{old}.pkl").write_bytes(pickle.dumps(
            {"schema": 5, "key": old, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        store = ProgramCache(tmp_path, memory=False)
        assert store.get(old) == result
        assert store.stats.hits == 1
        new = "cd" * 32
        store.put(new, result)
        data = store.path_for(new).read_bytes()
        assert pickle.loads(data) == {"schema": 5, "key": new, "result": result}
        assert data == pickle.dumps(
            {"schema": 5, "key": new, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )


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
            "gate_level_column": graph.gate_level_column,
            "wire_level": graph.wire_level,
            "last_reader": graph.last_reader,
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


class TestTornRecovery:
    def test_truncated_entry_dropped_and_recorded(self, tmp_path, codec):
        from repro import faults as faults_mod
        from repro.faults import RecoveryLog

        store = codec.cls(tmp_path, memory=False)
        path = store.path_for(codec.put(store, 1, {"v": 1}))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert codec.get(store, 1) is None
        assert not path.exists()  # unlinked: next run recomputes cleanly
        assert store.stats.corrupt == 1
        assert log.count(codec.cls.namespace, "entry_recovered") == 1


class TestConcurrency:
    """Races the multiplexer exposed: prune/clear unlinking entries a
    concurrent session is mid-get on, and concurrent cold computes
    putting the same digest."""

    def test_entry_unlinked_mid_get_degrades_to_recompile(
        self, tmp_path, codec, monkeypatch
    ):
        from repro import faults as faults_mod
        from repro.faults import RecoveryLog

        store = codec.cls(tmp_path, memory=False)
        key = codec.put(store, 1, {"v": 1})
        assert store.path_for(key).exists()

        # Deterministically lose the race: the entry exists when get()
        # checks, then a "concurrent prune" unlinks it before the read.
        original = codec.cls._load_entry

        def vanish(self, path):
            path.unlink()
            return original(self, path)

        monkeypatch.setattr(codec.cls, "_load_entry", vanish)
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert codec.get(store, 1) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0  # a vanished file is not damage
        assert log.count(codec.cls.namespace, "entry_recovered") == 1

        # The caller's recompute-and-put path is intact.
        monkeypatch.setattr(codec.cls, "_load_entry", original)
        codec.put(store, 1, {"v": 1})
        assert codec.get(store, 1) == {"v": 1}
        assert store.stats.puts == 2

    def test_plain_miss_records_no_recovery_event(self, tmp_path, codec):
        from repro import faults as faults_mod
        from repro.faults import RecoveryLog

        store = codec.cls(tmp_path, memory=False)
        log = RecoveryLog()
        with faults_mod.install(None, log):
            assert codec.get(store, 0) is None
        assert log.count(codec.cls.namespace, "entry_recovered") == 0

    def test_concurrent_put_get_prune_stress(self, tmp_path, codec):
        import random
        import threading

        store = codec.cls(tmp_path, memory=False)
        keys = range(4)
        paths = {n: store.path_for(codec.put(store, n, {"n": n, "rev": -1}))
                 for n in keys}

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
                    n = rng.choice(keys)
                    roll = rng.random()
                    if roll < 0.45:
                        got = codec.get(store, n)
                        gets[worker_id] += 1
                        assert got is None or got["n"] == n
                    elif roll < 0.75:
                        codec.put(store, n, {"n": n, "rev": step})
                    elif roll < 0.9:
                        # Vandal: damage the entry on disk so get and
                        # prune race to unlink the same file.
                        try:
                            paths[n].write_bytes(b"garbage")
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
        codec.put(store, 0, {"n": 0, "rev": 999})
        assert codec.get(store, 0)["rev"] == 999


class TestResolution:
    def test_disabled_by_default(self, monkeypatch, codec):
        monkeypatch.delenv(codec.cls.env_var, raising=False)
        assert codec.cls.resolve(None) is None
        assert codec.cls.resolve(False) is None
        assert codec.cls.resolve("off") is None

    def test_explicit_instance_and_path(self, tmp_path, codec):
        store = codec.cls(tmp_path)
        assert codec.cls.resolve(store) is store
        assert codec.cls.resolve(str(tmp_path)).root == tmp_path
        for spec in (True, "on", "1"):
            assert codec.cls.resolve(spec).root == codec.cls.default_dir()

    def test_env_path_enables(self, monkeypatch, tmp_path, codec):
        monkeypatch.setenv(codec.cls.env_var, str(tmp_path))
        store = codec.cls.resolve(None)
        assert store is not None
        assert store.root == tmp_path

    def test_env_off_values(self, monkeypatch, codec):
        for value in ("0", "off", "none"):
            monkeypatch.setenv(codec.cls.env_var, value)
            assert codec.cls.resolve(None) is None

    def test_instances_memoized_per_directory(self, tmp_path, codec):
        first = codec.cls.resolve(str(tmp_path))
        second = codec.cls.resolve(tmp_path)
        assert first is second  # shared counters across call sites
        # One instance per codec: the other store in the same directory
        # is a different object.
        other = ResultStore if codec.cls is ProgramCache else ProgramCache
        assert other.resolve(str(tmp_path)) is not first

    def test_compile_circuit_picks_up_env(self, monkeypatch, tmp_path, config):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        circuit = _adder()
        compile_circuit(circuit, config.window, config.n_ges,
                        params=config.schedule_params())
        store = ProgramCache.resolve(None)
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


class TestScanPrune:
    """Stale-schema census and pruning: entries under another schema are
    unreachable (the schema is baked into the key), so info must not
    count them as live and prune must delete exactly them."""

    def _seed(self, tmp_path, codec):
        """One live entry plus one stale-schema and two corrupt files."""
        store = codec.cls(tmp_path)
        live = store.path_for(codec.put(store, 1, {"v": 1}))
        codec.write_stale(store, 2)
        suffix = codec.cls.suffix
        (tmp_path / ("cd" * 32 + suffix)).write_bytes(b"not an entry")
        # A valid envelope under another entry's name: key mismatch.
        (tmp_path / ("ef" * 32 + suffix)).write_bytes(live.read_bytes())
        return store

    def test_scan_classifies_entries(self, tmp_path, codec):
        store = self._seed(tmp_path, codec)
        census = store.scan()
        assert census.live == 1
        assert census.stale == 1
        assert census.corrupt == 2  # unparseable + key mismatch
        assert census.live_bytes > 0 and census.stale_bytes > 0
        # The naive file count would report all four as live entries.
        assert store.entry_count() == 4

    def test_scan_empty_store(self, tmp_path, codec):
        assert codec.cls(tmp_path / "nowhere").scan().as_dict() == {
            "live": 0, "live_bytes": 0, "stale": 0, "stale_bytes": 0,
            "corrupt": 0, "corrupt_bytes": 0,
        }

    def test_prune_keeps_live_entries_loadable(self, tmp_path, codec):
        store = self._seed(tmp_path, codec)
        removed = store.prune()
        assert removed.stale == 1 and removed.corrupt == 2
        assert removed.live == 0
        after = store.scan()
        assert (after.live, after.stale, after.corrupt) == (1, 0, 0)
        # The surviving entry is the reachable one: a fresh store warms
        # from it without recomputing.
        fresh = codec.cls(tmp_path)
        assert codec.get(fresh, 1) == {"v": 1}
        assert fresh.stats.hits == 1

    def test_clear_also_removes_stale(self, tmp_path, codec):
        store = self._seed(tmp_path, codec)
        assert store.clear() == 4
        assert store.scan().as_dict()["live"] == 0
        assert codec.get(store, 1) is None

    def test_store_cli_info_and_prune(self, tmp_path, codec, capsys):
        from repro.cli import main

        self._seed(tmp_path, codec)
        assert main(["store", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "live entries" in out and "stale-schema entries" in out
        assert "repro store prune" in out
        assert main(["store", "prune", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{codec.cls.kind}: pruned 1 stale-schema and 2 corrupt entries" in out
        assert main(["store", "info", "--dir", str(tmp_path)]) == 0
        assert "repro store prune" not in capsys.readouterr().out
