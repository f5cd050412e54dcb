"""Parallel sharded backend: spec selection, parity, fallback, transport.

The contract: sharding an AND-level batch across worker processes is
*invisible* -- transcripts (tables, labels, decode bits, accounting)
are bitwise-identical to the serial batched path for every worker
count, and a machine where the pool cannot start silently degrades to
the in-process inner backend.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import add, less_than, mul
from repro.gc.backends import (
    BackendUnavailable,
    ParallelLabelHashBackend,
    available_backends,
    get_backend,
    resolve_backend,
    shutdown_pools,
)
from repro.gc.backends import parallel as parallel_module
from repro.gc.evaluate import evaluate_circuit_batched
from repro.gc.garble import garble_circuit, garble_circuit_batched
from repro.gc.hashing import fixed_key_hash, rekeyed_hash


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    """Leave no worker processes behind for the rest of the suite."""
    yield
    shutdown_pools()


def _mixed16():
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(16)
    ys = builder.add_evaluator_inputs(16)
    builder.mark_outputs(add(builder, xs, ys))
    builder.mark_outputs(mul(builder, xs, ys))
    builder.mark_outputs([less_than(builder, xs, ys)])
    return builder.build("mixed16")


def _random_batch(n=1200, seed=0xFEED):
    rng = random.Random(seed)
    labels = [rng.getrandbits(128) for _ in range(n)]
    tweaks = [rng.getrandbits(48) for _ in range(n)]
    return labels, tweaks


def _pooled_backend(workers=2, **kwargs):
    """A backend that really dispatches (no min-batch bypass)."""
    return ParallelLabelHashBackend(workers=workers, min_batch=1, **kwargs)


class TestSpecSelection:
    def test_registered_and_available(self):
        assert "parallel" in available_backends()
        assert get_backend("parallel").name == "parallel"

    def test_spec_pins_worker_count(self):
        assert get_backend("parallel:3").workers == 3
        assert resolve_backend("parallel:5").workers == 5

    @pytest.mark.parametrize("spec", ["parallel:x", "parallel:0", "parallel:-2"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(BackendUnavailable):
            get_backend(spec)

    def test_optionless_backends_reject_specs(self):
        with pytest.raises(BackendUnavailable, match="options"):
            get_backend("scalar:4")

    def test_env_var_selects_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_GC_BACKEND", "parallel:2")
        backend = resolve_backend(None)
        assert backend.name == "parallel"
        assert backend.workers == 2

    def test_workers_env_var_is_default(self, monkeypatch):
        monkeypatch.setenv(parallel_module.WORKERS_ENV_VAR, "6")
        assert ParallelLabelHashBackend().workers == 6
        # An explicit spec still wins.
        assert get_backend("parallel:2").workers == 2

    def test_workers_env_var_must_be_int(self, monkeypatch):
        monkeypatch.setenv(parallel_module.WORKERS_ENV_VAR, "many")
        with pytest.raises(BackendUnavailable):
            ParallelLabelHashBackend()

    def test_cannot_nest_parallel_inner(self):
        with pytest.raises(BackendUnavailable, match="nest"):
            ParallelLabelHashBackend(workers=2, inner="parallel")


class TestShardBounds:
    def test_partition_is_exact_and_deterministic(self):
        for n in (1, 2, 7, 64, 1201):
            for workers in (1, 2, 3, 8):
                bounds = parallel_module.shard_bounds(n, workers)
                assert bounds == parallel_module.shard_bounds(n, workers)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                assert len(bounds) == min(workers, n)

    def test_sizes_balanced(self):
        sizes = [stop - start for start, stop in parallel_module.shard_bounds(10, 4)]
        assert sizes == [3, 3, 2, 2]


class TestPooledParity:
    """Forced-pool hashing must match the scalar reference exactly."""

    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_hash_labels_matches_scalar(self, rekeyed):
        labels, tweaks = _random_batch()
        hash_fn = rekeyed_hash if rekeyed else fixed_key_hash
        want = [hash_fn(label, tweak) for label, tweak in zip(labels, tweaks)]
        backend = _pooled_backend(workers=2)
        got = backend.hash_labels(labels, tweaks, rekeyed)
        assert got == want
        assert backend.pool_batches >= 1
        assert backend.pool_disabled_reason is None

    def test_scalar_inner_through_pool(self):
        labels, tweaks = _random_batch(n=64)
        want = [rekeyed_hash(label, tweak) for label, tweak in zip(labels, tweaks)]
        backend = _pooled_backend(workers=2, inner="scalar")
        assert not backend.vectorized
        assert backend.hash_labels(labels, tweaks, True) == want
        assert backend.pool_batches == 1

    def test_whole_circuit_transcript_identical(self):
        circuit = _mixed16()
        reference = garble_circuit(circuit, seed=21)
        backend = _pooled_backend(workers=2)
        batched = garble_circuit_batched(circuit, seed=21, backend=backend)
        assert batched.r == reference.r
        assert batched.zero_labels == reference.zero_labels
        assert batched.garbled.tables == reference.garbled.tables
        assert batched.garbled.decode_bits == reference.garbled.decode_bits
        assert batched.hasher.calls == reference.hasher.calls
        assert backend.pool_batches >= 1

        inputs = [
            reference.input_label(wire, bit % 2)
            for bit, wire in enumerate(range(circuit.n_inputs))
        ]
        from repro.gc.evaluate import evaluate_circuit

        want = evaluate_circuit(circuit, reference.garbled, inputs)
        got = evaluate_circuit_batched(
            circuit, batched.garbled, inputs, backend=backend
        )
        assert got.output_labels == want.output_labels
        assert got.output_bits == want.output_bits

    def test_workers_1_bit_identical_to_serial_batched(self):
        """workers=1 takes the in-process path and must equal both the
        serial batched engine and the per-gate reference."""
        circuit = _mixed16()
        serial = garble_circuit_batched(circuit, seed=5)
        one = ParallelLabelHashBackend(workers=1)
        parallel_one = garble_circuit_batched(circuit, seed=5, backend=one)
        assert parallel_one.zero_labels == serial.zero_labels
        assert parallel_one.garbled.tables == serial.garbled.tables
        assert one.pool_batches == 0  # no dispatch at one worker
        reference = garble_circuit(circuit, seed=5)
        assert parallel_one.garbled.tables == reference.garbled.tables

    @pytest.mark.slow
    def test_aes128_transcript_identical_at_4_workers(self):
        from repro.circuits.stdlib.aes_circuit import build_aes128_circuit

        circuit = build_aes128_circuit()
        want = garble_circuit_batched(circuit, seed=2023)
        backend = _pooled_backend(workers=4)
        got = garble_circuit_batched(circuit, seed=2023, backend=backend)
        assert got.zero_labels == want.zero_labels
        assert got.garbled.tables == want.garbled.tables
        assert backend.pool_batches >= 1


class TestResidentSchedules:
    """Whole-program schedule residency: the expansion crosses into the
    workers once; per-level hashes ship only row indices and must stay
    bitwise-identical to gathering the rows in-process."""

    def _program(self, n=400, seed=7):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(seed)
        inner = get_backend("numpy")
        keys = inner.tweaks_to_keys(
            [t for p in range(n) for t in (2 * p, 2 * p + 1)]
        )
        labels = inner.ints_to_blocks(
            [rng.getrandbits(128) for _ in range(n)]
        )
        rows = numpy.asarray(
            [2 * rng.randrange(n) + rng.randrange(2) for _ in range(n)],
            dtype=numpy.int64,
        )
        return numpy, inner, keys, labels, rows

    def test_resident_rows_match_inprocess_gather(self):
        numpy, inner, keys, labels, rows = self._program()
        want = inner.hash_with_schedules(
            labels, inner.expand_keys(keys)[rows]
        )
        backend = _pooled_backend(workers=2)
        sched = backend.expand_keys_program(keys)
        assert isinstance(sched, parallel_module.ResidentSchedules)
        assert numpy.array_equal(sched.array, inner.expand_keys(keys))
        got = backend.hash_schedule_rows(labels, sched, rows)
        assert numpy.array_equal(got, want)
        assert backend.pool_batches >= 2  # expand + one row batch
        assert backend.pool_disabled_reason is None

    def test_concurrent_programs_stay_resident(self):
        """Two sessions' expansions coexist on one pool: expanding a
        second program must not retire the first handle's rows (the
        pre-multiplexer design kept a single block per pool)."""
        numpy, inner, keys, labels, rows = self._program(n=300)
        want = inner.hash_with_schedules(
            labels, inner.expand_keys(keys)[rows]
        )
        backend = _pooled_backend(workers=2)
        first = backend.expand_keys_program(keys)
        second = backend.expand_keys_program(keys)
        assert first.generation != second.generation
        assert backend._resident_pool(first) is not None
        assert backend._resident_pool(second) is not None
        for sched in (first, second):
            got = backend.hash_schedule_rows(labels, sched, rows)
            assert numpy.array_equal(got, want)

    def test_evicted_generation_degrades_to_parent_copy(self):
        numpy, inner, keys, labels, rows = self._program(n=300)
        want = inner.hash_with_schedules(
            labels, inner.expand_keys(keys)[rows]
        )
        backend = _pooled_backend(workers=2)
        sched = backend.expand_keys_program(keys)
        # Overflow the per-pool residency cap: the oldest generation is
        # evicted LRU and its handle degrades to the parent-side copy.
        for _ in range(parallel_module._SCHED_BLOCK_CAP):
            backend.expand_keys_program(keys)
        assert backend._resident_pool(sched) is None
        got = backend.hash_schedule_rows(labels, sched, rows)
        assert numpy.array_equal(got, want)

    def test_pool_death_after_expand_falls_back(self, monkeypatch):
        numpy, inner, keys, labels, rows = self._program(n=256)
        want = inner.hash_with_schedules(
            labels, inner.expand_keys(keys)[rows]
        )
        backend = _pooled_backend(workers=2)
        sched = backend.expand_keys_program(keys)
        with pytest.warns(RuntimeWarning, match="parallel gc pool disabled"):
            backend._disable(RuntimeError("simulated pool loss"))
        got = backend.hash_schedule_rows(labels, sched, rows)
        assert numpy.array_equal(got, want)

    def test_small_program_uses_plain_expansion(self):
        numpy, inner, keys, labels, rows = self._program(n=40)
        backend = ParallelLabelHashBackend(workers=2, min_batch=10_000)
        sched = backend.expand_keys_program(keys)
        assert not isinstance(sched, parallel_module.ResidentSchedules)
        want = inner.hash_with_schedules(labels, sched[rows])
        got = backend.hash_schedule_rows(labels, sched, rows)
        assert numpy.array_equal(got, want)
        assert backend.pool_batches == 0

    def test_batched_garble_ships_rows_not_schedules(self):
        """The vectorized garbler should re-use the resident expansion:
        transcripts stay identical to serial while the pool sees one
        expand dispatch plus row-indexed hash dispatches."""
        circuit = _mixed16()
        serial = garble_circuit_batched(circuit, seed=31)
        backend = _pooled_backend(workers=2)
        pooled = garble_circuit_batched(circuit, seed=31, backend=backend)
        assert pooled.zero_labels == serial.zero_labels
        assert pooled.garbled.tables == serial.garbled.tables
        assert backend.pool_disabled_reason is None
        assert backend.pool_batches >= 2


class TestSilentFallback:
    def test_pool_start_failure_falls_back(self, monkeypatch):
        """A machine where worker processes cannot start must still
        produce correct hashes -- observably: one RuntimeWarning, the
        reason recorded on the instance."""

        def boom(workers, inner_name, start_method):
            raise OSError("fork refused by sandbox")

        monkeypatch.setattr(parallel_module, "_get_pool", boom)
        labels, tweaks = _random_batch(n=700)
        want = [rekeyed_hash(label, tweak) for label, tweak in zip(labels, tweaks)]
        backend = _pooled_backend(workers=4)
        with pytest.warns(RuntimeWarning, match="parallel gc pool disabled"):
            assert backend.hash_labels(labels, tweaks, True) == want
        assert "fork refused" in backend.pool_disabled_reason
        assert backend.pool_batches == 0
        # Once disabled, later batches go straight to the inner backend.
        assert backend.hash_labels(labels, tweaks, False) == [
            fixed_key_hash(label, tweak) for label, tweak in zip(labels, tweaks)
        ]

    def test_vectorized_dispatch_failure_falls_back(self, monkeypatch):
        numpy = pytest.importorskip("numpy")
        backend = _pooled_backend(workers=2)
        if not backend.vectorized:  # pragma: no cover - numpy present
            pytest.skip("needs the vectorized inner backend")

        def boom(*args, **kwargs):
            raise RuntimeError("worker lost")

        monkeypatch.setattr(parallel_module, "_get_pool", boom)
        labels, tweaks = _random_batch(n=600)
        blocks = backend.ints_to_blocks(labels)
        keys = backend.tweaks_to_keys(tweaks)
        scheds = get_backend("numpy").expand_keys(keys)
        want = get_backend("numpy").hash_with_schedules(blocks, scheds)
        with pytest.warns(RuntimeWarning, match="parallel gc pool disabled"):
            got = backend.hash_with_schedules(
                blocks, backend.expand_keys(keys)
            )
        assert numpy.array_equal(got, want)
        assert "worker lost" in backend.pool_disabled_reason

    def test_small_batches_never_dispatch(self):
        backend = ParallelLabelHashBackend(workers=4, min_batch=10_000)
        labels, tweaks = _random_batch(n=50)
        want = [rekeyed_hash(label, tweak) for label, tweak in zip(labels, tweaks)]
        assert backend.hash_labels(labels, tweaks, True) == want
        assert backend.pool_batches == 0

    def test_disable_retires_shared_pool_handle(self):
        """After a dispatch failure the shared pool (and its transport
        blocks a zombie shard could still write into) must be gone, not
        inherited by the next same-config backend instance."""
        backend = _pooled_backend(workers=2)
        labels, tweaks = _random_batch(n=300)
        backend.hash_labels(labels, tweaks, True)
        key = (backend.workers, backend.inner_name, backend.start_method)
        assert key in parallel_module._POOLS
        with pytest.warns(RuntimeWarning, match="parallel gc pool disabled"):
            backend._disable(RuntimeError("simulated shard timeout"))
        assert key not in parallel_module._POOLS
        assert "simulated shard timeout" in backend.pool_disabled_reason
        # The instance stays correct on the serial path...
        want = [rekeyed_hash(label, tweak) for label, tweak in zip(labels, tweaks)]
        assert backend.hash_labels(labels, tweaks, True) == want
        # ...and a fresh instance builds a fresh pool with fresh blocks.
        fresh = _pooled_backend(workers=2)
        assert fresh.hash_labels(labels, tweaks, True) == want
        assert fresh.pool_disabled_reason is None


class TestSpawnTransport:
    """Spawn-based platforms re-import the worker module and pickle the
    initializer and every task tuple; both must survive pickling."""

    def test_worker_entry_points_pickle(self):
        for obj in (parallel_module._worker_init, parallel_module._run_shard):
            assert pickle.loads(pickle.dumps(obj)) is obj

    def test_task_tuples_are_primitive_and_picklable(self):
        for task in (
            ("sched", "psm_in", "psm_out", 0, 128, 512, True, None),
            (
                "sched_rows", "psm_in", "psm_out", 0, 128, 512, True,
                ("psm_sched", 512),
            ),
        ):
            assert pickle.loads(pickle.dumps(task)) == task
            flat = [
                item
                for field in task
                for item in (field if isinstance(field, tuple) else (field,))
            ]
            for item in flat:
                assert item is None or isinstance(item, (str, int, bool))

    @pytest.mark.slow
    def test_spawn_pool_round_trip(self):
        """A real spawn pool (fresh interpreters, pickled init/tasks)
        must produce the same hashes as the scalar reference."""
        labels, tweaks = _random_batch(n=900)
        want = [rekeyed_hash(label, tweak) for label, tweak in zip(labels, tweaks)]
        backend = _pooled_backend(workers=2, start_method="spawn")
        assert backend.hash_labels(labels, tweaks, True) == want
        assert backend.pool_disabled_reason is None
        assert backend.pool_batches == 1


class TestConfigAndProtocolWiring:
    def test_gc_backend_spec_combinations(self):
        from repro.sim.config import HaacConfig

        config = HaacConfig()
        assert config.gc_backend_spec() is None
        assert config.with_gc_backend("numpy").gc_backend_spec() == "numpy"
        assert config.with_gc_workers(4).gc_backend_spec() == "parallel:4"
        assert (
            config.with_gc_backend("auto").with_gc_workers(2).gc_backend_spec()
            == "parallel:2"
        )
        assert (
            config.with_gc_backend("parallel").with_gc_workers(3).gc_backend_spec()
            == "parallel:3"
        )
        # An explicit non-parallel backend wins over gc_workers.
        assert (
            config.with_gc_backend("scalar").with_gc_workers(8).gc_backend_spec()
            == "scalar"
        )

    def test_gc_workers_validated(self):
        from repro.sim.config import HaacConfig

        with pytest.raises(ValueError):
            HaacConfig(gc_workers=0)

    def test_functional_machine_runs_parallel_spec(self):
        from repro.core.compiler import OptLevel, compile_circuit
        from repro.sim.config import HaacConfig
        from repro.sim.functional import run_functional

        circuit = _mixed16()
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16, gc_workers=2)
        result = compile_circuit(
            circuit, config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        bits_g = [1, 0] * 8
        bits_e = [0, 1] * 8
        g2, e2 = result.lowered.adapt_inputs(bits_g, bits_e)
        want = run_functional(result.streams, g2, e2, seed=6)
        got = run_functional(result.streams, g2, e2, seed=6, config=config)
        assert got.output_bits == want.output_bits
        assert got.output_labels == want.output_labels

    def test_two_party_session_parallel_spec(self):
        from repro.gc.protocol import run_two_party

        circuit = _mixed16()
        garbler_bits = [1, 0] * 8
        evaluator_bits = [0, 1] * 8
        want = run_two_party(circuit, garbler_bits, evaluator_bits, seed=13)
        got = run_two_party(
            circuit, garbler_bits, evaluator_bits, seed=13, backend="parallel:2"
        )
        assert got.output_bits == want.output_bits
        assert got.traffic == want.traffic
        assert got.total_bytes == want.total_bytes

    def test_cli_workers_flag(self, capsys):
        from repro.cli import main

        assert main(["protocol", "--alice", "5", "--bob", "3", "--width", "8",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "richer: Alice" in out

    def test_cli_workers_rejects_non_parallel_backend(self, capsys):
        from repro.cli import main

        code = main(["protocol", "--backend", "numpy", "--workers", "2"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_cli_workers_combines_with_parallel_spec(self, capsys):
        from repro.cli import main

        # The explicit flag wins over a count pinned in the spec.
        assert main(["protocol", "--alice", "5", "--bob", "3", "--width", "8",
                     "--backend", "parallel:4", "--workers", "2"]) == 0
        assert "richer: Alice" in capsys.readouterr().out

