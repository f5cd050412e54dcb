"""The five benchmark workloads.

Each workload is a closed loop with one client: ``run_op`` is the unit
timed for ``op_min_s``, ``check`` compares its output with a reference
that does not share code with the path under test, and ``run_traced_op``
repeats the op with spans recorded from here, around calls into the
layers' public functions.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``perf/README.md``.

Importing this module imports ``repro``: only the measured child process
and the tests do so, never the orchestrating parent, so the import cost
lands in ``setup_s``.
"""

from __future__ import annotations

import copy
import os
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.circuits.stdlib.integer import add, less_than, mul
from repro.core import depgraph
from repro.core.assembler import assemble
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.passes.esw import eliminate_spent_wires
from repro.core.passes.rename import rename
from repro.core.passes.reorder import depth_first_order, full_reorder
from repro.core.passes.streams import generate_streams
from repro.core.progcache import ProgramCache, compile_key
from repro.core.program import HaacProgram
from repro.core.verify import verify_streams
from repro.gc.backends import resolve_backend
from repro.gc.channel import make_framed_pair
from repro.gc.evaluate import evaluate_circuit_batched
from repro.gc.garble import garble_circuit_batched
from repro.gc.ot import run_ot_batch
from repro.gc.protocol import StreamedDriver, TwoPartySession
from repro.gc.serialize import garbled_from_bytes, garbled_to_bytes
from repro.serve import SessionMultiplexer, SessionSpec, Supervisor
from repro.sim.config import HaacConfig
from repro.sim.coupled import coupled_runtime_batch, pull_based_runtime
from repro.sim.dram import DramSpec
from repro.sim.timing import simulate, simulate_batch
from repro.workloads import get_workload

from .ledger import Tracer, median

__all__ = ["Op", "OpFailed", "Workload", "WORKLOADS", "make"]


#: DRAM bandwidths (GB/s) and queue sizes (B/GE) of the sweep grid.
SWEEP_BANDWIDTHS = (4.4, 8.8, 17.6, 35.2, 70.4, 140.8, 512.0, 1024.0)
SWEEP_QUEUES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
SWEEP_FORWARD = (1, 2, 4)
SWEEP_WRITEBACK = (1, 2, 3)
#: Grid points per program re-run on the reference engine.
SWEEP_SAMPLES = 3


class OpFailed(Exception):
    """An op's output differs from its reference (counted, never raised
    past the op loop)."""


@dataclass
class Op:
    """One timed operation and what it produced."""

    wall_s: float
    #: Latency from op start to the first usable result.  Ops that
    #: stream no levels deliver one result, so it equals ``wall_s``.
    first_level_s: float
    result: Any = None


def _timed(fn: Callable[[], Any], reps: int) -> "tuple[float, Any]":
    """Median wall of ``reps`` calls and the last return value."""
    walls = []
    value = None
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        walls.append(time.perf_counter() - start)
    return median(walls), value


class Workload:
    """Common shape of a workload; subclasses fill in the five hooks."""

    name = ""
    #: Name of this workload's staged-vs-fused residue metric, if any.
    unattributed_name: Optional[str] = None

    def __init__(self, seed: int, stream: int, full: bool, scratch: Path) -> None:
        self.seed = seed
        self.stream = stream
        self.full = full
        self.scratch = scratch
        #: Exact metrics of the first checked op; every later op must
        #: repeat them.
        self._exact: Optional[Dict[str, float]] = None
        #: Counts gathered while tracing (gates, steps, ...).
        self.counts: Dict[str, float] = {}

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{self.stream}/{index}")

    # -- hooks ---------------------------------------------------------

    def setup(self) -> None:
        """Build inputs and caches, then run one untimed warm-up op."""
        raise NotImplementedError

    def inputs(self, index: int) -> Any:
        return None

    def run_op(self, inputs: Any) -> Op:
        raise NotImplementedError

    def run_traced_op(self, inputs: Any, tracer: Tracer) -> Op:
        raise NotImplementedError

    def check(self, index: int, inputs: Any, op: Op) -> Dict[str, float]:
        """Untimed: raise :class:`OpFailed` unless the op's output
        matches the reference; return the op's exact metrics."""
        raise NotImplementedError

    def isolated_layers(self) -> Dict[str, float]:
        """Per-layer metrics from calls made outside the op loop."""
        return {}

    # -- shared --------------------------------------------------------

    def checked(self, index: int, inputs: Any, op: Op) -> Dict[str, float]:
        exact = self.check(index, inputs, op)
        if self._exact is None:
            self._exact = exact
        elif exact != self._exact:
            raise OpFailed(f"exact metrics moved: {self._exact} -> {exact}")
        return exact

    def layers(
        self, tracer: Tracer, traced: Sequence["tuple[int, Op]"]
    ) -> Dict[str, float]:
        """Per-layer metrics of a traced pass over ``traced`` (tracer op
        id, op) pairs: the median per-op self time of every span name,
        the share of the op wall the spans leave unexplained, the counts
        and the isolated calls."""
        per_op = tracer.per_op()
        totals = [per_op.get(op_id, {}) for op_id, _ in traced]
        names = sorted({name for spans in totals for name in spans})
        out = {
            f"{name}_s": median([spans.get(name, 0.0) for spans in totals])
            for name in names
        }
        if self.unattributed_name is not None:
            out[self.unattributed_name] = median(
                [
                    (op.wall_s - sum(spans.values())) / op.wall_s
                    for (_, op), spans in zip(traced, totals)
                ]
            )
        out.update(self.counts)
        out.update(self.isolated_layers())
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# session_aes128 / session_ot_heavy
# ----------------------------------------------------------------------

CTOR = "gc.protocol.ctor"
HANDSHAKE = "gc.protocol.handshake"
GARBLE = "gc.protocol.garble_steps"
EVAL = "gc.protocol.eval_steps"
FINISH = "gc.protocol.finish"


def _session_inputs(rng: random.Random, circuit):
    """Random ``(garbler_bits, evaluator_bits, session_seed)``."""
    return (
        [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)],
        [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)],
        rng.getrandbits(32),
    )


def build_mixed8():
    """The add/mul/compare circuit ``repro.bench.protocol`` calls
    ``mixed8``, rebuilt here so the benchmark does not import a module a
    later simplification may delete."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(8)
    ys = builder.add_evaluator_inputs(8)
    builder.mark_outputs(add(builder, xs, ys))
    builder.mark_outputs(mul(builder, xs, ys))
    builder.mark_outputs([less_than(builder, xs, ys)])
    return builder.build("mixed8")


class SessionWorkload(Workload):
    """``TwoPartySession`` construction + ``run_streamed`` on random bits."""

    unattributed_name = "gc.protocol.unattributed_share"

    def build(self):
        """Return ``(circuit, reference(garbler_bits, evaluator_bits))``."""
        raise NotImplementedError

    def setup(self) -> None:
        self.circuit, self.reference = self.build()
        #: Transcript digest per input index: the step-classified drive
        #: and run_streamed run the same index and must agree.
        self._digests: Dict[int, str] = {}
        self.run_op(self.inputs(0))

    def inputs(self, index: int):
        return _session_inputs(self.rng(index), self.circuit)

    def run_op(self, inputs) -> Op:
        garbler_bits, evaluator_bits, session_seed = inputs
        start = time.perf_counter()
        session = TwoPartySession(self.circuit, seed=session_seed, backend="auto")
        constructed = time.perf_counter()
        result = session.run_streamed(garbler_bits, evaluator_bits)
        end = time.perf_counter()
        return Op(
            end - start, (constructed - start) + result.first_level_s, result
        )

    def run_traced_op(self, inputs, tracer: Tracer) -> Op:
        """Step the public ``StreamedDriver`` and classify each step from
        outside, by what it changed."""
        garbler_bits, evaluator_bits, session_seed = inputs
        start = time.perf_counter()
        session = TwoPartySession(self.circuit, seed=session_seed, backend="auto")
        constructed = time.perf_counter()
        tracer.record(CTOR, start, constructed)
        # run_streamed builds the driver itself; its construction is
        # charged to the handshake here.
        driver = StreamedDriver(session, garbler_bits, evaluator_bits)
        tracer.record(HANDSHAKE, constructed, time.perf_counter())
        steps = 0
        while not driver.done:
            started = driver.levels_total is not None
            evaluated = driver.levels_evaluated
            step_start = time.perf_counter()
            driver.step()
            step_end = time.perf_counter()
            if not started:
                name = HANDSHAKE
            elif driver.done:
                name = FINISH
            elif driver.levels_evaluated > evaluated:
                name = EVAL
            else:
                name = GARBLE
            tracer.record(name, step_start, step_end)
            steps += 1
        end = time.perf_counter()
        self.counts["gc.protocol.steps"] = steps
        result = driver.result
        return Op(
            end - start, (constructed - start) + result.first_level_s, result
        )

    def check(self, index, inputs, op) -> Dict[str, float]:
        garbler_bits, evaluator_bits, _ = inputs
        result = op.result
        expected = list(self.reference(garbler_bits, evaluator_bits))
        if list(result.output_bits) != expected:
            raise OpFailed("session output differs from the plaintext reference")
        if self._digests.setdefault(index, result.transcript_digest) != (
            result.transcript_digest
        ):
            raise OpFailed(
                "step-classified transcript digest differs from run_streamed's"
            )
        return {"wire_bytes": result.total_bytes}

    def isolated_layers(self) -> Dict[str, float]:
        """Each layer called alone on the op's circuit.  These overlap
        each other (garble re-validates, evaluate re-validates) and the
        session, so they do not sum to anything."""
        circuit = self.circuit
        reps = 3 if self.full else 1
        rng = self.rng(-1)
        garbler_bits, evaluator_bits, session_seed = self.inputs(0)
        out: Dict[str, float] = {"circuits.gates": len(circuit.gates)}

        out["circuits.validate_s"], _ = _timed(circuit.validate, reps)
        # and_level_schedule is memoized on the instance; a shallow copy
        # drops the memo, so the cold derivation is what is timed.
        out["circuits.and_level_schedule_s"], _ = _timed(
            lambda: copy.copy(circuit).and_level_schedule(), reps
        )

        choices = list(evaluator_bits)
        pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in choices]
        ot_s, chosen = _timed(
            lambda: run_ot_batch(pairs, choices, seed=session_seed), reps
        )
        if chosen != [pair[bit] for pair, bit in zip(pairs, choices)]:
            raise OpFailed("isolated OT batch returned the wrong messages")
        out["gc.ot.batch_s"] = ot_s
        out["gc.ot.choices"] = len(choices)
        out["gc.ot.per_choice_ms"] = 1e3 * ot_s / len(choices)

        out["gc.garble.batched_s"], garbler = _timed(
            lambda: garble_circuit_batched(circuit, seed=session_seed, backend="auto"),
            reps,
        )
        garbled = garbler.garbled
        out["gc.garble.and_gates"] = garbled.n_and_gates
        labels = garbler.input_labels_for(
            range(circuit.n_inputs), list(garbler_bits) + list(evaluator_bits)
        )
        out["gc.evaluate.batched_s"], evaluated = _timed(
            lambda: evaluate_circuit_batched(circuit, garbled, labels, backend="auto"),
            reps,
        )
        if evaluated.output_bits != list(self.reference(garbler_bits, evaluator_bits)):
            raise OpFailed("isolated garble/evaluate output differs from the reference")
        out["gc.evaluate.hash_calls"] = evaluated.hash_calls

        n_labels = 4 * garbled.n_and_gates
        blocks = [rng.getrandbits(128) for _ in range(n_labels)]
        tweaks = list(range(n_labels))
        backend = resolve_backend("auto")
        out["gc.backends.hash_labels_s"], _ = _timed(
            lambda: backend.hash_labels(blocks, tweaks, True), reps
        )
        out["gc.backends.labels_per_s"] = n_labels / out["gc.backends.hash_labels_s"]

        out["gc.serialize.to_bytes_s"], blob = _timed(
            lambda: garbled_to_bytes(garbled), reps
        )
        out["gc.serialize.from_bytes_s"], parsed = _timed(
            lambda: garbled_from_bytes(blob), reps
        )
        if parsed.tables != garbled.tables:
            raise OpFailed("serialized tables do not round-trip")
        out["gc.serialize.table_bytes"] = len(blob)

        def send_recv():
            pair = make_framed_pair()
            pair.to_evaluator.send_message("tables", blob)
            if pair.to_evaluator.recv_message("tables") != blob:
                raise OpFailed("framed channel corrupted the table blob")
            return pair.total_bytes

        out["gc.channel.send_recv_s"], out["gc.channel.wire_bytes"] = _timed(
            send_recv, reps
        )
        return out


class SessionAes128(SessionWorkload):
    name = "session_aes128"

    def build(self):
        circuit = build_aes128_circuit() if self.full else build_mixed8()
        return circuit, circuit.eval_plain


class SessionOtHeavy(SessionWorkload):
    name = "session_ot_heavy"

    def build(self):
        built = get_workload("Hamm").build(n_bits=512 if self.full else 32)
        return built.circuit, built.reference


# ----------------------------------------------------------------------
# compile_cold
# ----------------------------------------------------------------------


class CompileCold(Workload):
    """Registry cleared, netlist rebuilt, every compiler pass run."""

    name = "compile_cold"
    unattributed_name = "core.compile.unattributed_share"

    def setup(self) -> None:
        self.config = HaacConfig.paper_default()
        self.program = get_workload("MatMult" if self.full else "ReLU")
        self.params = {} if self.full else {"k": 8}
        #: ``verify_streams`` outcome, established on the first check.
        self.reference = verify_streams
        self._verified: Optional[bool] = None
        self._last_streams = None
        self.run_op(None)

    def run_op(self, inputs) -> Op:
        config = self.config
        start = time.perf_counter()
        depgraph.clear_registry()
        built = self.program.build_scaled(**self.params)
        compiled = compile_circuit(
            built.circuit,
            config.window,
            config.n_ges,
            OptLevel.RO_RN_ESW,
            params=config.schedule_params(),
            cache=False,
        )
        wall = time.perf_counter() - start
        return Op(wall, wall, compiled.streams)

    def run_traced_op(self, inputs, tracer: Tracer) -> Op:
        """The pipeline of ``compile_circuit(RO_RN_ESW, cache=False)``
        re-staged from the same public functions; ``check`` holds it to
        the fused call's ``sim_cycles``."""
        config = self.config
        window = config.window
        graphs_before = depgraph.build_counts()["graphs"]
        start = time.perf_counter()
        depgraph.clear_registry()
        with tracer.span("circuits.build"):
            built = self.program.build_scaled(**self.params)
        with tracer.span("core.assembler.assemble"):
            program, lowered = assemble(built.circuit)
        passes = list(program.applied_passes)
        with tracer.span("core.passes.reorder.depth_first"):
            netlist = depth_first_order(lowered.circuit)
        with tracer.span("core.passes.reorder.full_reorder"):
            netlist = full_reorder(netlist)
        with tracer.span("core.passes.rename.rename"):
            netlist = rename(netlist)
        passes += ["depth_first(baseline)", "full_reorder", "rename"]
        with tracer.span("core.program.from_netlist"):
            program = HaacProgram.from_netlist(
                netlist, name=built.circuit.name, applied_passes=passes
            )
        graph = depgraph.dep_graph(netlist)
        with tracer.span("core.passes.esw.esw"):
            program, report = eliminate_spent_wires(program, window, graph=graph)
        with tracer.span("core.passes.streams.generate"):
            streams = generate_streams(
                program, window, config.n_ges, config.schedule_params(), graph=graph
            )
        wall = time.perf_counter() - start
        self.counts["core.depgraph.builds"] = (
            depgraph.build_counts()["graphs"] - graphs_before
        )
        self.counts["core.passes.esw.spent_wire_share"] = report.spent_pct / 100.0
        self.counts["core.passes.streams.instructions"] = len(program.instructions)
        # Kept for the isolated calls -- by the traced pass only: an
        # untraced op is not timed under the previous op's streams.
        self._last_streams = streams
        return Op(wall, wall, streams)

    def check(self, index, inputs, op) -> Dict[str, float]:
        streams = op.result
        if self._verified is None:
            # Checked once: the compiler is deterministic, and the exact
            # metrics below tie every later op to this one.
            self._verified = False
            self.reference(streams)
            self._verified = True
        if not self._verified:
            raise OpFailed("verify_streams rejected the compiled streams")
        sim = simulate(streams, self.config)
        return {
            "sim_cycles": sim.runtime_cycles,
            "wire_bytes": sim.ledger.total_bytes,
        }

    def isolated_layers(self) -> Dict[str, float]:
        streams = self._last_streams
        reps = 3 if self.full else 1
        netlist = streams.program.netlist
        out: Dict[str, float] = {}
        # A shallow copy carries no memoized graph, and skipping the
        # registry forces the build the passes otherwise share.
        out["core.depgraph.build_s"], _ = _timed(
            lambda: depgraph.dep_graph(copy.copy(netlist), use_registry=False), reps
        )
        out["core.verify.verify_s"], _ = _timed(lambda: verify_streams(streams), reps)
        return out


# ----------------------------------------------------------------------
# sweep_warm
# ----------------------------------------------------------------------


class SweepWarm(Workload):
    """Program-cache reads plus the batched replays, no compiler pass."""

    name = "sweep_warm"
    unattributed_name = "sim.sweep.unattributed_share"

    def setup(self) -> None:
        self.config = HaacConfig.paper_default()
        specs = [
            DramSpec(name=f"{gb_s:g}GB/s", bandwidth_gb_s=gb_s)
            for gb_s in SWEEP_BANDWIDTHS
        ]
        self.variants = self.config.variants(
            dram=specs,
            cross_ge_forward=list(SWEEP_FORWARD),
            writeback_stages=list(SWEEP_WRITEBACK),
        )
        if self.full:
            self.built = [
                get_workload(name).build_scaled()
                for name in ("ReLU", "Hamm", "GradDesc")
            ]
        else:
            self.built = [
                get_workload("ReLU").build_scaled(k=8),
                get_workload("Hamm").build(n_bits=32),
            ]
        self.cache_dir = self.scratch / "progcache"
        # The write side: cold compile, level partition and put.
        for built in self.built:
            self._compile(built, ProgramCache(self.cache_dir))
        self.cache_entry_mb = _dir_mb(self.cache_dir)
        picker = self.rng(-1)
        self._sampled = [
            sorted(picker.sample(range(len(self.variants)), SWEEP_SAMPLES))
            for _ in self.built
        ]
        self.reference = self._reference_point
        self._references: Optional[List[List[tuple]]] = None
        self.run_op(None)

    def _compile(self, built, cache: ProgramCache):
        config = self.config
        return compile_circuit(
            built.circuit,
            config.window,
            config.n_ges,
            OptLevel.RO_RN_ESW,
            params=config.schedule_params(),
            cache=cache,
        )

    def _key(self, circuit) -> str:
        config = self.config
        return compile_key(
            circuit,
            config.window.capacity,
            config.n_ges,
            OptLevel.RO_RN_ESW,
            config.schedule_params(),
        )

    def _reference_point(self, streams, config) -> tuple:
        return _sim_signature(simulate(streams, config.with_sim_engine("reference")))

    def _replay(self, streams, span) -> tuple:
        """The four replays of one program, each under ``span(name)``."""
        config = self.config
        with span("sim.engine.first_simulate"):
            decoupled = simulate(streams, config)
        with span("sim.timing.simulate_batch"):
            grid = simulate_batch(streams, self.variants)
        with span("sim.coupled.queue_batch"):
            coupled_runtime_batch(streams, config, SWEEP_QUEUES, decoupled=decoupled)
        with span("sim.coupled.pull_based"):
            pull_based_runtime(streams, config)
        return decoupled, grid

    def run_op(self, inputs) -> Op:
        points = []
        start = time.perf_counter()
        for built in self.built:
            cache = ProgramCache(self.cache_dir)
            streams = self._compile(built, cache).streams
            points.append(
                (cache.stats.hits, streams, *self._replay(streams, _no_span))
            )
        wall = time.perf_counter() - start
        return Op(wall, wall, points)

    def run_traced_op(self, inputs, tracer: Tracer) -> Op:
        """Same calls; the cache read is staged as the ``compile_key`` +
        ``get`` that ``compile_circuit`` performs on a hit."""
        points = []
        start = time.perf_counter()
        for built in self.built:
            with tracer.span("core.progcache.get"):
                cache = ProgramCache(self.cache_dir)
                streams = cache.get(self._key(built.circuit)).streams
            points.append(
                (cache.stats.hits, streams, *self._replay(streams, tracer.span))
            )
        wall = time.perf_counter() - start
        return Op(wall, wall, points)

    def check(self, index, inputs, op) -> Dict[str, float]:
        points = op.result
        if any(hits != 1 for hits, *_ in points):
            raise OpFailed("a program was not served from the disk cache")
        if self._references is None:
            # The reference engine replays each sampled grid point once;
            # every op's batched result is held to it bit for bit.
            self._references = [
                [self.reference(streams, self.variants[at]) for at in sampled]
                for (_, streams, _, _), sampled in zip(points, self._sampled)
            ]
        for (_, _, _, grid), sampled, expected in zip(
            points, self._sampled, self._references
        ):
            if [_sim_signature(grid[at]) for at in sampled] != expected:
                raise OpFailed("batched replay differs from the reference engine")
        return {
            "sim_cycles": sum(d.runtime_cycles for _, _, d, _ in points),
            "wire_bytes": sum(d.ledger.total_bytes for _, _, d, _ in points),
            "cache_entry_mb": self.cache_entry_mb,
        }

    def isolated_layers(self) -> Dict[str, float]:
        config = self.config
        reps = 3 if self.full else 1
        out: Dict[str, float] = {
            "sim.timing.configs": len(self.variants),
            "core.progcache.entry_mb": self.cache_entry_mb,
        }
        # The digest is memoized on the circuit; time it on memo-free copies.
        out["core.progcache.digest_s"], _ = _timed(
            lambda: [self._key(copy.copy(built.circuit)) for built in self.built],
            reps,
        )
        # Loaded here rather than kept from an op: an op that held the
        # previous op's programs alive would be timed under their weight.
        loaded = [
            ProgramCache(self.cache_dir).get(self._key(built.circuit))
            for built in self.built
        ]

        def put_all():
            store = ProgramCache(self.scratch / "progcache-put", memory=False)
            for built, compiled in zip(self.built, loaded):
                store.put(self._key(built.circuit), compiled)
            return store

        out["core.progcache.put_s"], store = _timed(put_all, reps)
        if store.stats.puts != len(self.built):
            raise OpFailed("isolated cache put did not persist every program")
        for compiled in loaded:
            simulate(compiled.streams, config)  # builds the replay plan
        out["sim.timing.simulate_s"], _ = _timed(
            lambda: [simulate(c.streams, config) for c in loaded], reps
        )
        instructions = sum(len(c.streams.program.instructions) for c in loaded)
        out["sim.timing.instr_per_s"] = instructions / out["sim.timing.simulate_s"]
        return out


def _no_span(name: str):
    return nullcontext()


def _sim_signature(sim) -> tuple:
    return (
        sim.compute_cycles,
        sim.traffic_cycles,
        sim.runtime_cycles,
        tuple(sorted(sim.stalls.as_dict().items())),
    )


def _dir_mb(path: Path) -> float:
    return sum(entry.stat().st_size for entry in path.iterdir()) / 1e6


# ----------------------------------------------------------------------
# service_small
# ----------------------------------------------------------------------


class ServiceSmall(Workload):
    """One batch of short sessions through a fresh ``Supervisor``."""

    name = "service_small"

    def setup(self) -> None:
        self.circuit = build_mixed8()
        self.reference = self.circuit.eval_plain
        self.n_sessions = 24 if self.full else 4
        self.max_concurrent = max(1, len(os.sched_getaffinity(0)) // 2)
        rng = self.rng(0)
        self.sessions = [
            _session_inputs(rng, self.circuit) for _ in range(self.n_sessions)
        ]
        # The solo digests are an input of the program under test: the
        # supervisor re-verifies retried attempts against them.
        self.solo = self._solo_batch()
        self._retries = 0
        self._restarts = 0
        self.run_op(None)

    def _solo_batch(self):
        return [
            TwoPartySession(self.circuit, seed=seed, backend="auto").run_streamed(g, e)
            for g, e, seed in self.sessions
        ]

    def _mux_batch(self):
        mux = SessionMultiplexer(
            max_concurrent=self.max_concurrent, max_pending=self.n_sessions - 1
        )
        handles = [
            mux.submit(
                TwoPartySession(self.circuit, seed=seed, backend="auto"),
                g,
                e,
                session_id=f"s{index}",
            )
            for index, (g, e, seed) in enumerate(self.sessions)
        ]
        mux.run_until_complete()
        return [handle.result for handle in handles]

    def run_op(self, inputs) -> Op:
        start = time.perf_counter()
        supervisor = Supervisor(
            max_concurrent=self.max_concurrent, max_pending=self.n_sessions - 1
        )
        handles = [
            supervisor.submit(
                SessionSpec(
                    self.circuit,
                    g,
                    e,
                    seed=seed,
                    backend="auto",
                    session_id=f"p{index}",
                    reference_digest=solo.transcript_digest,
                )
            )
            for index, ((g, e, seed), solo) in enumerate(zip(self.sessions, self.solo))
        ]
        stats = supervisor.run_until_complete()
        wall = time.perf_counter() - start
        summary = stats.summary()
        return Op(wall, summary["first_level_p50_s"] or wall, (handles, summary))

    def run_traced_op(self, inputs, tracer: Tracer) -> Op:
        # Nothing inside a supervised batch is reachable from outside
        # without changing src/, so the batch is one span.
        with tracer.span("serve.supervisor.batch"):
            op = self.run_op(inputs)
        _, summary = op.result
        self._retries += summary["retries"]
        self._restarts += summary["worker_restarts"]
        return op

    def _check_results(self, results) -> int:
        wire = set()
        for (g, e, _), solo, result in zip(self.sessions, self.solo, results):
            if result is None:
                raise OpFailed("a session sealed with a fault")
            if list(result.output_bits) != list(self.reference(g, e)):
                raise OpFailed("session output differs from the plaintext reference")
            if result.transcript_digest != solo.transcript_digest:
                raise OpFailed("session transcript differs from the solo run")
            wire.add(result.total_bytes)
        if len(wire) != 1:
            raise OpFailed(f"sessions disagree on wire bytes: {sorted(wire)}")
        return wire.pop()

    def check(self, index, inputs, op) -> Dict[str, float]:
        handles, _ = op.result
        return {"wire_bytes": self._check_results([h.result for h in handles])}

    def isolated_layers(self) -> Dict[str, float]:
        reps = 5 if self.full else 1
        out: Dict[str, float] = {}
        out["serve.mux.batch_s"], results = _timed(self._mux_batch, reps)
        self._check_results(results)
        out["serve.solo.batch_s"], results = _timed(self._solo_batch, reps)
        self._check_results(results)
        out["serve.supervisor.retries"] = self._retries
        out["serve.supervisor.worker_restarts"] = self._restarts
        return out

    def layers(self, tracer, traced) -> Dict[str, float]:
        out = super().layers(tracer, traced)
        out["serve.supervisor.overhead_ratio"] = (
            out["serve.supervisor.batch_s"] / out["serve.solo.batch_s"]
        )
        return out

    def peak_rss_mb(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(super().peak_rss_mb(), children / 1024.0)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SessionAes128, SessionOtHeavy, CompileCold, SweepWarm, ServiceSmall)
}


def make(name: str, seed: int, stream: int, full: bool, scratch: Path) -> Workload:
    return WORKLOADS[name](seed, stream, full, scratch)
