"""Typed data access for every table/figure driver.

The experiment drivers in :mod:`repro.analysis.experiments` used to
compile and simulate inline, so any change to the grid re-ran
everything and nothing was shared between a driver, the benchmark
harnesses and the figure pipeline.  This module is the single seam all
of them read through:

* **Typed rows** -- :class:`CircuitStats`, :class:`CompilePoint` and
  :class:`SimPoint` are frozen dataclasses with exactly the fields the
  drivers, the energy model and the figure emitters consume.  No
  driver reaches into a :class:`~repro.sim.stats.SimResult` (or
  hardcodes a value) anymore.
* **Content-addressed persistence** -- a :class:`DataProvider` with a
  :class:`repro.store.ResultStore` serves every point it has seen
  before straight from the store: the program digest is
  :func:`repro.core.progcache.compile_key` (covering the netlist, the
  design point's compile-relevant parameters *and* the compiler
  schema), the config signature is
  :func:`repro.store.config_signature`, and each row shape carries a
  versioned bench schema.  A warm provider regenerates the whole
  figure set with **zero compiles and zero replays** --
  ``provider.compiles`` / ``provider.replays`` count the live work so
  tests can assert exactly that.
* **Live compute fallback** -- without a store (or on a miss) the
  provider compiles through the ordinary
  :func:`repro.core.compiler.compile_circuit` path (honouring the
  persistent program cache) and replays with
  :func:`repro.sim.timing.simulate`, then writes the point back.

The CPU and plaintext baselines are analytic models (pure, cheap
functions of the netlist/workload), so they are computed live but are
still only reachable through the provider -- the figure pipeline has no
other source of numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple, Union

from .. import faults as faults_mod
from ..baselines.cpu_model import DEFAULT_CPU, CpuCostModel
from ..baselines.plaintext import DEFAULT_PLAINTEXT, PlaintextModel
from ..baselines.prior_work import build_micro
from ..core.compiler import CompileResult, OptLevel, compile_circuit
from ..core.progcache import compile_key
from ..sim.config import HaacConfig
from ..sim.timing import simulate
from ..store import ResultStore, config_signature
from ..workloads.registry import WORKLOADS

__all__ = [
    "SIM_POINT_SCHEMA",
    "COMPILE_POINT_SCHEMA",
    "CircuitStats",
    "CompilePoint",
    "SimPoint",
    "DataProvider",
    "default_provider",
]

#: Bench schemas for the stored row shapes.  Bump on field changes:
#: old entries become unreachable keys the census can prune.
SIM_POINT_SCHEMA = "repro.sim_point/v1"
COMPILE_POINT_SCHEMA = "repro.compile_point/v1"


@dataclass(frozen=True)
class CircuitStats:
    """Netlist shape facts (Table 2's structural columns)."""

    levels: int
    wires: int
    gates: int
    and_fraction: float
    ilp: float
    n_garbler_inputs: int
    n_evaluator_inputs: int
    n_outputs: int


@dataclass(frozen=True)
class CompilePoint:
    """Compile-time facts of one (circuit, design point, opt) tuple."""

    makespan: int
    spent_pct: float
    live_wires: int
    oor_wires: int
    total_wires: int


@dataclass(frozen=True)
class SimPoint:
    """One timing simulation, reduced to its consumable numbers.

    Field names deliberately mirror :class:`repro.sim.stats.SimResult`
    so :func:`repro.hwmodel.energy.energy_model` accepts either.
    """

    runtime_cycles: float
    compute_cycles: int
    traffic_cycles: float
    n_instructions: int
    n_and: int
    ge_clock_hz: float
    total_bytes: float

    @property
    def runtime_s(self) -> float:
        return self.runtime_cycles / self.ge_clock_hz

    @property
    def compute_s(self) -> float:
        return self.compute_cycles / self.ge_clock_hz

    @property
    def traffic_s(self) -> float:
        return self.traffic_cycles / self.ge_clock_hz

    @property
    def memory_bound(self) -> bool:
        return self.traffic_cycles > self.compute_cycles


class DataProvider:
    """Store-backed access to every number the figure pipeline needs.

    ``store`` accepts anything :meth:`ResultStore.resolve`
    does (``None`` defers to ``REPRO_RESULT_STORE``); ``prog_cache``
    likewise threads through to :func:`compile_circuit`.  One provider
    instance memoizes workload builds and compile results in process,
    so a figure set sharing design points compiles each at most once
    even without any persistent store.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, bool, None] = None,
        cpu: CpuCostModel = DEFAULT_CPU,
        plaintext: PlaintextModel = DEFAULT_PLAINTEXT,
        prog_cache=None,
    ) -> None:
        self.store = ResultStore.resolve(store)
        self.cpu = cpu
        self.plaintext = plaintext
        self.prog_cache = prog_cache
        #: Live work counters: simulate() calls / compile passes run.
        #: A fully warm store keeps both at zero across a figure set.
        self.replays = 0
        self.compiles = 0
        self._builds: Dict[str, object] = {}
        self._micros: Dict[str, object] = {}
        self._compiled: Dict[str, CompileResult] = {}

    # -- circuits --------------------------------------------------------

    def built(self, workload: str):
        """The scaled :class:`BuiltWorkload` for one registry name."""
        if workload not in self._builds:
            self._builds[workload] = WORKLOADS[workload].build_scaled()
        return self._builds[workload]

    def workload(self, name: str):
        """The registry entry (paper metadata, plaintext op counts)."""
        return WORKLOADS[name]

    def micro_circuit(self, name: str):
        """One of Table 5's prior-work micro-benchmark circuits."""
        if name not in self._micros:
            self._micros[name] = build_micro(name)
        return self._micros[name]

    def circuit_stats(self, workload: str) -> CircuitStats:
        circuit = self.built(workload).circuit
        stats = circuit.stats()
        return CircuitStats(
            levels=stats.levels,
            wires=stats.wires,
            gates=stats.gates,
            and_fraction=stats.and_fraction,
            ilp=stats.ilp,
            n_garbler_inputs=circuit.n_garbler_inputs,
            n_evaluator_inputs=circuit.n_evaluator_inputs,
            n_outputs=len(circuit.outputs),
        )

    # -- analytic baselines ---------------------------------------------

    def cpu_time(self, workload: str) -> float:
        """CPU-GC evaluation wall time (calibrated analytic model)."""
        return self.cpu.eval_time_for(self.built(workload).circuit)

    def plaintext_time(self, workload: str) -> float:
        """Native plaintext wall time for the workload's operation mix."""
        return self.plaintext.time_for(self.workload(workload))

    # -- keyed points ----------------------------------------------------

    def _program_digest(
        self, circuit, config: HaacConfig, opt: OptLevel
    ) -> str:
        return compile_key(
            circuit,
            config.window.capacity,
            config.n_ges,
            opt,
            config.schedule_params(),
        )

    def _compile(self, circuit, config: HaacConfig, opt: OptLevel, digest: str):
        compiled = self._compiled.get(digest)
        if compiled is None:
            compiled = compile_circuit(
                circuit,
                config.window,
                config.n_ges,
                opt=opt,
                params=config.schedule_params(),
                cache=self.prog_cache,
            )
            self.compiles += 1
            self._compiled[digest] = compiled
        return compiled

    def _stored(self, digest: str, sig: str, schema: str, row: type):
        """The stored ``row``, or None on a miss.

        A well-keyed entry whose payload is not exactly ``row``'s fields
        is torn: it is recorded like any other torn entry, and the
        caller recomputes the point and puts it back.
        """
        if self.store is None:
            return None
        payload = self.store.get(digest, sig, schema)
        if payload is None:
            return None
        if isinstance(payload, dict) and payload.keys() == {
            field.name for field in fields(row)
        }:
            return row(**payload)
        faults_mod.record_recovery(
            self.store.namespace,
            "entry_recovered",
            f"{schema} payload is not a {row.__name__}; recomputing",
        )
        return None

    def compile_point_for(
        self, circuit, config: HaacConfig, opt: OptLevel
    ) -> CompilePoint:
        digest = self._program_digest(circuit, config, opt)
        sig = config_signature(config)
        stored = self._stored(digest, sig, COMPILE_POINT_SCHEMA, CompilePoint)
        if stored is not None:
            return stored
        compiled = self._compile(circuit, config, opt, digest)
        live, oor, total = compiled.streams.wire_traffic_wires()
        point = CompilePoint(
            makespan=compiled.streams.makespan,
            spent_pct=compiled.esw_report.spent_pct,
            live_wires=live,
            oor_wires=oor,
            total_wires=total,
        )
        if self.store is not None:
            self.store.put(digest, sig, COMPILE_POINT_SCHEMA, asdict(point))
        return point

    def sim_point_for(
        self, circuit, config: HaacConfig, opt: OptLevel
    ) -> SimPoint:
        digest = self._program_digest(circuit, config, opt)
        sig = config_signature(config)
        stored = self._stored(digest, sig, SIM_POINT_SCHEMA, SimPoint)
        if stored is not None:
            return stored
        compiled = self._compile(circuit, config, opt, digest)
        sim = simulate(compiled.streams, config)
        self.replays += 1
        point = SimPoint(
            runtime_cycles=float(sim.runtime_cycles),
            compute_cycles=int(sim.compute_cycles),
            traffic_cycles=float(sim.traffic_cycles),
            n_instructions=int(sim.n_instructions),
            n_and=int(sim.n_and),
            ge_clock_hz=float(sim.ge_clock_hz),
            total_bytes=float(sim.ledger.total_bytes),
        )
        if self.store is not None:
            self.store.put(digest, sig, SIM_POINT_SCHEMA, asdict(point))
        return point

    def compile_point(
        self, workload: str, config: HaacConfig, opt: OptLevel
    ) -> CompilePoint:
        return self.compile_point_for(self.built(workload).circuit, config, opt)

    def sim_point(
        self, workload: str, config: HaacConfig, opt: OptLevel
    ) -> SimPoint:
        return self.sim_point_for(self.built(workload).circuit, config, opt)

    def micro_sim_point(
        self, micro: str, config: HaacConfig, opt: OptLevel
    ) -> SimPoint:
        return self.sim_point_for(self.micro_circuit(micro), config, opt)

    # -- reporting -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Live-work and store counters, for honesty assertions."""
        counters = {"replays": self.replays, "compiles": self.compiles}
        if self.store is not None:
            counters.update(self.store.stats.as_dict())
        return counters


def default_provider(
    store: Union[ResultStore, str, bool, None] = None,
) -> DataProvider:
    """The provider drivers use when none is passed explicitly.

    Live compute through the result store resolved from ``store`` (or
    the ``REPRO_RESULT_STORE`` environment variable when ``None``).
    """
    return DataProvider(store=store)
