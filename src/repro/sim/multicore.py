"""Multi-core HAAC (the paper's future-work extension, section 6.5).

The paper closes: "Additional compiler optimizations, higher levels of
parallelism (e.g., multiple HAAC cores), and processing-in-memory may
help close the gap [to plaintext]."  This module models the first of
those: ``n_cores`` HAAC instances sharing one DRAM interface.

Partitioning is the compiler's job and follows the same co-design
philosophy: the program is split at *data-independent* boundaries.  For
batch workloads (ReLU over independent activations, the paper's PI
motivation) the circuit decomposes into connected components that can be
sharded round-robin; entangled circuits (GradDesc) form one giant
component and gain nothing -- exactly the behaviour the extension bench
demonstrates.

Model: each shard compiles and simulates independently on one core;
compute proceeds in parallel across cores while the shared memory
interface serialises aggregate traffic, so::

    runtime = max(max_core_compute, total_traffic / bandwidth)

The per-shard replays run on the shared replay engine
(:mod:`repro.sim.engine`: ``numpy`` by default, ``REPRO_SIM_ENGINE``
selects the ``reference`` oracle), and every per-shard compile goes
through the persistent program cache when one is configured (``cache``
argument, ``HaacConfig.prog_cache`` or ``REPRO_PROG_CACHE``) -- a
core-count sweep recompiles nothing on warm runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

from ..circuits.netlist import Circuit
from ..core.compiler import CacheSpec, OptLevel, compile_circuit
from ..core.depgraph import dep_graph
from ..core.progcache import ProgramCache, circuit_digest, shard_key
from .config import HaacConfig
from .engine import compiled_arrays
from .timing import simulate

__all__ = ["MulticoreResult", "partition_components", "simulate_multicore"]


@dataclass
class MulticoreResult:
    """Outcome of a sharded multi-core simulation."""

    n_cores: int
    """HAAC cores requested; may exceed ``shards``."""
    shards: int
    """Cores given work: ``min(n_cores, connected components)``."""
    core_compute_cycles: List[int]
    """GE cycles of each busy core's shard (``compute_cycles``)."""
    total_traffic_cycles: float
    """GE cycles of all shards' bytes through the one shared DRAM
    interface: the sum of their ``traffic_cycles``, not rounded."""
    ge_clock_hz: float
    """GE clock in Hz, converting cycles to seconds."""
    single_core_runtime_s: float
    """Seconds for the unsharded circuit on one core: the baseline."""

    @property
    def runtime_cycles(self) -> float:
        compute = max(self.core_compute_cycles) if self.core_compute_cycles else 0
        return max(float(compute), self.total_traffic_cycles)

    @property
    def runtime_s(self) -> float:
        return self.runtime_cycles / self.ge_clock_hz

    @property
    def speedup_vs_single_core(self) -> float:
        if self.runtime_s == 0:
            return float("inf")
        return self.single_core_runtime_s / self.runtime_s


def partition_components(circuit: Circuit) -> List[List[int]]:
    """Connected components of the circuit's gate graph.

    Gates sharing any wire (through operands or outputs) belong to one
    component; components are returned as gate-position lists in
    topological (original) order.  The union-find now lives on the
    shared dependence graph (:mod:`repro.core.depgraph`), which is
    memoized both on the circuit instance and in a digest-keyed
    registry -- so repeated ``simulate_multicore`` calls, and even
    calls on a rebuilt-but-equal circuit, partition exactly once
    (asserted by the warm-call counter test).  Callers receive fresh
    lists (they sort and mutate them).
    """
    graph = dep_graph(circuit)
    return [list(component) for component in graph.components]


def _shard_circuit(circuit: Circuit, positions: List[int]) -> Circuit:
    """Extract the sub-circuit formed by ``positions`` (one shard).

    Keeps every primary input (inputs are cheap and shared); renumbers
    internal wires densely through a preallocated flat mapping array.
    Outputs are the original circuit outputs produced inside the shard.

    The dense renumbering preserves SSA and topological order by
    construction, so the shard skips ``validate()`` here; the compiler
    re-checks the program form during stream generation anyway.
    """
    n_inputs = circuit.n_inputs
    # The trailing -1 keeps INV's missing operand (index -1) at -1.
    mapping = [-1] * (circuit.n_wires + 1)
    mapping[:n_inputs] = range(n_inputs)
    positions = sorted(positions)
    for next_id, position in enumerate(positions, n_inputs):
        mapping[circuit.out[position]] = next_id
    n_wires = n_inputs + len(positions)
    outputs = [mapping[w] for w in circuit.outputs if mapping[w] >= 0]
    if not outputs:
        outputs = [n_wires - 1] if positions else [0]
    shard = Circuit.from_columns(
        circuit.n_garbler_inputs,
        circuit.n_evaluator_inputs,
        outputs,
        bytearray(map(circuit.op.__getitem__, positions)),
        array("q", [mapping[circuit.a[p]] for p in positions]),
        array("q", [mapping[circuit.b[p]] for p in positions]),
        array("q", range(n_inputs, n_wires)),
        circuit.name + "+shard",
    )
    return shard


def simulate_multicore(
    circuit: Circuit,
    config: HaacConfig,
    n_cores: int,
    opt: OptLevel = OptLevel.RO_RN_ESW,
    cache: Optional[CacheSpec] = None,
) -> MulticoreResult:
    """Shard ``circuit`` across ``n_cores`` HAAC instances.

    Connected components are assigned to cores round-robin by size
    (largest first, to the least-loaded core).  A single-component
    circuit degenerates to one busy core -- no speedup, as the paper's
    "may help" hedge anticipates for serial workloads.

    ``cache`` routes the per-shard (and single-core baseline) compiles
    through the persistent program cache; ``None`` defers to
    ``config.prog_cache`` and then the ``REPRO_PROG_CACHE`` environment
    variable.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    store = ProgramCache.resolve(
        cache if cache is not None else config.prog_cache
    )
    params = config.schedule_params()
    components = partition_components(circuit)
    components.sort(key=len, reverse=True)

    # Greedy balance: largest component to the least-loaded core.
    assignments: List[List[int]] = [[] for _ in range(min(n_cores, len(components)))]
    loads = [0] * len(assignments)
    for component in components:
        target = loads.index(min(loads))
        assignments[target].extend(component)
        loads[target] += len(component)

    single = compile_circuit(
        circuit, config.window, config.n_ges, opt=opt,
        params=params, cache=store if store is not None else False,
    )
    single_sim = simulate(single.streams, config)

    # Shard compiles are keyed by (parent digest, positions) so warm
    # sweeps skip both the shard extraction and the compiler.
    parent_digest = circuit_digest(circuit) if store is not None else ""
    core_compute: List[int] = []
    total_traffic = 0.0
    for positions in assignments:
        compiled = None
        key = None
        if store is not None:
            key = shard_key(
                parent_digest, positions, config.window.capacity,
                config.n_ges, opt, params,
            )
            compiled = store.get(key)
        if compiled is None:
            shard = _shard_circuit(circuit, positions)
            compiled = compile_circuit(
                shard, config.window, config.n_ges, opt=opt,
                params=params, cache=False,
            )
            if store is not None and key is not None:
                # Persist shard entries with their level partition too,
                # matching compile_circuit's cache behaviour.
                compiled_arrays(compiled.streams).ensure_levels()
                store.put(key, compiled)
        sim = simulate(compiled.streams, config)
        core_compute.append(sim.compute_cycles)
        total_traffic += sim.traffic_cycles  # shared DRAM serialises

    return MulticoreResult(
        n_cores=n_cores,
        shards=len(assignments),
        core_compute_cycles=core_compute,
        total_traffic_cycles=total_traffic,
        ge_clock_hz=config.ge_clock_hz,
        single_core_runtime_s=single_sim.runtime_s,
    )
