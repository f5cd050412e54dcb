"""Persistent on-disk cache of compiled HAAC programs.

Sweeping the timing model across cores, queue sizes and opt levels
recompiles identical (circuit, window, n_ges, opt) tuples on every
sweep point; for the large stdlib circuits compilation dominates the
wall time.  This module keys each :class:`CompileResult` by a stable
content digest and stores the pickled result under a cache directory so
warm runs skip the compiler entirely.

Key derivation (see :func:`compile_key`)::

    sha256(schema | circuit digest | window capacity | n_ges |
           opt level | schedule params | segment size)

where the circuit digest (:func:`circuit_digest`) covers the netlist
content -- input counts, outputs, every gate's (op, a, b, out) -- plus
the circuit name (cached results carry the name into reports).  The
digest is independent of Python hash randomization, so it is stable
across process restarts; ``CACHE_SCHEMA`` is baked into every key so a
compiler-behaviour change invalidates old entries by bumping one
constant.  The same digests key the content-addressed experiment
result store (:mod:`repro.store`): because ``compile_key`` covers the
netlist, the design point's compile-relevant parameters and the
compiler schema, bumping ``CACHE_SCHEMA`` transitively orphans every
stored downstream *result* too.

Store location, in priority order:

1. an explicit :class:`ProgramCache` / path handed to
   :func:`repro.core.compiler.compile_circuit`;
2. the ``REPRO_PROG_CACHE`` environment variable -- a directory path,
   ``1``/``on`` for the default location ``~/.cache/repro/progcache``,
   ``0``/``off`` to disable;
3. disabled (the default: library code never writes to the user's
   home directory unless asked).

Atomic puts, the memory layer, torn-entry recovery (a damaged entry is
dropped and recompiled, never fatal), the stale-schema census and
resolution are the keyed-entry layer's (:mod:`repro.store.entries`);
this module is the pickle codec over it.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..circuits.netlist import Circuit, column_view
from ..store.entries import EntryStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler imports us)
    from .compiler import CompileResult, OptLevel
    from .passes.streams import ScheduleParams

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA",
    "ProgramCache",
    "circuit_digest",
    "compile_key",
]

CACHE_ENV_VAR = "REPRO_PROG_CACHE"
#: Bump whenever compiler output for an unchanged key could change.
#: v2: entries carry the engine's flat arrays + dependence-level
#: partition (repro.sim.engine.CompiledArrays) on the stream set.
#: v3: window-sync WAW fix -- the greedy schedule (and the level
#: partition) orders an evicting write after the evicted wire's
#: *producer*, not just its readers, changing issue_cycle / level_of
#: for affected programs.
#: v4: entries carry the shared dependence graph (repro.core.depgraph)
#: on the stream set, and the compile key covers the new greedy
#: tie-break axis (ScheduleParams.tie_break, schedule search).
#: v5: entries pickle columns (arrays / bytearrays shared between the
#: netlist, the program, the dependence graph and the engine arrays)
#: instead of per-gate Gate / Instruction object graphs.
CACHE_SCHEMA = 5


def circuit_digest(circuit: Circuit) -> str:
    """Stable SHA-256 content digest of a netlist.

    Covers input counts, output wires, the full gate list and the
    circuit name; canonical little-endian encoding, so equal circuits
    digest equally on any platform and across process restarts.

    The digest is memoized on the instance (netlists are immutable
    after construction: every compiler pass returns a new ``Circuit``),
    keyed by the gate/output counts as a cheap tamper tripwire.
    """
    n_gates = len(circuit.op)
    n_outputs = len(circuit.outputs)
    cached = getattr(circuit, "_digest_cache", None)
    if cached is not None and cached[:2] == (n_gates, n_outputs):
        return cached[2]
    h = hashlib.sha256()
    h.update(b"repro.circuit/v1\0")
    h.update(circuit.name.encode("utf-8"))
    h.update(b"\0")
    # Canonical form: int64 header, outputs, then one (op, a, b, out)
    # quadruple per gate -- one little-endian block filled column-wise.
    head = np.array(
        [circuit.n_garbler_inputs, circuit.n_evaluator_inputs, n_outputs, n_gates,
         *circuit.outputs],
        dtype="<i8",
    )
    body = np.empty((n_gates, 4), dtype="<i8")
    for field, column in enumerate((circuit.op, circuit.a, circuit.b, circuit.out)):
        body[:, field] = column_view(column)
    h.update(head)
    h.update(body)
    digest = h.hexdigest()
    circuit._digest_cache = (n_gates, n_outputs, digest)
    return digest


def compile_key(
    circuit: Circuit,
    window_capacity: int,
    n_ges: int,
    opt: "OptLevel",
    params: Optional["ScheduleParams"] = None,
    segment_size: Optional[int] = None,
) -> str:
    """Cache key for one ``compile_circuit`` invocation.

    ``params=None`` and ``segment_size=None`` are normalised to the
    compiler's effective defaults (Evaluator latencies, half the SWW)
    so explicit-default and implicit-default calls share one entry.
    """
    from .passes.streams import ScheduleParams

    effective = params or ScheduleParams.evaluator()
    effective_segment = segment_size or window_capacity // 2
    h = hashlib.sha256()
    h.update(
        "|".join(
            (
                f"repro.progcache/v{CACHE_SCHEMA}",
                circuit_digest(circuit),
                str(window_capacity),
                str(n_ges),
                opt.value,
                str(effective.and_latency),
                str(effective.xor_latency),
                str(effective.cross_ge_forward),
                effective.tie_break,
                str(effective_segment),
            )
        ).encode("ascii")
    )
    return h.hexdigest()


class ProgramCache(EntryStore):
    """Directory-backed pickle store of :class:`CompileResult` objects.

    Each entry is ``{"schema": CACHE_SCHEMA, "key": key, "result":
    result}`` pickled at ``HIGHEST_PROTOCOL``.  The memory layer
    (``memory=True``, the default) makes repeated gets of one key -- a
    sweep re-simulating the same compile at many design points -- skip
    unpickling and *share one result object*.  Compile results are
    treated as immutable everywhere (the per-instance schedule/array
    memos only ever add derived data), so sharing is safe; pass
    ``memory=False`` for fully independent copies per get.
    """

    suffix = ".pkl"
    namespace = "cache"
    kind = "programs"
    env_var = CACHE_ENV_VAR
    dirname = "progcache"
    schema = CACHE_SCHEMA
    schema_field = "schema"
    value_field = "result"

    @staticmethod
    def _dump(envelope, handle) -> None:
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)

    _loads = staticmethod(pickle.loads)

    def get(self, key: str) -> Optional["CompileResult"]:
        """The cached result, or None on miss or corruption (recompile)."""
        envelope = self._get(key)
        return None if envelope is None else envelope["result"]

    def put(self, key: str, result: "CompileResult") -> None:
        """Atomically persist ``result`` (best-effort)."""
        self._put(key, {"schema": CACHE_SCHEMA, "key": key, "result": result})
