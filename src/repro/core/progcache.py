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
   :func:`repro.core.compiler.compile_circuit` (or
   ``HaacConfig.prog_cache`` for the sim-layer helpers);
2. the ``REPRO_PROG_CACHE`` environment variable -- a directory path,
   ``1``/``on`` for the default location, ``0``/``off`` to disable;
3. disabled (the default: library code never writes to the user's
   home directory unless asked).

The default location is ``~/.cache/repro/progcache``.  Corrupted or
truncated entries are never fatal: the loader raises the typed
:class:`repro.faults.CacheEntryTorn` internally, :meth:`get` drops the
file, counts a ``corrupt``, records the recovery in the active
:class:`repro.faults.RecoveryLog` and falls back to recompilation.  The
:mod:`repro.faults` injection hooks can tear an entry on demand
(``tear_cache``) to exercise exactly this path.  Per-store hit/miss/put
counters (:class:`CacheStats`) let tests assert warm-run behaviour.

Because the schema lives in the *key*, entries written under an older
``CACHE_SCHEMA`` are never looked up again -- unreachable dead bytes
with ordinary-looking filenames.  :meth:`ProgramCache.scan` reports
them separately from live entries and :meth:`ProgramCache.prune`
deletes them (``repro cache info`` / ``repro cache prune``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from .. import faults as faults_mod
from ..circuits.netlist import Circuit
from ..faults import CacheEntryTorn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler imports us)
    from .compiler import CompileResult, OptLevel
    from .passes.streams import ScheduleParams

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA",
    "CacheStats",
    "EntryScan",
    "ProgramCache",
    "circuit_digest",
    "compile_key",
    "shard_key",
    "default_cache_dir",
    "resolve_cache",
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

_OFF_VALUES = ("0", "off", "none", "disabled", "false", "no")
_ON_VALUES = ("1", "on", "default", "true", "yes", "auto")


class _StaleSchemaError(Exception):
    """A well-formed entry written under a different ``CACHE_SCHEMA``."""


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME``-respecting default store location."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "progcache"


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


def shard_key(
    parent_digest: str,
    positions,
    window_capacity: int,
    n_ges: int,
    opt: "OptLevel",
    params: Optional["ScheduleParams"] = None,
) -> str:
    """Cache key for one multicore shard compile.

    Keyed by the *parent* circuit digest plus the shard's gate
    positions instead of the shard netlist itself, so a warm sweep can
    look up the compiled shard without even rebuilding the shard
    circuit.  Valid because shard extraction
    (:func:`repro.sim.multicore._shard_circuit`) is a deterministic
    function of (parent, positions); a change to that algorithm must
    bump ``CACHE_SCHEMA`` like any other compiler-behaviour change.
    """
    from .passes.streams import ScheduleParams

    effective = params or ScheduleParams.evaluator()
    h = hashlib.sha256()
    h.update(
        "|".join(
            (
                f"repro.progcache.shard/v{CACHE_SCHEMA}",
                parent_digest,
                str(window_capacity),
                str(n_ges),
                opt.value,
                str(effective.and_latency),
                str(effective.xor_latency),
                str(effective.cross_ge_forward),
                effective.tie_break,
            )
        ).encode("ascii")
    )
    packed = array("q", sorted(positions))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    h.update(packed.tobytes())
    return h.hexdigest()


@dataclass
class EntryScan:
    """On-disk entry census, by reachability under the current schema.

    ``live`` entries were written by the current ``CACHE_SCHEMA`` (their
    payload schema matches and the stored key matches the filename);
    ``stale`` entries carry an older (or newer) schema -- because the
    schema is baked into every *key*, the current code can never look
    them up, so they are unreachable dead bytes until pruned; ``corrupt``
    covers everything else (truncated pickles, foreign files, key/name
    mismatches).
    """

    live: int = 0
    live_bytes: int = 0
    stale: int = 0
    stale_bytes: int = 0
    corrupt: int = 0
    corrupt_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "live": self.live,
            "live_bytes": self.live_bytes,
            "stale": self.stale,
            "stale_bytes": self.stale_bytes,
            "corrupt": self.corrupt,
            "corrupt_bytes": self.corrupt_bytes,
        }


@dataclass
class CacheStats:
    """Counters for one store; ``corrupt`` entries also count as misses."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }


class ProgramCache:
    """Directory-backed pickle store of :class:`CompileResult` objects.

    A process-local memory layer fronts the disk store (``memory=True``,
    the default): repeated gets of one key -- a sweep re-simulating the
    same compile at many design points -- skip unpickling and *share
    one result object*.  Compile results are treated as immutable
    everywhere (the per-instance schedule/array memos only ever add
    derived data), so sharing is safe; pass ``memory=False`` for
    fully independent copies per get.
    """

    def __init__(self, root: Union[str, Path], memory: bool = True) -> None:
        self.root = Path(root).expanduser()
        self.stats = CacheStats()
        self._memory: Optional[Dict[str, "CompileResult"]] = (
            {} if memory else None
        )
        # Guards the memory layer and the stat counters: concurrent
        # sessions share one store instance per directory (_store_for),
        # and unguarded `stats.hits += 1` read-modify-writes lose
        # updates under threads.  Disk-level races (a prune unlinking an
        # entry mid-get, two cold compiles putting the same digest) are
        # instead resolved by construction: put is atomic via
        # tempfile + os.replace (last writer wins with identical
        # content), and a get that loses its file degrades to
        # recompilation with a recovery event.
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _load_payload(self, path: Path) -> "CompileResult":
        """Read, unpickle and validate one entry file.

        Raises :class:`_StaleSchemaError` for a well-formed entry
        written under another ``CACHE_SCHEMA``, ``FileNotFoundError``
        for a plain miss, and the typed
        :class:`repro.faults.CacheEntryTorn` for everything else
        (truncated pickle, damaged content, key/filename mismatch) --
        the single definition of "valid entry" shared by :meth:`get`
        and the :meth:`scan`/:meth:`prune` census.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            payload = pickle.loads(data)
            schema = payload["schema"]
            stored_key = payload["key"]
            result = payload["result"]
            if schema != CACHE_SCHEMA:
                raise _StaleSchemaError(path.name)
            if stored_key != path.stem:
                raise ValueError("key mismatch")
        except _StaleSchemaError:
            raise
        except Exception as exc:
            raise CacheEntryTorn(
                f"cache entry {path.name}: {type(exc).__name__}: {exc}"
            ) from exc
        return result

    def get(self, key: str) -> Optional["CompileResult"]:
        """Load a cached result, or None on miss or corruption.

        A corrupted/truncated/stale entry is removed and reported as a
        miss (plus a ``corrupt`` count) -- the caller simply recompiles;
        the cache never raises on bad content.  An entry that *existed*
        but vanished before it could be read (a concurrent prune or
        clear unlinked it mid-get) also degrades to a miss, with a
        ``("cache", "entry_recovered")`` event so the race is
        observable.
        """
        if self._memory is not None:
            with self._lock:
                resident = self._memory.get(key)
                if resident is not None:
                    self.stats.hits += 1
                    return resident
        path = self.path_for(key)
        self._maybe_tear(path, key)
        existed = path.exists()
        try:
            result = self._load_payload(path)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            if existed:
                faults_mod.record_recovery(
                    "cache",
                    "entry_recovered",
                    f"{path.name} unlinked mid-get (concurrent prune?); "
                    "recompiling",
                )
            return None
        except Exception as exc:
            # _StaleSchemaError lands here too: a current-schema *key*
            # whose payload claims another schema is tampered content.
            with self._lock:
                self.stats.misses += 1
                self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            faults_mod.record_recovery(
                "cache",
                "entry_recovered",
                f"{type(exc).__name__}: dropped {path.name}; recompiling",
            )
            return None
        with self._lock:
            self.stats.hits += 1
            if self._memory is not None:
                self._memory[key] = result
        return result

    @staticmethod
    def _maybe_tear(path: Path, key: str) -> None:
        """Chaos hook: truncate the entry file when the active fault
        plan draws ``tear_cache``, exercising the corrupt-entry recovery
        path (the torn entry then loads as :class:`CacheEntryTorn`,
        gets dropped, and the caller recompiles)."""
        plan = faults_mod.active_plan()
        if plan is None or not plan.tear_cache(f"cache:{key[:12]}"):
            return
        try:
            data = path.read_bytes()
            if data:
                path.write_bytes(data[: max(1, len(data) // 2)])
        except OSError:
            pass

    def put(self, key: str, result: "CompileResult") -> None:
        """Atomically persist ``result`` (best-effort: IO errors are
        swallowed -- a failed put only costs a future recompile).

        Concurrent puts of one key (two sessions cold-compiling the
        same digest) are safe: each writes its own temp file and the
        ``os.replace`` rename is atomic, so readers always see one
        complete entry -- whichever writer landed last.
        """
        if self._memory is not None:
            with self._lock:
                self._memory[key] = result
        payload = {"schema": CACHE_SCHEMA, "key": key, "result": result}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        with self._lock:
            self.stats.puts += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        if self._memory is not None:
            with self._lock:
                self._memory.clear()
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _classify(self, path: Path) -> str:
        """``'live'`` / ``'stale'`` / ``'corrupt'`` for one entry file.

        Schema staleness is only visible in the payload (the schema is
        baked into the *key*, so a pre-current-schema file has an
        ordinary-looking name the current code simply never derives);
        classification therefore has to unpickle the entry.
        """
        try:
            self._load_payload(path)
        except _StaleSchemaError:
            return "stale"
        except Exception:
            return "corrupt"
        return "live"

    def _classified_entries(self):
        """Yield ``(path, size, kind)`` for every on-disk entry."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.pkl")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            yield path, size, self._classify(path)

    @staticmethod
    def _count(census: EntryScan, kind: str, size: int) -> None:
        setattr(census, kind, getattr(census, kind) + 1)
        bytes_field = f"{kind}_bytes"
        setattr(census, bytes_field, getattr(census, bytes_field) + size)

    def scan(self) -> EntryScan:
        """Census of on-disk entries: live vs stale-schema vs corrupt.

        ``get`` never opens stale-schema files (their keys are
        unreachable under the current schema), so without this census
        they masquerade as live entries in any count of ``*.pkl``
        files.  Reads every entry -- meant for the ``repro cache``
        inspection commands, not hot paths.
        """
        census = EntryScan()
        for _, size, kind in self._classified_entries():
            self._count(census, kind, size)
        return census

    def prune(self) -> EntryScan:
        """Delete stale-schema and corrupt entries; keep live ones.

        Returns a census of what was removed (``live`` fields stay 0).
        The memory layer is untouched: it only ever holds entries
        loaded or put under the current schema.
        """
        removed = EntryScan()
        for path, size, kind in self._classified_entries():
            if kind == "live":
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self._count(removed, kind, size)
        return removed

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(path.stat().st_size for path in self.root.glob("*.pkl"))


#: One store instance per resolved directory, so hit/miss counters
#: accumulate process-wide no matter which layer resolved the cache.
_INSTANCES: Dict[str, ProgramCache] = {}
_INSTANCES_LOCK = threading.Lock()


def _store_for(path: Union[str, Path]) -> ProgramCache:
    resolved = str(Path(path).expanduser().resolve())
    with _INSTANCES_LOCK:
        store = _INSTANCES.get(resolved)
        if store is None:
            store = ProgramCache(resolved)
            _INSTANCES[resolved] = store
    return store


def resolve_cache(
    spec: Union["ProgramCache", str, bool, Path, None] = None,
) -> Optional[ProgramCache]:
    """Resolve a cache spec (see the module docstring) to a store.

    ``None`` defers to ``REPRO_PROG_CACHE``; booleans and the on/off
    keyword strings force-enable (default directory) or disable; any
    other string is a directory path.
    """
    if isinstance(spec, ProgramCache):
        return spec
    if spec is None:
        env = os.environ.get(CACHE_ENV_VAR, "").strip()
        if not env or env.lower() in _OFF_VALUES:
            return None
        if env.lower() in _ON_VALUES:
            return _store_for(default_cache_dir())
        return _store_for(env)
    if spec is False:
        return None
    if spec is True:
        return _store_for(default_cache_dir())
    text = str(spec).strip()
    if not text or text.lower() in _OFF_VALUES:
        return None
    if text.lower() in _ON_VALUES:
        return _store_for(default_cache_dir())
    return _store_for(text)
