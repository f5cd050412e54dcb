"""Content-addressed store of experiment *results*.

:mod:`repro.core.progcache` caches compiled programs keyed by a stable
SHA-256 content digest; this module applies the same content-addressing
to the numbers those programs produce.  Every stored result is keyed
by::

    sha256(store schema | program digest | config signature | bench schema)

* **program digest** -- whatever stable digest identifies the computed
  artifact's input program: :func:`repro.core.progcache.compile_key`
  for a simulated point (it covers the netlist digest, window, GE
  count, opt level, schedule params *and* the compiler schema, so a
  compiler-behaviour change automatically invalidates downstream
  results), or :func:`repro.core.progcache.circuit_digest` for
  quantities that depend only on the netlist.
* **config signature** -- :func:`config_signature`, a stable hash of
  the *hardware* fields of :class:`repro.sim.config.HaacConfig`.
  Software-substrate fields (``gc_backend``, ``sim_engine``,
  ``prog_cache``, ``fault_spec``) are deliberately
  excluded: the engine-equivalence suite guarantees every engine
  produces bit-identical results, so results are shared across them.
* **bench schema** -- a versioned row-shape identifier such as
  ``repro.sim_point/v1``.  Bumping a schema orphans old entries
  (unreachable keys) exactly like ``CACHE_SCHEMA`` does for compiled
  programs; :meth:`ResultStore.scan`/:meth:`ResultStore.prune` census
  and delete them.

Entries are one JSON file per key -- human-diffable, mergeable, and
small (a payload is a dict of numbers, not a compiled program).  Writes
are atomic (tempfile + ``os.replace``); a torn or tampered entry is
surfaced internally as the typed
:class:`repro.faults.CacheEntryTorn`, dropped, counted, and recorded in
the active :class:`repro.faults.RecoveryLog` -- the caller just
recomputes, mirroring the ``ProgramCache`` recovery contract.

Stores merge across hosts: :meth:`ResultStore.merge` folds another
store directory (or a single-file *bundle* exported by
:meth:`ResultStore.save_bundle`) into this one, keeping byte-identical
entries, adding missing ones and counting conflicts (``policy="keep"``
preserves local entries; ``policy="theirs"`` adopts the source's).
Because keys are content-addressed, disjoint sweeps shard trivially:
run the grid on N hosts, merge N stores, and every point lands exactly
once.

Resolution order for an optional store spec mirrors the program cache:
an explicit :class:`ResultStore`/path wins, then the
``REPRO_RESULT_STORE`` environment variable (a directory, ``1``/``on``
for the default location, ``0``/``off`` to disable), else disabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union

from .. import faults as faults_mod
from ..faults import CacheEntryTorn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.config import HaacConfig

__all__ = [
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "MergeReport",
    "ResultStore",
    "StoreScan",
    "StoreStats",
    "config_signature",
    "default_store_dir",
    "resolve_result_store",
    "result_key",
]

STORE_ENV_VAR = "REPRO_RESULT_STORE"
#: Bump whenever the entry envelope (not a payload schema) changes
#: incompatibly.  The value is baked into every key, so old entries
#: become unreachable rather than misread.
STORE_SCHEMA = 1

_OFF_VALUES = ("0", "off", "none", "disabled", "false", "no")
_ON_VALUES = ("1", "on", "default", "true", "yes", "auto")

#: HaacConfig fields that change simulated numbers.  Software-substrate
#: selection fields are excluded on purpose (see module docstring).
_SIGNATURE_FIELDS = (
    "n_ges",
    "sww_bytes",
    "banks_per_ge",
    "ge_clock_hz",
    "sww_clock_hz",
    "evaluator_and_stages",
    "garbler_and_stages",
    "xor_latency",
    "sww_read_stages",
    "writeback_stages",
    "cross_ge_forward",
    "queue_sram_bytes",
    "instr_bytes",
    "model_bank_conflicts",
)


class _StaleStoreSchema(Exception):
    """A well-formed entry written under a different ``STORE_SCHEMA``."""


def default_store_dir() -> Path:
    """``$XDG_CACHE_HOME``-respecting default store location."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "resultstore"


def config_signature(config: "HaacConfig") -> str:
    """Stable SHA-256 signature of a design point's hardware fields.

    Floats are encoded via ``repr`` (shortest round-trip form), so equal
    configs sign equally on any host.  The DRAM spec contributes its
    name and bandwidth; the role contributes its enum value.
    """
    parts = ["repro.configsig/v1"]
    for name in _SIGNATURE_FIELDS:
        value = getattr(config, name)
        parts.append(f"{name}={value!r}")
    parts.append(f"dram={config.dram.name}:{config.dram.bandwidth_gb_s!r}")
    parts.append(f"role={config.role.value}")
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


def result_key(program_digest: str, config_sig: str, bench_schema: str) -> str:
    """Content-addressed store key for one result."""
    blob = "|".join(
        (
            f"repro.resultstore/v{STORE_SCHEMA}",
            program_digest,
            config_sig,
            bench_schema,
        )
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@dataclass
class StoreStats:
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


@dataclass
class StoreScan:
    """On-disk entry census, by reachability under ``STORE_SCHEMA``."""

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
class MergeReport:
    """Outcome of folding one store (or bundle) into another.

    ``added`` entries were absent locally; ``identical`` entries already
    existed with a byte-equal payload; ``conflicts`` carried a
    *different* payload for the same key (kept or replaced per the merge
    policy -- ``replaced`` counts how many the policy adopted);
    ``corrupt`` source entries were skipped.
    """

    added: int = 0
    identical: int = 0
    conflicts: int = 0
    replaced: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "added": self.added,
            "identical": self.identical,
            "conflicts": self.conflicts,
            "replaced": self.replaced,
            "corrupt": self.corrupt,
        }


class ResultStore:
    """Directory of content-addressed JSON result entries.

    A process-local memory layer fronts the disk store (``memory=True``,
    the default) so a figure set that asks for the same point many
    times parses each entry once.  Payloads are treated as immutable by
    every client (the DataProvider converts them into frozen typed rows
    immediately); the memory layer therefore shares one dict per key.
    """

    def __init__(self, root: Union[str, Path], memory: bool = True) -> None:
        self.root = Path(root).expanduser()
        self.stats = StoreStats()
        self._memory: Optional[Dict[str, dict]] = {} if memory else None
        self._lock = threading.Lock()

    # -- keys and paths --------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- load/validate ---------------------------------------------------

    def _load_entry(self, path: Path) -> dict:
        """Read and validate one entry file.

        Raises :class:`_StaleStoreSchema` for a well-formed entry from
        another ``STORE_SCHEMA``, ``FileNotFoundError`` for a plain
        miss, and :class:`repro.faults.CacheEntryTorn` for everything
        else (truncated JSON, tampered fields, key/filename mismatch) --
        the single definition of "valid entry" shared by :meth:`get`,
        the :meth:`scan`/:meth:`prune` census and :meth:`merge`.
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            entry = json.loads(text)
            schema = entry["store_schema"]
            key = entry["key"]
            derived = result_key(
                entry["program_digest"],
                entry["config_signature"],
                entry["bench_schema"],
            )
            if schema != STORE_SCHEMA:
                raise _StaleStoreSchema(path.name)
            if key != path.stem or derived != key:
                raise ValueError("key mismatch")
            entry["payload"]
        except _StaleStoreSchema:
            raise
        except Exception as exc:
            raise CacheEntryTorn(
                f"result entry {path.name}: {type(exc).__name__}: {exc}"
            ) from exc
        return entry

    # -- get/put ---------------------------------------------------------

    def get(
        self, program_digest: str, config_sig: str, bench_schema: str
    ) -> Optional[dict]:
        """Load one payload, or ``None`` on miss or corruption.

        Corrupt/stale-keyed/tampered entries are unlinked, counted and
        reported to the active recovery log; the caller recomputes.
        The store never raises on bad content.
        """
        key = result_key(program_digest, config_sig, bench_schema)
        if self._memory is not None:
            with self._lock:
                resident = self._memory.get(key)
                if resident is not None:
                    self.stats.hits += 1
                    return resident
        path = self.path_for(key)
        try:
            entry = self._load_entry(path)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except Exception as exc:
            # _StaleStoreSchema lands here too: a current-schema *key*
            # whose envelope claims another schema is tampered content.
            with self._lock:
                self.stats.misses += 1
                self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            faults_mod.record_recovery(
                "store",
                "entry_recovered",
                f"{type(exc).__name__}: dropped {path.name}; recomputing",
            )
            return None
        payload = entry["payload"]
        with self._lock:
            self.stats.hits += 1
            if self._memory is not None:
                self._memory[key] = payload
        return payload

    def put(
        self,
        program_digest: str,
        config_sig: str,
        bench_schema: str,
        payload: dict,
    ) -> str:
        """Atomically persist one payload; returns its key.

        Best-effort like the program cache: an IO error costs a future
        recompute, never an exception.  Concurrent puts of one key are
        safe -- each writer lands a complete file via ``os.replace``.
        """
        key = result_key(program_digest, config_sig, bench_schema)
        if self._memory is not None:
            with self._lock:
                self._memory[key] = payload
        entry = {
            "store_schema": STORE_SCHEMA,
            "key": key,
            "program_digest": program_digest,
            "config_signature": config_sig,
            "bench_schema": bench_schema,
            "payload": payload,
        }
        text = json.dumps(entry, sort_keys=True, indent=1) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp_name, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return key
        with self._lock:
            self.stats.puts += 1
        return key

    # -- census ----------------------------------------------------------

    def _classify(self, path: Path) -> str:
        try:
            self._load_entry(path)
        except _StaleStoreSchema:
            return "stale"
        except Exception:
            return "corrupt"
        return "live"

    def _classified_entries(self) -> Iterator[Tuple[Path, int, str]]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            yield path, size, self._classify(path)

    @staticmethod
    def _count(census: StoreScan, kind: str, size: int) -> None:
        setattr(census, kind, getattr(census, kind) + 1)
        setattr(census, f"{kind}_bytes", getattr(census, f"{kind}_bytes") + size)

    def scan(self) -> StoreScan:
        """Census of on-disk entries: live vs stale-schema vs corrupt."""
        census = StoreScan()
        for _, size, kind in self._classified_entries():
            self._count(census, kind, size)
        return census

    def prune(self) -> StoreScan:
        """Delete stale-schema and corrupt entries; keep live ones."""
        removed = StoreScan()
        for path, size, kind in self._classified_entries():
            if kind == "live":
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self._count(removed, kind, size)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        if self._memory is not None:
            with self._lock:
                self._memory.clear()
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    # -- cross-host merge ------------------------------------------------

    def _iter_source_entries(
        self, source: Union["ResultStore", str, Path]
    ) -> Iterator[Union[dict, Exception]]:
        """Yield validated entries (or the error that invalidated one)
        from a store instance, a store directory, or a bundle file."""
        if isinstance(source, ResultStore):
            paths = sorted(source.root.glob("*.json"))
            loader = source._load_entry
        else:
            src_path = Path(source).expanduser()
            if src_path.is_file():
                yield from self._iter_bundle_entries(src_path)
                return
            other = ResultStore(src_path, memory=False)
            paths = sorted(other.root.glob("*.json"))
            loader = other._load_entry
        for path in paths:
            try:
                yield loader(path)
            except FileNotFoundError:
                continue
            except Exception as exc:
                yield exc

    def _iter_bundle_entries(
        self, path: Path
    ) -> Iterator[Union[dict, Exception]]:
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("bundle_schema") != BUNDLE_SCHEMA:
            raise ValueError(
                f"{path}: not a result-store bundle "
                f"(bundle_schema={data.get('bundle_schema')!r})"
            )
        for entry in data.get("entries", []):
            try:
                derived = result_key(
                    entry["program_digest"],
                    entry["config_signature"],
                    entry["bench_schema"],
                )
                if entry["store_schema"] != STORE_SCHEMA:
                    raise _StaleStoreSchema(derived)
                if entry["key"] != derived:
                    raise ValueError("key mismatch")
                entry["payload"]
            except Exception as exc:
                yield exc
                continue
            yield entry

    def merge(
        self,
        source: Union["ResultStore", str, Path],
        policy: str = "keep",
    ) -> MergeReport:
        """Fold another store (directory, instance, or bundle file) in.

        ``policy="keep"`` (default) preserves the local entry on a
        payload conflict; ``policy="theirs"`` adopts the source's.
        Either way the conflict is counted, so a caller can demand
        conflict-free merges by asserting ``report.conflicts == 0``.
        """
        if policy not in ("keep", "theirs"):
            raise ValueError(f"unknown merge policy {policy!r}")
        report = MergeReport()
        for item in self._iter_source_entries(source):
            if isinstance(item, Exception):
                report.corrupt += 1
                continue
            key = item["key"]
            path = self.path_for(key)
            existing = None
            try:
                existing = self._load_entry(path)
            except FileNotFoundError:
                pass
            except Exception:
                # A locally-torn entry is strictly worse than the
                # source's valid one: treat as absent and adopt.
                existing = None
            if existing is None:
                self.put(
                    item["program_digest"],
                    item["config_signature"],
                    item["bench_schema"],
                    item["payload"],
                )
                report.added += 1
                continue
            if existing["payload"] == item["payload"]:
                report.identical += 1
                continue
            report.conflicts += 1
            if policy == "theirs":
                self.put(
                    item["program_digest"],
                    item["config_signature"],
                    item["bench_schema"],
                    item["payload"],
                )
                report.replaced += 1
        return report

    # -- bundles ---------------------------------------------------------

    def save_bundle(self, path: Union[str, Path]) -> int:
        """Export every live entry as one sorted JSON bundle file.

        Bundles are the unit of cross-host shipping when rsyncing a
        directory is inconvenient (CI artifacts, committed test
        fixtures); :meth:`merge` accepts them directly.  Returns the
        number of entries exported.
        """
        entries = []
        for entry_path, _, kind in self._classified_entries():
            if kind != "live":
                continue
            entries.append(self._load_entry(entry_path))
        entries.sort(key=lambda entry: entry["key"])
        bundle = {
            "bundle_schema": BUNDLE_SCHEMA,
            "store_schema": STORE_SCHEMA,
            "entries": entries,
        }
        out = Path(path).expanduser()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(bundle, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        return len(entries)


BUNDLE_SCHEMA = "repro.resultstore.bundle/v1"


def resolve_result_store(
    spec: Union[ResultStore, str, bool, Path, None] = None,
) -> Optional[ResultStore]:
    """Resolve a store spec (see the module docstring) to a store.

    ``None`` defers to ``REPRO_RESULT_STORE``; booleans and the on/off
    keyword strings force-enable (default directory) or disable; any
    other string is a directory path.
    """
    if isinstance(spec, ResultStore):
        return spec
    if spec is None:
        env = os.environ.get(STORE_ENV_VAR, "").strip()
        if not env or env.lower() in _OFF_VALUES:
            return None
        if env.lower() in _ON_VALUES:
            return ResultStore(default_store_dir())
        return ResultStore(env)
    if spec is False:
        return None
    if spec is True:
        return ResultStore(default_store_dir())
    text = str(spec).strip()
    if not text or text.lower() in _OFF_VALUES:
        return None
    if text.lower() in _ON_VALUES:
        return ResultStore(default_store_dir())
    return ResultStore(text)
