"""The keyed-entry layer under both content-addressed stores.

A compiled program (:class:`repro.core.progcache.ProgramCache`) and
every number it produces (:class:`repro.store.ResultStore`) are keyed
by a SHA-256 content digest, so both stores are the same machine: a
directory of ``<key><suffix>`` files, one *envelope* per key.
:class:`EntryStore` is that machine; a store subclass is only a codec
that names the suffix, the envelope's schema and value fields, and how
an envelope becomes bytes and back.

* **Atomic puts.**  Each put writes its own temp file and lands it with
  ``os.replace``, so concurrent puts of one key (two sessions computing
  the same digest) are safe -- readers always see one complete entry,
  whichever writer landed last.  Puts are best-effort: an IO error only
  costs a future recompute.
* **Memory layer.**  A process-local dict fronts the disk
  (``memory=True``, the default), so repeated gets of one key share one
  decoded object.  It and the :class:`StoreStats` counters sit under a
  lock: a resolved store is shared process-wide, and unguarded
  ``stats.hits += 1`` read-modify-writes lose updates under threads.
* **Torn-entry recovery.**  Anything that is not a valid entry
  (truncated bytes, tampered fields, a key/filename mismatch) loads as
  the typed :class:`repro.faults.CacheEntryTorn`; :meth:`EntryStore._get`
  drops the file, counts a ``corrupt`` miss and records an
  ``entry_recovered`` event in the active recovery log under the
  store's ``namespace``.  An entry that vanished between the existence
  check and the read (a concurrent prune) is a miss with the same event.
  The ``tear_cache`` fault truncates an entry just before its read to
  exercise this path.
* **Census.**  A schema is baked into every key, so an entry written
  under another schema is never looked up again.  :meth:`~EntryStore.scan`
  reports such *stale* entries apart from live and corrupt ones, and
  :meth:`~EntryStore.prune` deletes them (``repro store info|prune``).
* **Resolution.**  :meth:`EntryStore.resolve` maps an optional spec to
  a store: an instance wins; ``None`` defers to the codec's environment
  variable; ``True`` and the on-words pick the XDG default directory;
  ``False`` and the off-words disable; any other string is a directory.
  A resolved store is shared: one instance per (codec, directory), so
  counters accumulate process-wide.  The constructor always builds a
  fresh instance with an empty memory layer.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, ClassVar, Dict, Iterator, List, Optional, Tuple, Union

from .. import faults as faults_mod
from ..faults import CacheEntryTorn

__all__ = ["EntryStore", "StaleEntry", "StoreScan", "StoreStats"]

_OFF_VALUES = ("0", "off", "none", "disabled", "false", "no")
_ON_VALUES = ("1", "on", "default", "true", "yes", "auto")


class StaleEntry(Exception):
    """A well-formed entry written under another schema of its store."""


@dataclass
class StoreStats:
    """Counters for one store; ``corrupt`` entries also count as misses."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class StoreScan:
    """On-disk entry census, by reachability under the current schema.

    ``live`` entries were written under the store's schema and sit
    under their own key; ``stale`` entries carry another schema, so the
    current code can never derive their key -- unreachable dead bytes
    until pruned; ``corrupt`` covers everything else (truncated files,
    foreign content, key/name mismatches).
    """

    live: int = 0
    live_bytes: int = 0
    stale: int = 0
    stale_bytes: int = 0
    corrupt: int = 0
    corrupt_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def count(self, kind: str, size: int) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        setattr(self, f"{kind}_bytes", getattr(self, f"{kind}_bytes") + size)


#: One resolved store per (codec, directory); see :meth:`EntryStore.resolve`.
_INSTANCES: Dict[Tuple[type, str], "EntryStore"] = {}
_INSTANCES_LOCK = threading.Lock()


class EntryStore:
    """Directory of content-addressed ``<key><suffix>`` envelopes."""

    #: File suffix; two codecs can share one directory.
    suffix: ClassVar[str]
    #: Recovery-event layer and ``tear_cache`` site prefix.
    namespace: ClassVar[str]
    #: What the entries are, for ``repro store`` output.
    kind: ClassVar[str]
    env_var: ClassVar[str]
    #: Default directory name under ``$XDG_CACHE_HOME/repro``.
    dirname: ClassVar[str]
    #: Current schema, and the envelope fields holding it and the value.
    schema: ClassVar[int]
    schema_field: ClassVar[str]
    value_field: ClassVar[str]

    def __init__(self, root: Union[str, Path], memory: bool = True) -> None:
        self.root = Path(root).expanduser()
        self.stats = StoreStats()
        self._memory: Optional[Dict[str, dict]] = {} if memory else None
        self._lock = threading.Lock()

    # -- codec -----------------------------------------------------------

    @staticmethod
    def _dump(envelope: dict, handle: IO[bytes]) -> None:
        raise NotImplementedError

    @staticmethod
    def _loads(data: bytes) -> dict:
        raise NotImplementedError

    def _derived_key(self, envelope: dict) -> str:
        """The key the envelope's content derives (default: its own)."""
        return envelope["key"]

    # -- load/validate ---------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def _validated(self, envelope: dict, key: str) -> dict:
        """``envelope`` if it is a current-schema entry for ``key``.

        Raises :class:`StaleEntry` for another schema and any other
        exception for damage.
        """
        if envelope[self.schema_field] != self.schema:
            raise StaleEntry(key)
        if envelope["key"] != key or self._derived_key(envelope) != key:
            raise ValueError("key mismatch")
        envelope[self.value_field]
        return envelope

    def _load_entry(self, path: Path) -> dict:
        """Read and validate one entry file.

        Raises :class:`StaleEntry` for a well-formed entry under another
        schema, ``FileNotFoundError`` for a plain miss, and
        :class:`repro.faults.CacheEntryTorn` for everything else -- the
        single definition of "valid entry" shared by :meth:`_get` and
        the :meth:`scan`/:meth:`prune` census.
        """
        data = path.read_bytes()
        try:
            return self._validated(self._loads(data), path.stem)
        except StaleEntry:
            raise
        except Exception as exc:
            raise CacheEntryTorn(
                f"{self.namespace} entry {path.name}: {type(exc).__name__}: {exc}"
            ) from exc

    # -- get/put ---------------------------------------------------------

    def _recovered(self, detail: str) -> None:
        faults_mod.record_recovery(
            self.namespace, "entry_recovered", f"{detail}; recomputing"
        )

    def _get(self, key: str) -> Optional[dict]:
        """The envelope under ``key``, or None on miss or corruption.

        A damaged entry (a current-schema *key* whose envelope claims
        another schema included) is unlinked and counted; the store
        never raises on bad content.
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
            envelope = self._load_entry(path)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            if existed:
                self._recovered(f"{path.name} unlinked mid-get (concurrent prune?)")
            return None
        except Exception as exc:
            with self._lock:
                self.stats.misses += 1
                self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            self._recovered(f"{type(exc).__name__}: dropped {path.name}")
            return None
        with self._lock:
            self.stats.hits += 1
            if self._memory is not None:
                self._memory[key] = envelope
        return envelope

    def _maybe_tear(self, path: Path, key: str) -> None:
        """Chaos hook: truncate the entry file when the active fault
        plan draws ``tear_cache``."""
        plan = faults_mod.active_plan()
        if plan is None or not plan.tear_cache(f"{self.namespace}:{key[:12]}"):
            return
        try:
            data = path.read_bytes()
            if data:
                path.write_bytes(data[: max(1, len(data) // 2)])
        except OSError:
            pass

    def _put(self, key: str, envelope: dict) -> None:
        """Atomically persist ``envelope`` under ``key`` (best-effort)."""
        if self._memory is not None:
            with self._lock:
                self._memory[key] = envelope
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    self._dump(envelope, handle)
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

    # -- census ----------------------------------------------------------

    def _entry_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*{self.suffix}"))

    def _classified_entries(self) -> Iterator[Tuple[Path, int, str]]:
        """Yield ``(path, size, 'live' | 'stale' | 'corrupt')``.

        Staleness is only visible in the envelope, so this reads every
        entry -- meant for the inspection commands, not hot paths.
        """
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            try:
                self._load_entry(path)
                kind = "live"
            except StaleEntry:
                kind = "stale"
            except Exception:
                kind = "corrupt"
            yield path, size, kind

    def scan(self) -> StoreScan:
        """Census of on-disk entries: live vs stale-schema vs corrupt."""
        census = StoreScan()
        for _, size, kind in self._classified_entries():
            census.count(kind, size)
        return census

    def prune(self) -> StoreScan:
        """Delete stale-schema and corrupt entries; keep live ones.

        Returns a census of what was removed (``live`` fields stay 0).
        The memory layer only ever holds current-schema entries.
        """
        removed = StoreScan()
        for path, size, kind in self._classified_entries():
            if kind == "live":
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed.count(kind, size)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        if self._memory is not None:
            with self._lock:
                self._memory.clear()
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_count(self) -> int:
        return len(self._entry_paths())

    # -- resolution ------------------------------------------------------

    @classmethod
    def default_dir(cls) -> Path:
        """``$XDG_CACHE_HOME``-respecting default location."""
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        return base / "repro" / cls.dirname

    @classmethod
    def resolve(cls, spec: Union["EntryStore", str, bool, Path, None] = None):
        """Resolve a store spec (see the module docstring) to a store."""
        if isinstance(spec, cls):
            return spec
        if spec is None:
            spec = os.environ.get(cls.env_var, "")
        elif isinstance(spec, bool):
            spec = "on" if spec else "off"
        text = str(spec).strip()
        if not text or text.lower() in _OFF_VALUES:
            return None
        path = cls.default_dir() if text.lower() in _ON_VALUES else Path(text)
        resolved = str(path.expanduser().resolve())
        with _INSTANCES_LOCK:
            store = _INSTANCES.get((cls, resolved))
            if store is None:
                store = _INSTANCES[(cls, resolved)] = cls(resolved)
        return store
