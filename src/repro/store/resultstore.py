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
small (a payload is a dict of numbers, not a compiled program).
:class:`ResultStore` is the JSON codec over the keyed-entry layer
(:mod:`repro.store.entries`), which owns the atomic writes, the memory
layer, torn-entry recovery (the caller just recomputes), the census and
resolution (``REPRO_RESULT_STORE``) for this store and the program
cache alike.  An entry is valid only if its fields re-derive its key.

Stores merge across hosts: :meth:`ResultStore.merge` folds another
store directory (or a single-file *bundle* exported by
:meth:`ResultStore.save_bundle`) into this one, keeping byte-identical
entries, adding missing ones and counting conflicts (``policy="keep"``
preserves local entries; ``policy="theirs"`` adopts the source's).
Because keys are content-addressed, disjoint sweeps shard trivially:
run the grid on N hosts, merge N stores, and every point lands exactly
once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from .entries import EntryStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.config import HaacConfig

__all__ = [
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "MergeReport",
    "ResultStore",
    "config_signature",
    "result_key",
]

STORE_ENV_VAR = "REPRO_RESULT_STORE"
#: Bump whenever the entry envelope (not a payload schema) changes
#: incompatibly.  The value is baked into every key, so old entries
#: become unreachable rather than misread.
STORE_SCHEMA = 1
BUNDLE_SCHEMA = "repro.resultstore.bundle/v1"

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
        return asdict(self)


def _json_bytes(document: dict) -> bytes:
    return (json.dumps(document, sort_keys=True, indent=1) + "\n").encode("utf-8")


class ResultStore(EntryStore):
    """Directory of content-addressed JSON result entries.

    A process-local memory layer fronts the disk store (``memory=True``,
    the default) so a figure set that asks for the same point many
    times parses each entry once.  Payloads are treated as immutable by
    every client (the DataProvider converts them into frozen typed rows
    immediately); the memory layer therefore shares one dict per key.
    """

    suffix = ".json"
    namespace = "store"
    kind = "results"
    env_var = STORE_ENV_VAR
    dirname = "resultstore"
    schema = STORE_SCHEMA
    schema_field = "store_schema"
    value_field = "payload"

    @staticmethod
    def _dump(envelope, handle) -> None:
        handle.write(_json_bytes(envelope))

    _loads = staticmethod(json.loads)

    def _derived_key(self, envelope: dict) -> str:
        return result_key(
            envelope["program_digest"],
            envelope["config_signature"],
            envelope["bench_schema"],
        )

    def get(
        self, program_digest: str, config_sig: str, bench_schema: str
    ) -> Optional[dict]:
        """Load one payload, or ``None`` on miss or corruption."""
        envelope = self._get(result_key(program_digest, config_sig, bench_schema))
        return None if envelope is None else envelope["payload"]

    def put(
        self,
        program_digest: str,
        config_sig: str,
        bench_schema: str,
        payload: dict,
    ) -> str:
        """Atomically persist one payload (best-effort); returns its key."""
        key = result_key(program_digest, config_sig, bench_schema)
        self._put(
            key,
            {
                "store_schema": STORE_SCHEMA,
                "key": key,
                "program_digest": program_digest,
                "config_signature": config_sig,
                "bench_schema": bench_schema,
                "payload": payload,
            },
        )
        return key

    # -- cross-host merge ------------------------------------------------

    def _source_entries(
        self, source: Union["ResultStore", str, Path]
    ) -> Iterator[Union[dict, Exception]]:
        """Yield validated entries (or the error that invalidated one)
        from a store instance, a store directory, or a bundle file."""
        if not isinstance(source, ResultStore):
            path = Path(source).expanduser()
            if path.is_file():
                yield from self._bundle_entries(path)
                return
            if not path.exists():
                raise FileNotFoundError(
                    f"{path}: no such store directory or bundle file"
                )
            source = ResultStore(path, memory=False)
        for entry_path in source._entry_paths():
            try:
                yield source._load_entry(entry_path)
            except FileNotFoundError:
                continue
            except Exception as exc:
                yield exc

    def _bundle_entries(self, path: Path) -> Iterator[Union[dict, Exception]]:
        data = json.loads(path.read_text(encoding="utf-8"))
        schema = data.get("bundle_schema") if isinstance(data, dict) else None
        if schema != BUNDLE_SCHEMA:
            raise ValueError(
                f"{path}: not a result-store bundle (bundle_schema={schema!r})"
            )
        entries = data.get("entries", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"{path}: bundle entries must be a list, "
                f"not {type(entries).__name__}"
            )
        for entry in entries:
            try:
                entry = self._validated(entry, entry["key"])
            except Exception as exc:
                entry = exc
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
        A path that is neither raises ``FileNotFoundError``; a file
        that is not a bundle raises ``ValueError``.
        """
        if policy not in ("keep", "theirs"):
            raise ValueError(f"unknown merge policy {policy!r}")
        report = MergeReport()
        for item in self._source_entries(source):
            if isinstance(item, Exception):
                report.corrupt += 1
                continue
            try:
                existing = self._load_entry(self.path_for(item["key"]))
            except Exception:
                # Absent, or locally torn -- strictly worse than the
                # source's valid entry: adopt it.
                existing = None
            if existing is None:
                report.added += 1
            elif existing["payload"] == item["payload"]:
                report.identical += 1
                continue
            else:
                report.conflicts += 1
                if policy != "theirs":
                    continue
                report.replaced += 1
            self.put(
                item["program_digest"],
                item["config_signature"],
                item["bench_schema"],
                item["payload"],
            )
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
        for entry_path in self._entry_paths():
            try:
                entries.append(self._load_entry(entry_path))
            except Exception:
                continue  # stale, torn or vanished: not live
        entries.sort(key=lambda entry: entry["key"])
        bundle = {
            "bundle_schema": BUNDLE_SCHEMA,
            "store_schema": STORE_SCHEMA,
            "entries": entries,
        }
        out = Path(path).expanduser()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(_json_bytes(bundle))
        return len(entries)
