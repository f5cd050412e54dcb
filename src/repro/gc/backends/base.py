"""Pluggable label-hash backend API.

The Half-Gate hot path is "hash a 128-bit label under a per-gate AES
key" -- four calls per AND gate on the Garbler, two on the Evaluator
(paper Figure 2).  A :class:`LabelHashBackend` computes that hash for a
whole *batch* of labels at once, which lets the level-scheduled garbler
(:func:`repro.gc.garble.garble_circuit_batched`) amortise per-call
overhead and lets vectorized implementations run the AES rounds over
arrays instead of scalars.

Backends are registered by name in a module-level registry and selected
via :func:`resolve_backend`:

* an explicit name (``"scalar"``, ``"numpy"``, ``"parallel"``) or
  backend instance wins;
* else the ``REPRO_GC_BACKEND`` environment variable;
* else ``"auto"``: the ``numpy`` backend (``scalar`` stays selectable
  by name as the audited reference).

A name may carry a backend-specific option after a colon -- the
``parallel`` backend reads its worker count from the spec, e.g.
``"parallel:4"`` or ``REPRO_GC_BACKEND=parallel:8``.  Backends that
take no options reject specs with a suffix.

Every backend must be bitwise-identical to the scalar reference
(:mod:`repro.gc.hashing`); the test suite cross-checks whole-circuit
garbling between backends on the stdlib circuits.
"""

from __future__ import annotations

import abc
import os
from typing import Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "BackendUnavailable",
    "LabelHashBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "registered_backends",
    "resolve_backend",
    "split_spec",
    "reset_warn_once",
    "BACKEND_ENV_VAR",
]

BACKEND_ENV_VAR = "REPRO_GC_BACKEND"
AUTO = "auto"


class BackendUnavailable(RuntimeError):
    """Requested backend is unknown or cannot be built from its spec."""


class LabelHashBackend(abc.ABC):
    """Batch interface over the TCCR gate hash of :mod:`repro.gc.hashing`.

    ``vectorized`` advertises that the backend also exposes the
    array-level primitives (``expand_keys`` / ``hash_with_schedules``)
    used by the fully vectorized garbling engine; consumers that only
    need correctness can stick to :meth:`hash_labels`.
    """

    name: str = "abstract"
    vectorized: bool = False

    @abc.abstractmethod
    def hash_labels(
        self,
        labels: Sequence[int],
        tweaks: Sequence[int],
        rekeyed: bool = True,
    ) -> List[int]:
        """Hash ``labels[i]`` under tweak ``tweaks[i]`` for every ``i``.

        Semantics match :func:`repro.gc.hashing.rekeyed_hash` (or
        :func:`~repro.gc.hashing.fixed_key_hash` when ``rekeyed`` is
        false) applied element-wise.
        """

    # -- whole-program schedule residency (vectorized backends only) --
    #
    # The level-scheduled garbler/evaluator pre-expand every AND gate's
    # key schedules once and then hash against *rows* of that expansion
    # per level.  These hooks let a backend keep the expansion resident
    # wherever its compute lives (the parallel backend pins it in
    # worker-shared memory and ships only row indices per level); the
    # defaults keep the expansion as the plain in-process array.

    def expand_keys_program(self, keys):
        """Expand a whole program's gate keys; returns an opaque
        schedule handle for :meth:`hash_schedule_rows`.  Requires the
        array primitives (``vectorized`` backends)."""
        return self.expand_keys(keys)

    def hash_schedule_rows(self, blocks, schedules, rows):
        """Hash ``blocks[i]`` under schedule row ``rows[i]`` of the
        handle returned by :meth:`expand_keys_program`.

        The handle is the ``(n, 44)`` transposed view of ``(44, n)``
        round-key planes, so the gather runs along its contiguous rows
        and hands the kernel planes again."""
        return self.hash_with_schedules(blocks, schedules.T.take(rows, axis=1).T)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, Callable[[], LabelHashBackend]] = {}


def register_backend(name: str, factory: Callable[[], LabelHashBackend]) -> None:
    """Register a backend factory under ``name`` (last write wins)."""
    _REGISTRY[name] = factory


def registered_backends() -> List[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def split_spec(name: str) -> "tuple[str, Optional[str]]":
    """Split ``"parallel:4"`` into ``("parallel", "4")``; no-colon specs
    return ``(name, None)``."""
    base, sep, arg = name.partition(":")
    return base, (arg if sep else None)


def get_backend(name: str) -> LabelHashBackend:
    """Instantiate the backend registered under ``name``.

    ``name`` may be a bare registry name or a ``name:options`` spec
    (e.g. ``"parallel:4"``).  Raises :class:`BackendUnavailable` if the
    name is unknown, the backend cannot run here, or it does not accept
    the given options.
    """
    base, arg = split_spec(name)
    try:
        factory = _REGISTRY[base]
    except KeyError:
        raise BackendUnavailable(
            f"unknown gc backend {base!r}; registered: {registered_backends()}"
        ) from None
    if arg is None:
        return factory()
    try:
        return factory(arg)
    except TypeError:
        raise BackendUnavailable(
            f"gc backend {base!r} does not accept options (got {name!r})"
        ) from None


def available_backends() -> List[str]:
    """Names of backends that can actually be constructed here."""
    names = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        names.append(name)
    return names


def resolve_backend(
    choice: Optional[Union[str, LabelHashBackend]] = None,
) -> LabelHashBackend:
    """Resolve ``choice`` / environment / ``auto`` to a backend.

    ``"auto"`` (and an unset choice with no environment override) is the
    ``numpy`` backend.
    """
    if isinstance(choice, LabelHashBackend):
        return choice
    name = choice or AUTO
    if name == AUTO:
        # The environment override also applies to an *explicit* "auto"
        # so operators can pin a backend without touching call sites.
        name = os.environ.get(BACKEND_ENV_VAR) or AUTO
    return get_backend("numpy" if name == AUTO else name)


class _WarnOnceRegistry:
    """Deduplicated warning emitter with an explicit reset hook.

    Replaces the old module-global boolean flags: those leaked "already
    warned" state across concurrent sessions and between test runs, so a
    degradation in session 2 was silent because session 1 had warned
    first, and test isolation depended on import order.  Keys are
    arbitrary hashables scoping the dedup (e.g. per backend name, per
    pool configuration); :func:`reset_warn_once` clears the registry and
    is called by the test suite's autouse fixture.
    """

    def __init__(self) -> None:
        self._seen: set = set()

    def warn(self, key, message: str, *, stacklevel: int = 3) -> bool:
        """Emit ``message`` as a RuntimeWarning unless ``key`` already
        fired; returns True when the warning was actually emitted."""
        if key in self._seen:
            return False
        self._seen.add(key)
        import warnings

        warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
        return True

    def reset(self) -> None:
        self._seen.clear()


_WARN_ONCE = _WarnOnceRegistry()


def reset_warn_once() -> None:
    """Forget every warn-once key (pool-disable, ...).

    Test fixtures call this between tests; a long-lived service may call
    it when starting a fresh batch of sessions so each batch surfaces
    its own degradations.
    """
    _WARN_ONCE.reset()
