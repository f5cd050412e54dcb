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

* an explicit name (``"scalar"``, ``"numpy"``) or backend instance
  wins;
* else the ``REPRO_GC_BACKEND`` environment variable;
* else ``"auto"``: the ``numpy`` backend (``scalar`` stays selectable
  by name as the audited reference).

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
    "BACKEND_ENV_VAR",
]

BACKEND_ENV_VAR = "REPRO_GC_BACKEND"
AUTO = "auto"


class BackendUnavailable(RuntimeError):
    """Requested backend is unknown or cannot run here."""


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, Callable[[], LabelHashBackend]] = {}


def register_backend(name: str, factory: Callable[[], LabelHashBackend]) -> None:
    """Register a backend factory under ``name`` (last write wins)."""
    _REGISTRY[name] = factory


def registered_backends() -> List[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> LabelHashBackend:
    """Instantiate the backend registered under ``name``.

    Raises :class:`BackendUnavailable` if the name is unknown or the
    backend cannot run here.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendUnavailable(
            f"unknown gc backend {name!r}; registered: {registered_backends()}"
        ) from None
    return factory()


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

