"""Pluggable, batch-oriented label-hash backends for the GC substrate.

The garbling hot path -- four AES-based hashes per AND gate on the
Garbler, two on the Evaluator -- is exposed here as a batch API so whole
levels of a circuit can be hashed in one call.  Two implementations
ship:

* ``scalar`` -- the audited per-label reference (pure Python T-tables);
* ``numpy`` -- the same AES vectorized over arrays of labels, what
  ``auto`` resolves to.

Select with the ``REPRO_GC_BACKEND`` environment variable, an explicit
``backend=`` argument to the batched garble/evaluate entry points, or
``HaacConfig.gc_backend``.
"""

from .base import (
    BACKEND_ENV_VAR,
    BackendUnavailable,
    LabelHashBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from .numpy_backend import NumpyLabelHashBackend
from .scalar import ScalarLabelHashBackend

register_backend("scalar", ScalarLabelHashBackend)
register_backend("numpy", NumpyLabelHashBackend)

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendUnavailable",
    "LabelHashBackend",
    "ScalarLabelHashBackend",
    "NumpyLabelHashBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
