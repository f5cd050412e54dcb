"""Pluggable, batch-oriented label-hash backends for the GC substrate.

The garbling hot path -- four AES-based hashes per AND gate on the
Garbler, two on the Evaluator -- is exposed here as a batch API so whole
levels of a circuit can be hashed in one call.  Two implementations
ship:

* ``scalar`` -- the audited per-label reference (pure Python T-tables);
* ``numpy`` -- the same AES vectorized over arrays of labels, what
  ``auto`` resolves to;
* ``parallel`` -- AND-level batches sharded across a persistent process
  pool (``parallel:N`` pins the worker count), each worker running the
  fastest single-process backend.

Select with the ``REPRO_GC_BACKEND`` environment variable, an explicit
``backend=`` argument to the batched garble/evaluate entry points, or
``HaacConfig.gc_backend`` (worker counts also via ``REPRO_GC_WORKERS``
/ ``HaacConfig.gc_workers`` / the CLI ``--workers`` flag).
"""

from .base import (
    BACKEND_ENV_VAR,
    BackendUnavailable,
    LabelHashBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    reset_warn_once,
    resolve_backend,
    split_spec,
)
from .numpy_backend import NumpyLabelHashBackend
from .parallel import (
    WORKERS_ENV_VAR,
    ParallelLabelHashBackend,
    shutdown_pools,
)
from .scalar import ScalarLabelHashBackend

register_backend("scalar", ScalarLabelHashBackend)
register_backend("numpy", NumpyLabelHashBackend)
register_backend("parallel", ParallelLabelHashBackend.from_spec)

__all__ = [
    "BACKEND_ENV_VAR",
    "WORKERS_ENV_VAR",
    "BackendUnavailable",
    "LabelHashBackend",
    "ScalarLabelHashBackend",
    "NumpyLabelHashBackend",
    "ParallelLabelHashBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "reset_warn_once",
    "resolve_backend",
    "split_spec",
    "shutdown_pools",
]
