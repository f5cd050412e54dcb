"""The batch label-hash backend of the GC substrate.

The garbling hot path -- four AES-based hashes per AND gate on the
Garbler, two on the Evaluator (paper Figure 2) -- is exposed as a batch
API so a whole level of a circuit hashes in one call:
:class:`NumpyLabelHashBackend` runs the T-table AES of
:mod:`repro.gc.aes` over arrays of labels.  It is the one engine; the
per-gate walk over :mod:`repro.gc.hashing` is its independent oracle.

Entry points take ``backend=`` (``None``, ``"auto"``, ``"numpy"`` or a
backend instance) and hand it to :func:`resolve_backend`.
"""

from .numpy_backend import NumpyLabelHashBackend

__all__ = ["BackendUnavailable", "NumpyLabelHashBackend", "resolve_backend"]

_NAMES = (None, "auto", "numpy")


class BackendUnavailable(RuntimeError):
    """Requested backend is not the NumPy one."""


def resolve_backend(choice=None) -> NumpyLabelHashBackend:
    """The NumPy backend for ``None``, ``"auto"``, ``"numpy"`` or an
    instance of it; :class:`BackendUnavailable` for anything else."""
    if isinstance(choice, NumpyLabelHashBackend):
        return choice
    if choice not in _NAMES:
        raise BackendUnavailable(
            f"unknown gc backend {choice!r}; the one backend is 'numpy' "
            f"(also 'auto' or None)"
        )
    return NumpyLabelHashBackend()
