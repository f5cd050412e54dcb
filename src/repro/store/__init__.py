"""Content-addressed stores: compiled programs and experiment results.

:mod:`repro.store.entries` is the keyed-entry layer both stores share;
:mod:`repro.store.resultstore` is the result store's JSON codec (the
program cache's pickle codec is :mod:`repro.core.progcache`).  The
public surface is re-exported here so callers write ``from repro.store
import ResultStore``.
"""

from .entries import StoreScan, StoreStats
from .resultstore import (
    STORE_ENV_VAR,
    STORE_SCHEMA,
    MergeReport,
    ResultStore,
    config_signature,
    result_key,
)

__all__ = [
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "MergeReport",
    "ResultStore",
    "StoreScan",
    "StoreStats",
    "config_signature",
    "result_key",
]
