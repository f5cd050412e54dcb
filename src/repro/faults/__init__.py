"""Reliability subsystem: typed failures, fault injection, recovery ledger.

Three pieces, shared by the transport and cache layers:

* :mod:`repro.faults.errors` -- the :class:`ProtocolFault` hierarchy and
  the :class:`RecoveryLog` degradation ledger;
* :mod:`repro.faults.plan` -- seed-driven :class:`FaultPlan` parsing and
  resolution (explicit arg > ``REPRO_FAULTS``);
* this module's *installation stack*: :func:`install` scopes a
  ``(plan, log)`` pair so layers that cannot be handed one explicitly
  (the program cache, the result store) consult :func:`active_plan` for
  injection decisions and :func:`record_recovery` to report survived
  degradations into the installed ledger.  Sessions do not use it: a
  session's plan and ledger ride its own framed pair.

The stack is intentionally plain (a module-level list, no thread-local):
the store layers that read it are single-threaded, and chaos
determinism depends on a single, fixed consultation order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

from .errors import (
    CacheEntryTorn,
    ChannelProtocolError,
    FrameCorrupt,
    FrameTimeout,
    PeerDisconnected,
    ProtocolFault,
    RecoveryEvent,
    RecoveryLog,
    ServiceSaturated,
    SessionAborted,
    SessionDeadlineExceeded,
    TranscriptMismatch,
    WorkerCrashed,
)
from .plan import (
    FAULT_KINDS,
    FRAME_FAULTS,
    PROCESS_CHAOS,
    PROCESS_FAULTS,
    FaultEvent,
    FaultPlan,
    parse_fault_spec,
    resolve_fault_plan,
)

__all__ = [
    "ProtocolFault",
    "FrameCorrupt",
    "FrameTimeout",
    "SessionAborted",
    "TranscriptMismatch",
    "CacheEntryTorn",
    "ChannelProtocolError",
    "ServiceSaturated",
    "WorkerCrashed",
    "PeerDisconnected",
    "SessionDeadlineExceeded",
    "RecoveryEvent",
    "RecoveryLog",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_spec",
    "resolve_fault_plan",
    "FAULT_KINDS",
    "FRAME_FAULTS",
    "PROCESS_FAULTS",
    "PROCESS_CHAOS",
    "install",
    "active_plan",
    "active_log",
    "record_recovery",
]

_STACK: List[Tuple[Optional[FaultPlan], Optional[RecoveryLog]]] = []


@contextmanager
def install(plan: Optional[FaultPlan], log: Optional[RecoveryLog]):
    """Scope a fault plan and recovery ledger for nested layers.

    Either element may be ``None``: a caller may install only a
    ledger (to collect store recoveries with no injection) or only a
    plan.
    """
    _STACK.append((plan, log))
    try:
        yield
    finally:
        _STACK.pop()


def active_plan() -> Optional[FaultPlan]:
    """The innermost installed fault plan, or ``None``."""
    return _STACK[-1][0] if _STACK else None


def active_log() -> Optional[RecoveryLog]:
    """The innermost installed recovery ledger, or ``None``."""
    return _STACK[-1][1] if _STACK else None


def record_recovery(layer: str, kind: str, detail: str = "") -> Optional[RecoveryEvent]:
    """Record a survived degradation into the active ledger, if any."""
    log = active_log()
    if log is None:
        return None
    return log.record(layer, kind, detail)
