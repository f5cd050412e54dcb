"""Reliability subsystem: typed failures, fault injection, recovery ledger.

Two pieces, shared by the transport and session layers:

* :mod:`repro.faults.errors` -- the :class:`ProtocolFault` hierarchy,
  :class:`FaultKindUnsupported` and the :class:`RecoveryLog`
  degradation ledger;
* :mod:`repro.faults.plan` -- seed-driven :class:`FaultPlan` parsing and
  resolution (a spec or plan; ``None`` is no faults), checked against
  the kinds the receiving boundary can inject.

A session's plan and ledger ride its own framed pair (or, on the
process transport, its supervisor handle); nothing is process-wide.
"""

from __future__ import annotations

from .errors import (
    CacheEntryTorn,
    ChannelProtocolError,
    FaultKindUnsupported,
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
    "FaultKindUnsupported",
    "RecoveryEvent",
    "RecoveryLog",
    "FaultEvent",
    "FaultPlan",
    "parse_fault_spec",
    "resolve_fault_plan",
    "FAULT_KINDS",
    "FRAME_FAULTS",
    "PROCESS_CHAOS",
]
