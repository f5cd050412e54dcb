"""Typed failure model for the streamed two-party protocol stack.

Every degradation path that used to raise (or swallow) a bare
``RuntimeError`` -- framed-transport corruption, retransmit exhaustion,
torn cache entries, transcript divergence -- now raises or records one
of these types, so callers can tell *what* failed and tests can assert
the exact failure class (DESIGN.md section 10).

Two kinds of observability live here:

* the exception hierarchy rooted at :class:`ProtocolFault` (a
  ``RuntimeError`` subclass, so legacy ``except RuntimeError`` callers
  keep working);
* the :class:`RecoveryLog` degradation ledger: every transport fault a
  session *survived* (a retransmitted frame, a dropped duplicate) is
  recorded as a :class:`RecoveryEvent` and surfaced on
  ``SessionResult.recovery_events`` -- a session that degraded is
  distinguishable from one that did not.  The stores count the damage
  they survive in their own stats instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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
]


class ProtocolFault(RuntimeError):
    """Base of the typed protocol failure hierarchy."""


class FrameCorrupt(ProtocolFault):
    """A frame failed structural validation (magic, length, CRC32)."""


class FrameTimeout(ProtocolFault):
    """A frame was still missing after the bounded retransmit budget."""


class SessionAborted(ProtocolFault):
    """The session state machine diverged (unexpected message kind)."""


class TranscriptMismatch(ProtocolFault):
    """Running transcript digests disagree across the channel.

    Raised at session close when the sender's digest of everything it
    pushed differs from the receiver's digest of everything it
    delivered -- the typed form of *silent* corruption (anything that
    slipped past the per-frame CRC).
    """


class CacheEntryTorn(ProtocolFault):
    """A persistent-cache entry is truncated, tampered or unreadable."""


class ChannelProtocolError(ProtocolFault):
    """A message or frame does not fit the framed transport's header
    fields (chunk count past the u16 cap, sequence number past u32)."""


class ServiceSaturated(ProtocolFault):
    """The session service refused admission (capacity exhausted).

    Raised by :meth:`repro.serve.SessionMultiplexer.submit` (and the
    out-of-process :meth:`repro.serve.Supervisor.submit`) when both the
    concurrency slots and the pending queue are full -- the typed
    backpressure signal, distinct from any in-session failure.

    ``retry_after_hint_s`` is the service's own estimate of when a slot
    is likely to free: derived from the p50 session time observed so
    far, scaled by the queue depth ahead of the rejected submit.  It is
    ``None`` until at least one session has completed (no history means
    no honest estimate)."""

    def __init__(
        self, message: str, retry_after_hint_s: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_hint_s = retry_after_hint_s


class WorkerCrashed(ProtocolFault):
    """A supervised party worker process died without reporting.

    Raised (or recorded as a session's sealing error) by the
    :class:`repro.serve.Supervisor` when a worker's process sentinel
    fires -- or its heartbeats go silent past the liveness window --
    before the worker delivered a result or a typed error of its own.
    SIGKILLed, OOM-killed and hard-crashed parties all land here."""


class PeerDisconnected(ProtocolFault):
    """The other party's transport endpoint went away mid-session.

    The process-transport analogue of :class:`FrameTimeout`: a socket
    EOF, ``ECONNRESET`` or ``EPIPE`` while frames were still expected."""


class SessionDeadlineExceeded(ProtocolFault):
    """A session overran its wall-clock deadline and was killed.

    The supervisor's watchdog kills-and-reaps both party workers when
    the per-session deadline expires; the session seals with this fault
    (and is retried if budget remains)."""


class FaultKindUnsupported(ValueError):
    """A fault plan arms a kind that the boundary it was handed to can
    never inject (a frame kind on the process supervisor, a chaos kind
    on an in-process session).  Raised before the session runs."""


@dataclass(frozen=True)
class RecoveryEvent:
    """One survived degradation.

    ``seq`` is the event's position in its ledger (a stable, monotone
    index so identical fault seeds can be asserted to produce identical
    event sequences); ``layer`` names the subsystem that survived it
    (``transport``: the framed pair); ``kind`` is the machine-readable
    event class and ``detail`` the human-readable specifics.
    """

    seq: int
    layer: str
    kind: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "layer": self.layer,
            "kind": self.kind,
            "detail": self.detail,
        }


class RecoveryLog:
    """Append-only degradation ledger for one session (or one scope)."""

    def __init__(self) -> None:
        self.events: List[RecoveryEvent] = []

    def record(self, layer: str, kind: str, detail: str = "") -> RecoveryEvent:
        event = RecoveryEvent(
            seq=len(self.events), layer=layer, kind=kind, detail=detail
        )
        self.events.append(event)
        return event

    def count(self, layer: str = "", kind: str = "") -> int:
        """Events matching the given layer and/or kind ('' matches all)."""
        return sum(
            1
            for event in self.events
            if (not layer or event.layer == layer)
            and (not kind or event.kind == kind)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
