"""Concurrent session service over the streamed GC protocol.

One scheduler core, :class:`SessionService` (:mod:`repro.serve.service`),
owns the service policy: admission with a typed
:class:`~repro.faults.ServiceSaturated` rejection, the queue, retry
backoff, drain, sealing, :class:`ServiceStats` and the
:class:`SupervisorLog`.  Two executors run the attempts:

* :class:`SessionMultiplexer` steps each session's
  :class:`~repro.gc.protocol.StreamedDriver` one AND level per pass,
  in this thread, over the in-memory framed pair (where frame faults
  inject);
* :class:`Supervisor` runs each party of a session as its own OS
  process (:mod:`repro.serve.procs`) over a kernel ``socketpair``, with
  liveness, deadlines, re-verified retries and process chaos.

Entry point: the ``repro serve`` CLI subcommand.  The ``service_small``
workload of ``perf/run.py`` measures the supervised path.
"""

from .procs import EVALUATOR, GARBLER, PeerSocketWire
from .service import (
    ServiceStats,
    SessionHandle,
    SessionMultiplexer,
    SessionService,
    SessionStats,
    SupervisorLog,
)
from .supervisor import SessionSpec, Supervisor, draw_chaos

__all__ = [
    "ServiceStats",
    "SessionHandle",
    "SessionMultiplexer",
    "SessionService",
    "SessionStats",
    "PeerSocketWire",
    "Supervisor",
    "SupervisorLog",
    "SessionSpec",
    "draw_chaos",
    "GARBLER",
    "EVALUATOR",
]
