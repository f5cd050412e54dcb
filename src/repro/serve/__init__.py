"""Concurrent session service over the streamed GC protocol.

The serve layer turns the single-session level-streamed drive
(:class:`~repro.gc.protocol.StreamedDriver`) into a small service with
two scheduling substrates:

* **in-process** -- the cooperative :class:`SessionMultiplexer` admits
  N concurrent two-party sessions and round-robins per-AND-level quanta
  across them on the shared hashing substrate;
* **out-of-process** -- the :class:`Supervisor` runs each party of each
  session as its own OS process (:mod:`repro.serve.procs`) joined by a
  kernel ``socketpair``, and supervises from outside: heartbeat /
  sentinel liveness, per-session wall-clock deadlines with a
  kill-and-reap watchdog, bounded-budget retries re-verified against a
  fault-free reference digest, and graceful SIGTERM/SIGINT drain.

Both share two-level backpressure (typed
:class:`~repro.faults.ServiceSaturated` admission rejection -- carrying
a ``retry_after_hint_s`` -- plus per-session in-flight level windows)
and the :class:`ServiceStats` ledger (queue wait / first-level latency /
levels-per-second, plus retries / worker restarts / drain outcome).

Transports: in-process sessions default to the in-memory framed pair
(which is where frame-fault plans inject); :func:`make_socket_framed_pair`
substitutes a kernel-``socketpair``-backed wire for OS-level realism;
the supervisor's process transport adds whole-process chaos
(``kill_party`` / ``sever`` / ``stall``).

Entry point: the ``repro serve`` CLI subcommand.  The ``service_small``
workload of ``perf/run.py`` measures the supervised path.
"""

from .mux import ServiceStats, SessionHandle, SessionMultiplexer, SessionStats
from .procs import EVALUATOR, GARBLER, PeerSocketWire
from .sockets import SocketWire, close_framed_pair, make_socket_framed_pair
from .supervisor import (
    ChaosPick,
    SessionSpec,
    SupervisedSession,
    Supervisor,
    SupervisorLog,
    draw_chaos,
)

__all__ = [
    "ServiceStats",
    "SessionHandle",
    "SessionMultiplexer",
    "SessionStats",
    "SocketWire",
    "PeerSocketWire",
    "close_framed_pair",
    "make_socket_framed_pair",
    "Supervisor",
    "SupervisorLog",
    "SupervisedSession",
    "SessionSpec",
    "ChaosPick",
    "draw_chaos",
    "GARBLER",
    "EVALUATOR",
]
