"""Out-of-process party workers for the streamed two-party protocol.

Each party of a streamed session runs in its own OS process: the
garbler garbles AND level ``L+1`` while the evaluator is still hashing
level ``L`` -- the true two-party parallelism the paper's accelerator
argument assumes, instead of the single cooperative loop the in-process
multiplexer interleaves.

The pieces here are the *worker side* of the supervision tree
(:mod:`repro.serve.supervisor` owns the parent side):

* :class:`PeerSocketWire` -- a blocking framed pipe over one end of a
  connected socket.  Unlike :class:`~repro.serve.sockets.SocketWire`
  (which owns both ends of a ``socketpair`` in one process), each
  worker holds exactly one endpoint; ``pop`` blocks until a full frame
  arrives and surfaces peer death as typed
  :class:`~repro.faults.PeerDisconnected` and no-progress as
  :class:`~repro.faults.FrameTimeout` -- it never returns ``None``, so
  the :class:`~repro.gc.channel.FramedChannel` retransmit path (which
  only works when sender and receiver share one object) is never taken.
* :func:`party_process_main` -- the ``multiprocessing`` entry point
  and the *split* scheduler of the streamed protocol: closes inherited
  peer descriptors, starts the heartbeat thread, builds this party's
  role (:class:`~repro.gc.roles.GarblerRole` or
  :class:`~repro.gc.roles.EvaluatorRole` -- the same two scripts the
  fused :class:`~repro.gc.protocol.StreamedDriver` alternates in one
  process) on its end of the socket, runs its turns straight through,
  and reports ``("result" | "error", ...)`` on the control pipe.  The
  protocol itself is not spelled out here; since both drives run the
  same scripts, outputs *and* transcript digests are bit-identical to a
  solo ``run_streamed``.  A worker that dies without reporting is the
  supervisor's problem (process sentinel ->
  :class:`~repro.faults.WorkerCrashed`).
* :class:`ChaosDirective` -- the mechanical execution of a
  supervisor-drawn process fault (``kill_party`` / ``sever`` /
  ``stall``) at a deterministic AND-level trigger.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..faults import (
    FrameTimeout,
    PeerDisconnected,
    ProtocolFault,
    RecoveryLog,
)
from ..gc.channel import FramedChannel
from ..gc.roles import LEVEL, EvaluatorRole, GarblerRole

__all__ = [
    "GARBLER",
    "EVALUATOR",
    "ROLES",
    "PeerSocketWire",
    "ChaosDirective",
    "make_party_channels",
    "party_process_main",
]

GARBLER = GarblerRole.party
EVALUATOR = EvaluatorRole.party
ROLES = (GARBLER, EVALUATOR)

_LEN_PREFIX = 4
_IO_CHUNK = 65536

#: How long a stalled party sleeps.  Far past any sane deadline: the
#: supervisor's watchdog must kill the session, the sleep never ends on
#: its own.
STALL_SLEEP_S = 600.0


class PeerSocketWire:
    """Blocking, loss-free frame pipe over one end of a socket pair.

    The wire is shared by both of a party's directional
    :class:`~repro.gc.channel.FramedChannel` objects: the outgoing
    channel only ever calls :meth:`push`, the incoming one only
    :meth:`pop`.  ``io_timeout_s`` bounds *progress*, not the whole
    transfer -- each blocked send/recv waits at most that long for the
    socket to become ready, so a live-but-slow peer is fine while a
    stuck one surfaces as :class:`~repro.faults.FrameTimeout`.
    """

    def __init__(
        self, sock: socket.socket, direction: str, io_timeout_s: float = 30.0
    ) -> None:
        self.direction = direction
        self.io_timeout_s = io_timeout_s
        self._sock = sock
        sock.setblocking(False)
        self._inbox = bytearray()
        self._closed = False

    # -- FramedChannel wire interface ---------------------------------

    def push(self, data: bytes, seq: int) -> None:
        if self._closed:
            raise PeerDisconnected(
                f"PeerSocketWire {self.direction!r} is closed"
            )
        view = memoryview(
            len(data).to_bytes(_LEN_PREFIX, "little") + data
        )
        while view:
            try:
                sent = self._sock.send(view[:_IO_CHUNK])
            except BlockingIOError:
                if not self._wait(writable=True):
                    raise FrameTimeout(
                        f"PeerSocketWire {self.direction!r}: peer made no "
                        f"receive progress for {self.io_timeout_s:g}s "
                        f"({len(view)} bytes unsent)"
                    )
                continue
            except OSError as exc:
                raise self._peer_gone(exc, "send") from exc
            view = view[sent:]

    def pop(self) -> bytes:
        """Block until one full frame is available (never ``None``)."""
        while True:
            frame = self._extract_frame()
            if frame is not None:
                return frame
            try:
                chunk = self._sock.recv(_IO_CHUNK)
            except BlockingIOError:
                if not self._wait(writable=False):
                    raise FrameTimeout(
                        f"PeerSocketWire {self.direction!r}: no frame for "
                        f"{self.io_timeout_s:g}s "
                        f"({len(self._inbox)} bytes buffered)"
                    )
                continue
            except OSError as exc:
                raise self._peer_gone(exc, "recv") from exc
            if not chunk:
                raise PeerDisconnected(
                    f"PeerSocketWire {self.direction!r}: peer closed the "
                    f"connection ({len(self._inbox)} bytes buffered)"
                )
            self._inbox += chunk

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    # -- internals ----------------------------------------------------

    def _extract_frame(self) -> Optional[bytes]:
        if len(self._inbox) < _LEN_PREFIX:
            return None
        size = int.from_bytes(self._inbox[:_LEN_PREFIX], "little")
        if len(self._inbox) < _LEN_PREFIX + size:
            return None
        frame = bytes(self._inbox[_LEN_PREFIX : _LEN_PREFIX + size])
        del self._inbox[: _LEN_PREFIX + size]
        return frame

    def _wait(self, writable: bool) -> bool:
        try:
            if writable:
                _, ready, _ = select.select(
                    [], [self._sock], [], self.io_timeout_s
                )
            else:
                ready, _, _ = select.select(
                    [self._sock], [], [], self.io_timeout_s
                )
        except OSError as exc:
            raise self._peer_gone(exc, "select") from exc
        return bool(ready)

    def _peer_gone(self, exc: OSError, during: str) -> PeerDisconnected:
        # This party's only transport is the peer socket, so any OSError
        # on it means the peer is unreachable, whatever the errno.
        return PeerDisconnected(
            f"PeerSocketWire {self.direction!r}: transport failed during "
            f"{during}: {exc}"
        )


def make_party_channels(
    wire: PeerSocketWire,
    log: Optional[RecoveryLog] = None,
    chunk_bytes: int = 4096,
) -> Tuple[FramedChannel, FramedChannel]:
    """(down, up) channels for one party over its shared wire.

    Each party only exercises one half of each channel (the garbler
    sends on ``down`` and receives on ``up``; the evaluator mirrors),
    and the blocking wire is loss-free, so the sender-side retransmit
    buffer is disabled -- it could never be consulted anyway.
    """
    down = FramedChannel(
        "garbler->evaluator",
        log=log,
        chunk_bytes=chunk_bytes,
        wire=wire,
        keep_retransmit=False,
    )
    up = FramedChannel(
        "evaluator->garbler",
        log=log,
        chunk_bytes=chunk_bytes,
        wire=wire,
        keep_retransmit=False,
    )
    return down, up


# --------------------------------------------------------------------------
# Chaos directives (mechanically executed; the supervisor draws them)
# --------------------------------------------------------------------------


@dataclass
class ChaosDirective:
    """One process fault this worker must inject on itself.

    ``level`` is the AND-level index after which the fault fires; the
    supervisor clamps it to the schedule length, so every armed
    directive fires exactly once per attempt.
    """

    kind: str  # "kill_party" | "sever" | "stall"
    level: int
    stall_s: float = STALL_SLEEP_S

    def maybe_fire(self, level_index: int, sock: socket.socket) -> None:
        if level_index != self.level:
            return
        if self.kind == "kill_party":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "sever":
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        elif self.kind == "stall":
            time.sleep(self.stall_s)


class _Progress:
    """Levels-completed counter shared with the heartbeat thread."""

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


# --------------------------------------------------------------------------
# Process entry point
# --------------------------------------------------------------------------


def _heartbeat_loop(conn, lock, role, progress, interval, stop) -> None:
    while not stop.wait(interval):
        try:
            with lock:
                conn.send(("hb", role, progress.value))
        except (OSError, ValueError, BrokenPipeError):
            return


def party_process_main(role, payload, sock, conn, close_first) -> None:
    """Worker process body: run one party, report on the control pipe.

    ``close_first`` lists descriptors this child inherited but must not
    hold (the peer's socket end, the peer's control pipe, the parent's
    receive ends) -- keeping them open would mask the peer's death from
    both the kernel (no socket EOF) and the supervisor.  With the
    ``fork`` start method the full fd table is inherited, so this close
    pass is what makes :class:`~repro.faults.PeerDisconnected` prompt.
    """
    for other in close_first:
        try:
            other.close()
        except (OSError, ValueError):
            pass

    log = RecoveryLog()
    wire = PeerSocketWire(
        sock, f"{role} endpoint", io_timeout_s=payload["io_timeout_s"]
    )
    down, up = make_party_channels(
        wire, log=log, chunk_bytes=payload["chunk_bytes"]
    )
    progress = _Progress()
    lock = threading.Lock()
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, role, progress, payload["heartbeat_s"], stop),
        daemon=True,
    )
    heartbeat.start()

    chaos = ChaosDirective(**payload["chaos"]) if payload["chaos"] else None

    role_cls = GarblerRole if role == GARBLER else EvaluatorRole
    try:
        party = role_cls(
            payload["circuit"],
            payload["bits"],
            seed=payload["seed"],
            rekeyed=payload["rekeyed"],
            backend=payload["backend"],
            down=down,
            up=up,
        )
        while party.next_turn is not None:
            was_level = party.next_turn == LEVEL
            party.take_turn()
            if was_level:
                progress.bump()
                if chaos is not None:
                    chaos.maybe_fire(party.levels_done - 1, sock)
        report = party.report()
        report["recovered"] = log.signature()
        with lock:
            conn.send(("result", role, report))
    except ProtocolFault as exc:
        try:
            with lock:
                conn.send(("error", role, type(exc).__name__, str(exc)))
        except (OSError, ValueError):
            pass
    except BaseException as exc:  # normalised like StreamedDriver.step
        try:
            with lock:
                conn.send((
                    "error",
                    role,
                    "SessionAborted",
                    f"{role} worker aborted: {exc!r}",
                ))
        except (OSError, ValueError):
            pass
    finally:
        stop.set()
        try:
            conn.close()
        except (OSError, ValueError):
            pass
        wire.close()
