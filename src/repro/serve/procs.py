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
* :func:`run_garbler_party` / :func:`run_evaluator_party` -- the two
  halves of :class:`~repro.gc.protocol.StreamedDriver`'s fused drive,
  split along the wire.  Per-direction message order is identical to
  the in-process streamed drive, so outputs *and* transcript digests
  are bit-identical to a solo ``run_streamed``.
* :func:`party_process_main` -- the ``multiprocessing`` entry point:
  closes inherited peer descriptors, starts the heartbeat thread, runs
  the party, and reports ``("result" | "error", ...)`` on the control
  pipe.  A worker that dies without reporting is the supervisor's
  problem (process sentinel -> :class:`~repro.faults.WorkerCrashed`).
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
from typing import Dict, List, Optional, Tuple

from ..faults import (
    FrameTimeout,
    PeerDisconnected,
    ProtocolFault,
    RecoveryLog,
)
from ..gc.channel import DIGEST_KIND, FramedChannel
from ..gc.ot import OtReceiver, OtSender
from ..gc.protocol import (
    _LABEL_BYTES,
    _POINT_BYTES,
    _StreamingEvaluator,
    _StreamingGarbler,
    _bytes_to_ints,
    _ints_to_bytes,
    _pack_bits,
    _unpack_bits,
)
from ..gc.rng import LabelPrg
from .sockets import _PEER_GONE_ERRNOS

__all__ = [
    "GARBLER",
    "EVALUATOR",
    "ROLES",
    "PeerSocketWire",
    "ChaosDirective",
    "make_party_channels",
    "run_garbler_party",
    "run_evaluator_party",
    "party_process_main",
]

GARBLER = "garbler"
EVALUATOR = "evaluator"
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
        # Stats parity with the in-process wires.
        self.pushed = 0
        self.dropped = 0

    # -- FramedChannel wire interface ---------------------------------

    def push(self, data: bytes, seq: int) -> None:
        if self._closed:
            raise PeerDisconnected(
                f"PeerSocketWire {self.direction!r} is closed"
            )
        self.pushed += 1
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

    def pending(self) -> int:
        return 0  # frames are consumed as they complete

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

    def _peer_gone(self, exc: OSError, during: str) -> ProtocolFault:
        if exc.errno in _PEER_GONE_ERRNOS:
            return PeerDisconnected(
                f"PeerSocketWire {self.direction!r}: peer endpoint gone "
                f"during {during}: {exc}"
            )
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

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "level": self.level,
            "stall_s": self.stall_s,
        }


class _NoChaos:
    def maybe_fire(self, level_index: int, sock: socket.socket) -> None:
        return None


class _Progress:
    """Levels-completed counter shared with the heartbeat thread."""

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


# --------------------------------------------------------------------------
# Party drive loops
# --------------------------------------------------------------------------


def run_garbler_party(
    circuit,
    seed: int,
    rekeyed: bool,
    backend,
    garbler_bits: List[int],
    down: FramedChannel,
    up: FramedChannel,
    sock: socket.socket,
    progress: _Progress,
    chaos,
    log: RecoveryLog,
) -> Dict[str, object]:
    """Alice's half of the streamed session (send tables, verify up)."""
    from ..faults import TranscriptMismatch

    alice = _StreamingGarbler(circuit, seed, rekeyed, backend)
    sender = OtSender(LabelPrg(seed + 0x0F))
    down.send_message("ot_public", sender.public.to_bytes(_POINT_BYTES, "big"))
    points = _bytes_to_ints(
        up.recv_message("ot_points"), _POINT_BYTES, "ot_points"
    )
    label_pairs = [
        (alice.input_label(wire, 0), alice.input_label(wire, 1))
        for wire in circuit.evaluator_input_wires
    ]
    cipher_pairs = sender.encrypt_batch(points, label_pairs)
    down.send_message(
        "ot_ciphers",
        _ints_to_bytes(
            [c for pair in cipher_pairs for c in pair], _LABEL_BYTES
        ),
    )
    alice_labels = [
        alice.input_label(wire, bit)
        for wire, bit in zip(circuit.garbler_input_wires, garbler_bits)
    ]
    down.send_message(
        "garbler_labels", _ints_to_bytes(alice_labels, _LABEL_BYTES)
    )

    levels = list(circuit.and_level_schedule())
    for index, (and_positions, free_groups) in enumerate(levels):
        block = alice.garble_phase(and_positions, free_groups)
        if and_positions:
            down.send_message("tables", block)
        progress.bump()
        chaos.maybe_fire(index, sock)

    down.send_message("decode", _pack_bits(alice.decode_bits()))
    output_bits = _unpack_bits(
        up.recv_message("outputs"), len(circuit.outputs), "outputs"
    )

    # Transcript digest exchange: claim the down digest, verify the up
    # one against what this side actually delivered.
    down.send_message(DIGEST_KIND, down.send_digest())
    claimed_up = up.recv_message(DIGEST_KIND)
    if claimed_up != up.recv_digest():
        raise TranscriptMismatch(
            "evaluator->garbler transcript diverged: sender "
            f"{claimed_up.hex()[:16]}..., receiver "
            f"{up.recv_digest().hex()[:16]}..."
        )

    return {
        "role": GARBLER,
        "output_bits": output_bits,
        "send_digest": down.send_digest().hex(),
        "sent_bytes": dict(down.bytes_by_class),
        "levels": len(levels),
        "recovered": log.signature(),
    }


def run_evaluator_party(
    circuit,
    seed: int,
    rekeyed: bool,
    backend,
    evaluator_bits: List[int],
    down: FramedChannel,
    up: FramedChannel,
    sock: socket.socket,
    progress: _Progress,
    chaos,
    log: RecoveryLog,
) -> Dict[str, object]:
    """Bob's half of the streamed session (evaluate level by level)."""
    from ..faults import SessionAborted, TranscriptMismatch

    t_start = time.perf_counter()
    receiver = OtReceiver(
        LabelPrg(seed + 0xB0B),
        int.from_bytes(down.recv_message("ot_public"), "big"),
    )
    points_and_secrets = receiver.choose_batch(evaluator_bits)
    up.send_message(
        "ot_points",
        _ints_to_bytes([p for p, _ in points_and_secrets], _POINT_BYTES),
    )
    flat_ciphers = _bytes_to_ints(
        down.recv_message("ot_ciphers"), _LABEL_BYTES, "ot_ciphers"
    )
    cipher_pairs = list(zip(flat_ciphers[0::2], flat_ciphers[1::2]))
    alice_labels = _bytes_to_ints(
        down.recv_message("garbler_labels"), _LABEL_BYTES, "garbler_labels"
    )
    if len(alice_labels) != circuit.n_garbler_inputs:
        raise SessionAborted(
            f"garbler_labels: expected {circuit.n_garbler_inputs} labels, "
            f"got {len(alice_labels)}"
        )
    bob_labels = receiver.decrypt_batch(
        evaluator_bits,
        [secret for _, secret in points_and_secrets],
        cipher_pairs,
    )
    bob = _StreamingEvaluator(
        circuit, alice_labels + bob_labels, rekeyed, backend
    )

    levels = list(circuit.and_level_schedule())
    streamed_levels = 0
    first_level_s: Optional[float] = None
    for index, (and_positions, free_groups) in enumerate(levels):
        if and_positions:
            block = down.recv_message("tables")
            streamed_levels += 1
        else:
            block = b""
        bob.eval_phase(and_positions, free_groups, block)
        if and_positions and first_level_s is None:
            first_level_s = time.perf_counter() - t_start
        progress.bump()
        chaos.maybe_fire(index, sock)

    decode_bits = _unpack_bits(
        down.recv_message("decode"), len(circuit.outputs), "decode"
    )
    output_bits = bob.decode(decode_bits)
    up.send_message("outputs", _pack_bits(output_bits))

    claimed = down.recv_message(DIGEST_KIND)
    delivered = down.recv_digest()
    if claimed != delivered:
        raise TranscriptMismatch(
            "garbler->evaluator transcript diverged: sender "
            f"{claimed.hex()[:16]}..., receiver {delivered.hex()[:16]}..."
        )
    up.send_message(DIGEST_KIND, up.send_digest())

    from ..circuits.netlist import OP_AND

    return {
        "role": EVALUATOR,
        "output_bits": output_bits,
        "transcript_digest": delivered.hex(),
        "sent_bytes": dict(up.bytes_by_class),
        "streamed_levels": streamed_levels,
        "first_level_s": first_level_s,
        "levels": len(levels),
        "and_gates": circuit.op.count(OP_AND),
        "hash_calls": bob.hasher.calls,
        "recovered": log.signature(),
    }


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

    chaos_dict = payload.get("chaos")
    chaos = (
        ChaosDirective(**chaos_dict) if chaos_dict is not None else _NoChaos()
    )

    backend = None
    if payload.get("backend") is not None:
        from ..gc.backends import resolve_backend

        backend = resolve_backend(payload["backend"])

    run_party = run_garbler_party if role == GARBLER else run_evaluator_party
    try:
        report = run_party(
            payload["circuit"],
            payload["seed"],
            payload["rekeyed"],
            backend,
            payload["bits"],
            down,
            up,
            sock,
            progress,
            chaos,
            log,
        )
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
