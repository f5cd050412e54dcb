"""The two-party channel: a framed transport over a lossy wire.

GCs are communication heavy: every AND gate ships a 32-byte table and
every Evaluator input costs an OT round trip.  Every session message is
split into ``chunk_bytes``-sized frames carrying sequence numbers,
length headers and a CRC32 trailer, pushed through a :class:`LossyWire`
that a :class:`repro.faults.FaultPlan` may drop, corrupt, truncate,
tamper with, duplicate, delay or reorder.  The receiver reassembles
strictly in sequence order, requests bounded retransmits with
exponential backoff when a frame goes missing, and both sides maintain
running SHA-256 transcript digests whose end-of-session exchange turns
any corruption that slipped past the per-frame CRC into a typed
:class:`~repro.faults.TranscriptMismatch` (DESIGN.md section 10).
Each :class:`FramedChannel` counts the framed bytes it pushes by
message kind: the traffic a session reports.
"""

from __future__ import annotations

import hashlib
import struct
import time
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..faults import (
    ChannelProtocolError,
    FaultPlan,
    FrameCorrupt,
    FrameTimeout,
    RecoveryLog,
    SessionAborted,
)

__all__ = [
    "Frame",
    "FRAME_HEADER",
    "FRAME_OVERHEAD",
    "encode_frame",
    "decode_frame",
    "LossyWire",
    "FramedChannel",
    "FramedPair",
    "make_framed_pair",
    "DIGEST_KIND",
    "MAX_CHUNKS_PER_MESSAGE",
    "SEQ_MOD",
    "seq_delta",
]


FRAME_MAGIC = b"GF"
FRAME_VERSION = 1
# magic | version | seq u32 | msg_id u32 | chunk u16 | n_chunks u16 |
# kind_len u8 | payload_len u32, then kind, payload, CRC32 u32 trailer.
FRAME_HEADER = struct.Struct("<2sBIIHHBI")
_CRC = struct.Struct("<I")
FRAME_OVERHEAD = FRAME_HEADER.size + _CRC.size

#: The chunk / n_chunks header fields are u16: one message is at most
#: this many chunks.  ``send_message`` raises the typed
#: :class:`~repro.faults.ChannelProtocolError` past the cap instead of
#: letting ``struct.pack`` blow up mid-stream.
MAX_CHUNKS_PER_MESSAGE = 0xFFFF

#: Sequence numbers and message ids occupy u32 header fields and wrap
#: mod 2^32; ordering near the wrap uses serial-number arithmetic
#: (:func:`seq_delta`), so a stream may carry more than 2^32 frames.
SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31

DIGEST_KIND = "digest"  # transcript-exchange frames; excluded from digests


def seq_delta(a: int, b: int) -> int:
    """Signed distance ``a - b`` in serial-number arithmetic mod 2^32.

    Returns a value in ``[-2^31, 2^31)``: negative when ``a`` precedes
    ``b`` on the wrapped sequence circle (RFC 1982 style), so duplicate
    detection keeps working across the u32 wraparound as long as fewer
    than 2^31 frames are in flight -- the reassembly window is bounded
    by the retransmit budget, so that always holds.
    """
    return ((a - b + _SEQ_HALF) % SEQ_MOD) - _SEQ_HALF


@dataclass(frozen=True)
class Frame:
    """One wire frame: a chunk of a message plus transport metadata."""

    seq: int
    msg_id: int
    chunk: int
    n_chunks: int
    kind: str
    payload: bytes


def encode_frame(frame: Frame) -> bytes:
    kind_bytes = frame.kind.encode("ascii")
    if len(kind_bytes) > 255:
        raise ValueError("frame kind too long")
    if frame.chunk > MAX_CHUNKS_PER_MESSAGE or frame.n_chunks > MAX_CHUNKS_PER_MESSAGE:
        raise ChannelProtocolError(
            f"chunk counter overflows the u16 frame header: "
            f"chunk={frame.chunk}, n_chunks={frame.n_chunks} "
            f"(max {MAX_CHUNKS_PER_MESSAGE})"
        )
    if not 0 <= frame.seq < SEQ_MOD or not 0 <= frame.msg_id < SEQ_MOD:
        raise ChannelProtocolError(
            f"seq/msg_id outside the u32 header range: seq={frame.seq}, "
            f"msg_id={frame.msg_id} (senders must wrap mod 2^32)"
        )
    body = FRAME_HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        frame.seq,
        frame.msg_id,
        frame.chunk,
        frame.n_chunks,
        len(kind_bytes),
        len(frame.payload),
    ) + kind_bytes + frame.payload
    return body + _CRC.pack(zlib.crc32(body))


def decode_frame(data: bytes) -> Frame:
    """Parse and validate one frame; any damage raises :class:`FrameCorrupt`."""
    if len(data) < FRAME_OVERHEAD:
        raise FrameCorrupt(f"frame too short: {len(data)} bytes")
    body, (crc,) = data[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise FrameCorrupt("frame CRC32 mismatch")
    magic, version, seq, msg_id, chunk, n_chunks, kind_len, payload_len = (
        FRAME_HEADER.unpack(body[:FRAME_HEADER.size])
    )
    if magic != FRAME_MAGIC:
        raise FrameCorrupt(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameCorrupt(f"unsupported frame version {version}")
    rest = body[FRAME_HEADER.size:]
    if len(rest) != kind_len + payload_len:
        raise FrameCorrupt(
            f"frame length mismatch: header says {kind_len + payload_len}, "
            f"got {len(rest)}"
        )
    if chunk >= n_chunks:
        raise FrameCorrupt(f"bad chunk index {chunk} of {n_chunks}")
    try:
        kind = rest[:kind_len].decode("ascii")
    except UnicodeDecodeError:
        raise FrameCorrupt(f"non-ASCII frame kind {rest[:kind_len]!r}") from None
    return Frame(seq, msg_id, chunk, n_chunks, kind, rest[kind_len:])


class LossyWire:
    """Ordered byte-frame pipe that a fault plan may perturb.

    Faults are applied at push time so the receiver genuinely observes
    missing / damaged / re-sequenced frames.  With no plan the wire is
    a perfect FIFO.
    """

    def __init__(self, direction: str, plan: Optional[FaultPlan] = None) -> None:
        self.direction = direction
        self.plan = plan
        self._queue: Deque[bytes] = deque()
        # Delayed frames: (remaining delivery slots, data).
        self._delayed: List[Tuple[int, bytes]] = []
        self.pushed = 0
        self.dropped = 0

    def push(self, data: bytes, seq: int) -> None:
        self.pushed += 1
        plan = self.plan
        if plan is None:
            self._queue.append(data)
            return
        site = f"{self.direction}#{seq}"
        kinds = plan.frame_faults(site)
        # At most one *mutating* fault per frame, highest severity wins;
        # placement faults (duplicate/delay/reorder) compose on top.
        if "drop" in kinds:
            self.dropped += 1
            return
        if "truncate" in kinds:
            cut = 1 + plan.choose_offset(min(len(data) - 1, FRAME_OVERHEAD))
            data = data[:-cut]
        elif "corrupt" in kinds:
            pos = plan.choose_offset(len(data))
            data = data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]
        elif "tamper" in kinds:
            # Flip a payload byte *and* recompute the CRC: undetectable
            # per-frame, caught only by the transcript digest exchange.
            frame = decode_frame(data)
            if frame.payload:
                pos = plan.choose_offset(len(frame.payload))
                payload = (
                    frame.payload[:pos]
                    + bytes([frame.payload[pos] ^ 0xFF])
                    + frame.payload[pos + 1:]
                )
                data = encode_frame(
                    Frame(
                        frame.seq,
                        frame.msg_id,
                        frame.chunk,
                        frame.n_chunks,
                        frame.kind,
                        payload,
                    )
                )
        if "delay" in kinds:
            self._delayed.append((1 + plan.choose_offset(3), data))
        else:
            self._queue.append(data)
        if "duplicate" in kinds:
            self._queue.append(data)
        if "reorder" in kinds and len(self._queue) >= 2:
            self._queue[-1], self._queue[-2] = self._queue[-2], self._queue[-1]

    def _tick_delayed(self) -> None:
        if not self._delayed:
            return
        still: List[Tuple[int, bytes]] = []
        for remaining, data in self._delayed:
            remaining -= 1
            if remaining <= 0:
                self._queue.append(data)
            else:
                still.append((remaining, data))
        self._delayed = still

    def pop(self) -> Optional[bytes]:
        self._tick_delayed()
        if not self._queue and self._delayed:
            # Nothing in flight but held frames remain: they arrive
            # eventually; release the earliest rather than timing out.
            remaining, data = self._delayed.pop(0)
            return data
        if not self._queue:
            return None
        return self._queue.popleft()

    def pending(self) -> int:
        return len(self._queue) + len(self._delayed)


class FramedChannel:
    """One direction of the framed transport.

    In the fused drive both endpoints live in this process, so a
    single object carries the sender state (sequence counter,
    retransmit buffer, send digest) and the receiver state (reassembly
    window, delivery cursor, recv digest) for its direction.
    """

    def __init__(
        self,
        name: str,
        plan: Optional[FaultPlan] = None,
        log: Optional[RecoveryLog] = None,
        chunk_bytes: int = 4096,
        max_retries: int = 8,
        backoff_base_s: float = 0.0005,
        wire: Optional[Any] = None,
    ) -> None:
        """``wire`` (default: a :class:`LossyWire` applying ``plan``)
        carries the frames.  The sender-side pristine-frame buffer is
        kept only on the default wire: the retransmit path works only
        when sender and receiver share this object, and a custom wire
        (a split-process endpoint over a loss-free blocking socket)
        never retransmits, so retaining every frame for the session
        would only grow memory."""
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if wire is not None and plan is not None:
            raise ValueError(
                "fault plans are applied by LossyWire; a custom wire "
                "(e.g. a socket transport) cannot also take a plan"
            )
        self.name = name
        self.log = log
        self.chunk_bytes = chunk_bytes
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self._retains_frames = wire is None
        self.wire = wire if wire is not None else LossyWire(name, plan)
        self.bytes_by_class: Dict[str, int] = defaultdict(int)
        # Sender state.
        self._next_seq = 0
        self._next_msg_send = 0
        self._retransmit: Dict[int, bytes] = {}
        self._send_digest = hashlib.sha256()
        # Receiver state.
        self._next_deliver = 0
        self._next_msg_recv = 0
        self._reassembly: Dict[int, Frame] = {}
        self._recv_digest = hashlib.sha256()
        # Stats.
        self.frames_sent = 0
        self.retransmits = 0
        self.corrupt_frames = 0
        self.duplicate_frames = 0
        self.backoff_s = 0.0

    # -- sender side -------------------------------------------------------

    def send_message(self, kind: str, payload: bytes) -> None:
        """Frame, chunk and push one message.

        Messages longer than ``MAX_CHUNKS_PER_MESSAGE * chunk_bytes``
        cannot be expressed in the u16 chunk header; that raises the
        typed :class:`ChannelProtocolError` *before* any frame is
        pushed, so the stream stays consistent.
        """
        chunks = [
            payload[i : i + self.chunk_bytes]
            for i in range(0, len(payload), self.chunk_bytes)
        ] or [b""]
        if len(chunks) > MAX_CHUNKS_PER_MESSAGE:
            raise ChannelProtocolError(
                f"channel {self.name}: {kind!r} message of {len(payload)} "
                f"bytes needs {len(chunks)} chunks of {self.chunk_bytes} "
                f"bytes, over the u16 header cap of {MAX_CHUNKS_PER_MESSAGE}"
            )
        msg_id = self._next_msg_send
        self._next_msg_send = (self._next_msg_send + 1) % SEQ_MOD
        for index, chunk in enumerate(chunks):
            frame = Frame(self._next_seq, msg_id, index, len(chunks), kind, chunk)
            self._next_seq = (self._next_seq + 1) % SEQ_MOD
            data = encode_frame(frame)
            if self._retains_frames:
                self._retransmit[frame.seq] = data
            self.bytes_by_class[kind] += len(data)
            self.frames_sent += 1
            self.wire.push(data, frame.seq)
        if kind != DIGEST_KIND:
            self._digest_update(self._send_digest, kind, payload)

    # -- receiver side -----------------------------------------------------

    def recv_message(self, kind: str) -> bytes:
        """Deliver the next message, surviving wire faults.

        Frames are delivered strictly in sequence order.  When the next
        expected frame cannot be produced from the wire, its pristine
        copy is retransmitted with exponential backoff, at most
        ``max_retries`` times, after which :class:`FrameTimeout` is
        raised.  A message of an unexpected kind raises
        :class:`SessionAborted` (the state machines diverged).
        """
        frames: List[Frame] = []
        attempts = 0
        backoff = self.backoff_base_s
        while True:
            frame = self._reassembly.pop(self._next_deliver, None)
            if frame is not None:
                self._next_deliver = (self._next_deliver + 1) % SEQ_MOD
                self._retransmit.pop(frame.seq, None)
                if frame.kind != kind:
                    raise SessionAborted(
                        f"channel {self.name}: expected {kind!r} message, "
                        f"got {frame.kind!r} (seq={frame.seq})"
                    )
                if frame.chunk != len(frames) or (
                    frames and frame.msg_id != frames[0].msg_id
                ):
                    raise SessionAborted(
                        f"channel {self.name}: chunk sequencing violated at "
                        f"seq={frame.seq}"
                    )
                frames.append(frame)
                if len(frames) == frames[0].n_chunks:
                    payload = b"".join(f.payload for f in frames)
                    self._next_msg_recv = (self._next_msg_recv + 1) % SEQ_MOD
                    if kind != DIGEST_KIND:
                        self._digest_update(self._recv_digest, kind, payload)
                    return payload
                continue
            data = self.wire.pop()
            if data is None:
                attempts += 1
                if attempts > self.max_retries:
                    raise FrameTimeout(
                        f"channel {self.name}: frame seq={self._next_deliver} "
                        f"({kind}) still missing after {self.max_retries} "
                        f"retransmits"
                    )
                pristine = self._retransmit.get(self._next_deliver)
                if pristine is None:
                    raise SessionAborted(
                        f"channel {self.name}: frame seq={self._next_deliver} "
                        "lost with no retransmit copy"
                    )
                time.sleep(backoff)
                self.backoff_s += backoff
                backoff *= 2
                self.retransmits += 1
                self.bytes_by_class[kind] += len(pristine)
                self._record(
                    "retransmit",
                    f"{self.name} seq={self._next_deliver} attempt={attempts}",
                )
                self.wire.push(pristine, self._next_deliver)
                continue
            try:
                parsed = decode_frame(data)
            except FrameCorrupt as exc:
                # Treated as lost: the sequence gap is healed by the
                # retransmit path above.
                self.corrupt_frames += 1
                self._record("frame_corrupt", f"{self.name}: {exc}")
                continue
            if seq_delta(parsed.seq, self._next_deliver) < 0 or (
                parsed.seq in self._reassembly
            ):
                self.duplicate_frames += 1
                self._record("duplicate_dropped", f"{self.name} seq={parsed.seq}")
                continue
            self._reassembly[parsed.seq] = parsed

    # -- transcript digests ------------------------------------------------

    @staticmethod
    def _digest_update(digest, kind: str, payload: bytes) -> None:
        digest.update(kind.encode("ascii"))
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)

    def send_digest(self) -> bytes:
        """Digest of every message pushed by the sender so far."""
        return self._send_digest.digest()

    def recv_digest(self) -> bytes:
        """Digest of every message delivered to the receiver so far."""
        return self._recv_digest.digest()

    def _record(self, event_kind: str, detail: str) -> None:
        if self.log is not None:
            self.log.record("transport", event_kind, detail)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())


@dataclass
class FramedPair:
    """Duplex framed link between Garbler (Alice) and Evaluator (Bob)."""

    to_evaluator: FramedChannel
    to_garbler: FramedChannel

    @property
    def total_bytes(self) -> int:
        return self.to_evaluator.total_bytes + self.to_garbler.total_bytes


def make_framed_pair(
    plan: Optional[FaultPlan] = None, log: Optional[RecoveryLog] = None
) -> FramedPair:
    return FramedPair(
        to_evaluator=FramedChannel("garbler->evaluator", plan=plan, log=log),
        to_garbler=FramedChannel("evaluator->garbler", plan=plan, log=log),
    )
