"""Framed transport unit tests: frame codec, lossy wire, recovery."""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.faults import (
    ChannelProtocolError,
    FaultPlan,
    FrameCorrupt,
    FrameTimeout,
    RecoveryLog,
    SessionAborted,
)
from repro.gc.channel import (
    DIGEST_KIND,
    FRAME_HEADER,
    FRAME_OVERHEAD,
    MAX_CHUNKS_PER_MESSAGE,
    SEQ_MOD,
    Frame,
    FramedChannel,
    LossyWire,
    decode_frame,
    encode_frame,
    make_framed_pair,
    seq_delta,
)
from repro.gc import channel as channel_mod
from repro.gc.protocol import run_two_party


def _sealed(body: bytes) -> bytes:
    """``body`` with its CRC32 trailer: a frame that passes the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def _channel(plan=None, log=None, **kw):
    kw.setdefault("backoff_base_s", 0.0)
    return FramedChannel("test-wire", plan=plan, log=log, **kw)


class TestFrameCodec:
    @pytest.mark.parametrize(
        "payload", [b"", b"x", b"hello world", bytes(range(256)) * 5]
    )
    def test_round_trip(self, payload):
        frame = Frame(3, 1, 0, 2, "tables", payload)
        assert decode_frame(encode_frame(frame)) == frame

    def test_overhead_matches_header(self):
        assert len(encode_frame(Frame(0, 0, 0, 1, "", b""))) == FRAME_OVERHEAD

    def test_too_short_rejected(self):
        with pytest.raises(FrameCorrupt, match="too short"):
            decode_frame(b"GF")

    def test_flipped_byte_fails_crc(self):
        data = bytearray(encode_frame(Frame(0, 0, 0, 1, "k", b"payload")))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(FrameCorrupt, match="CRC32"):
            decode_frame(bytes(data))

    @staticmethod
    def _crafted(
        magic=b"GF", version=1, kind=b"k", payload=b"p", payload_len=None,
        chunk=0, n_chunks=1,
    ):
        body = FRAME_HEADER.pack(
            magic,
            version,
            0,
            0,
            chunk,
            n_chunks,
            len(kind),
            len(payload) if payload_len is None else payload_len,
        ) + kind + payload
        return _sealed(body)

    def test_bad_magic_rejected(self):
        with pytest.raises(FrameCorrupt, match="magic"):
            decode_frame(self._crafted(magic=b"XX"))

    def test_bad_version_rejected(self):
        with pytest.raises(FrameCorrupt, match="version"):
            decode_frame(self._crafted(version=9))

    def test_length_mismatch_rejected(self):
        with pytest.raises(FrameCorrupt, match="length mismatch"):
            decode_frame(self._crafted(payload_len=99))

    # Regression: these three passed the CRC and escaped as a
    # UnicodeDecodeError or a frame no reassembly could complete.
    def test_non_ascii_kind_rejected(self):
        with pytest.raises(FrameCorrupt, match="non-ASCII"):
            decode_frame(self._crafted(kind=b"\xff"))

    def test_zero_chunk_count_rejected(self):
        with pytest.raises(FrameCorrupt, match="chunk index"):
            decode_frame(self._crafted(n_chunks=0))

    def test_chunk_past_count_rejected(self):
        with pytest.raises(FrameCorrupt, match="chunk index"):
            decode_frame(self._crafted(chunk=2, n_chunks=2))

    def test_sealed_bad_kind_takes_the_retransmit_path(self):
        ch = _channel()
        ch.wire.push(self._crafted(kind=b"\xff"), 0)
        ch.send_message("tables", b"ok")
        assert ch.recv_message("tables") == b"ok"
        assert ch.corrupt_frames == 1

    def test_kind_too_long_rejected(self):
        with pytest.raises(ValueError, match="kind too long"):
            encode_frame(Frame(0, 0, 0, 1, "k" * 300, b""))

    def test_chunk_counter_overflow_rejected(self):
        # Regression: chunk/n_chunks are u16 header fields; values past
        # 65535 used to reach struct.pack and explode mid-stream.
        with pytest.raises(ChannelProtocolError, match="u16"):
            encode_frame(Frame(0, 0, MAX_CHUNKS_PER_MESSAGE + 1, 1, "k", b""))
        with pytest.raises(ChannelProtocolError, match="u16"):
            encode_frame(Frame(0, 0, 0, MAX_CHUNKS_PER_MESSAGE + 1, "k", b""))

    def test_unwrapped_seq_rejected(self):
        with pytest.raises(ChannelProtocolError, match="u32"):
            encode_frame(Frame(SEQ_MOD, 0, 0, 1, "k", b""))
        with pytest.raises(ChannelProtocolError, match="u32"):
            encode_frame(Frame(0, SEQ_MOD, 0, 1, "k", b""))


def _and_circuit(width):
    """``width`` garbler bits ANDed with ``width`` evaluator bits."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(width)
    ys = builder.add_evaluator_inputs(width)
    builder.mark_outputs([builder.AND(x, y) for x, y in zip(xs, ys)])
    return builder.build(f"and{width}")


@pytest.fixture(scope="module")
def session_frames():
    """One encoded frame of every message kind a streamed session sends:
    8 choices run the direct handshake, 211 the OT extension."""
    frames = {}

    def recording(frame):
        data = encode_frame(frame)
        frames.setdefault(frame.kind, data)
        return data

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_mod, "encode_frame", recording)
        for width in (8, 211):
            bits = [i & 1 for i in range(width)]
            run_two_party(_and_circuit(width), bits, bits, backend="numpy")
    return [frames[kind] for kind in sorted(frames)]


class TestFrameMutations:
    """Every mutated frame decodes or raises FrameCorrupt, nothing else.

    Raw mutations must fail the CRC (or leave the frame intact);
    re-sealed ones (CRC recomputed over the mutated body) reach the
    header, kind and length checks, and a frame that parses must
    re-encode to exactly the bytes it was parsed from.
    """

    @staticmethod
    def _mutate(rng, data: bytes) -> bytes:
        data = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0 and data:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif kind == 1 and data:
                del data[rng.randrange(len(data)) :]
            else:
                data += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        return bytes(data)

    def test_every_message_kind_is_covered(self, session_frames):
        kinds = {decode_frame(data).kind for data in session_frames}
        assert {"ot_points", "otx_matrix", "tables", DIGEST_KIND} <= kinds
        assert len(kinds) == 13

    @pytest.mark.parametrize(
        "rounds", [300, pytest.param(6000, marks=pytest.mark.slow)]
    )
    def test_seeded_mutations(self, session_frames, rounds):
        rng = random.Random(36)
        outcomes = {"raw": 0, "parsed": 0, "rejected": 0}
        for _ in range(rounds):
            original = rng.choice(session_frames)
            mutated = self._mutate(rng, original)
            try:
                assert decode_frame(mutated) == decode_frame(original)
            except FrameCorrupt:
                outcomes["raw"] += 1
            resealed = _sealed(self._mutate(rng, original[:-4]))
            try:
                frame = decode_frame(resealed)
            except FrameCorrupt:
                outcomes["rejected"] += 1
                continue
            assert encode_frame(frame) == resealed
            outcomes["parsed"] += 1
        assert outcomes["raw"] and outcomes["parsed"] and outcomes["rejected"]


class TestChunkOverflow:
    def test_message_at_chunk_cap_round_trips(self):
        ch = FramedChannel("t", chunk_bytes=1, backoff_base_s=0.0)
        payload = bytes(MAX_CHUNKS_PER_MESSAGE)
        ch.send_message("tables", payload)
        assert ch.frames_sent == MAX_CHUNKS_PER_MESSAGE
        assert ch.recv_message("tables") == payload

    def test_message_over_chunk_cap_raises_before_any_push(self):
        # Regression: 65536 one-byte chunks used to hit struct.pack's
        # u16 range error after 65535 frames were already on the wire.
        ch = FramedChannel("t", chunk_bytes=1, backoff_base_s=0.0)
        with pytest.raises(ChannelProtocolError, match="u16 header cap"):
            ch.send_message("tables", bytes(MAX_CHUNKS_PER_MESSAGE + 1))
        assert ch.frames_sent == 0
        assert ch.wire.pending() == 0
        assert ch.bytes_by_class == {}
        # The stream is still usable afterwards.
        ch.send_message("tables", b"ok")
        assert ch.recv_message("tables") == b"ok"


class TestSeqWraparound:
    def test_seq_delta_serial_arithmetic(self):
        assert seq_delta(5, 3) == 2
        assert seq_delta(3, 5) == -2
        assert seq_delta(0, SEQ_MOD - 1) == 1  # wrapped successor
        assert seq_delta(SEQ_MOD - 1, 0) == -1
        assert seq_delta(7, 7) == 0

    def test_counters_wrap_mod_2_32(self):
        # Regression: _next_seq incremented unbounded into a u32 header
        # field; after 2^32 frames struct.pack raised.  Counters now wrap
        # explicitly and duplicate detection uses serial arithmetic.
        ch = FramedChannel("t", chunk_bytes=4, backoff_base_s=0.0)
        ch._next_seq = ch._next_deliver = SEQ_MOD - 2
        ch._next_msg_send = ch._next_msg_recv = SEQ_MOD - 1
        for index in range(4):  # 2 frames/message straddle the wrap
            payload = bytes([index]) * 8
            ch.send_message("tables", payload)
            assert ch.recv_message("tables") == payload
        assert ch._next_seq == 6  # (2^32 - 2 + 8) mod 2^32
        assert ch._next_deliver == ch._next_seq
        assert ch._next_msg_send == 3
        assert ch.send_digest() == ch.recv_digest()

    def test_retransmit_across_the_wrap(self):
        ch = FramedChannel("t", backoff_base_s=0.0)
        ch._next_seq = ch._next_deliver = SEQ_MOD - 1
        ch.send_message("tables", b"wrap")
        assert ch.wire.pop() is not None  # lose the seq = 2^32 - 1 frame
        assert ch.recv_message("tables") == b"wrap"
        assert ch.retransmits == 1
        # Post-wrap frames keep flowing.
        ch.send_message("decode", b"after")
        assert ch.recv_message("decode") == b"after"

    def test_duplicate_of_pre_wrap_frame_dropped_after_wrap(self):
        ch = FramedChannel("t", backoff_base_s=0.0)
        ch._next_seq = ch._next_deliver = SEQ_MOD - 1
        ch.send_message("a", b"one")
        stale = ch.wire.pop()
        assert stale is not None
        ch.wire.push(stale, SEQ_MOD - 1)
        assert ch.recv_message("a") == b"one"  # cursor now wrapped to 0
        # Replay the pre-wrap frame: serial arithmetic must see it as
        # "behind" seq 0, not 4 billion frames ahead.
        ch.wire.push(stale, SEQ_MOD - 1)
        ch.send_message("b", b"two")
        stale_count = ch.duplicate_frames
        assert ch.recv_message("b") == b"two"
        assert ch.duplicate_frames == stale_count + 1


class TestFramedChannelClean:
    def test_single_message_round_trip(self):
        ch = _channel()
        ch.send_message("tables", b"abc")
        assert ch.recv_message("tables") == b"abc"
        assert ch.frames_sent == 1
        assert ch.retransmits == 0

    def test_empty_payload_still_ships_a_frame(self):
        ch = _channel()
        ch.send_message("ack", b"")
        assert ch.recv_message("ack") == b""
        assert ch.frames_sent == 1

    def test_chunking_reassembles(self):
        ch = _channel(chunk_bytes=4)
        payload = bytes(range(10))
        ch.send_message("tables", payload)
        assert ch.frames_sent == 3
        assert ch.recv_message("tables") == payload

    def test_interleaved_messages_deliver_in_order(self):
        ch = _channel(chunk_bytes=8)
        ch.send_message("a", b"first")
        ch.send_message("b", b"second-message!!")
        assert ch.recv_message("a") == b"first"
        assert ch.recv_message("b") == b"second-message!!"

    def test_recv_on_empty_channel_aborts(self):
        # Nothing was ever sent, so there is no copy to retransmit: the
        # typed abort, which callers may still catch as a RuntimeError.
        with pytest.raises(SessionAborted, match="no retransmit copy") as info:
            _channel().recv_message("tables")
        assert isinstance(info.value, RuntimeError)

    def test_kind_mismatch_aborts(self):
        ch = _channel()
        ch.send_message("tables", b"abc")
        with pytest.raises(SessionAborted, match="expected 'decode'"):
            ch.recv_message("decode")

    def test_bytes_accounting_includes_framing(self):
        ch = _channel(chunk_bytes=4)
        ch.send_message("tables", bytes(10))
        assert ch.bytes_by_class["tables"] == 10 + 3 * (FRAME_OVERHEAD + len("tables"))
        assert ch.total_bytes == ch.bytes_by_class["tables"]

    def test_digests_match_on_clean_channel(self):
        ch = _channel(chunk_bytes=4)
        ch.send_message("a", b"one")
        ch.send_message("b", bytes(64))
        ch.recv_message("a")
        ch.recv_message("b")
        assert ch.send_digest() == ch.recv_digest()

    def test_digest_frames_excluded_from_digests(self):
        ch = _channel()
        ch.send_message("a", b"one")
        ch.recv_message("a")
        before = (ch.send_digest(), ch.recv_digest())
        ch.send_message(DIGEST_KIND, b"\x00" * 32)
        ch.recv_message(DIGEST_KIND)
        assert (ch.send_digest(), ch.recv_digest()) == before


class TestRecovery:
    def test_lost_frame_recovered_by_retransmit(self):
        log = RecoveryLog()
        ch = _channel(log=log)
        ch.send_message("tables", b"precious")
        assert ch.wire.pop() is not None  # the frame vanishes in transit
        assert ch.recv_message("tables") == b"precious"
        assert ch.retransmits == 1
        assert log.count("transport", "retransmit") == 1

    def test_all_frames_dropped_times_out(self):
        plan = FaultPlan({"drop": 1.0}, seed=0)
        ch = _channel(plan=plan, log=RecoveryLog(), max_retries=3)
        ch.send_message("tables", b"gone")
        with pytest.raises(FrameTimeout, match="after 3 retransmits"):
            ch.recv_message("tables")
        assert ch.retransmits == 3

    def test_corrupt_frames_counted_then_timeout(self):
        plan = FaultPlan({"corrupt": 1.0}, seed=0)
        log = RecoveryLog()
        ch = _channel(plan=plan, log=log, max_retries=2)
        ch.send_message("tables", b"mangled")
        with pytest.raises(FrameTimeout):
            ch.recv_message("tables")
        assert ch.corrupt_frames >= 1
        assert log.count("transport", "frame_corrupt") == ch.corrupt_frames

    def test_truncated_frame_recovered_when_retransmit_survives(self):
        # Seeded so the first push is truncated but a later retransmit
        # gets through; the payload must arrive intact regardless.
        plan = FaultPlan({"truncate": 0.5}, seed=3)
        ch = _channel(plan=plan, log=RecoveryLog())
        ch.send_message("tables", b"cut me")
        assert ch.recv_message("tables") == b"cut me"

    def test_duplicate_frames_dropped(self):
        plan = FaultPlan({"duplicate": 1.0}, seed=0)
        ch = _channel(plan=plan)
        ch.send_message("a", b"one")
        ch.send_message("b", b"two")
        assert ch.recv_message("a") == b"one"
        assert ch.recv_message("b") == b"two"
        assert ch.duplicate_frames >= 1

    def test_reordered_chunks_reassemble(self):
        plan = FaultPlan({"reorder": 1.0}, seed=0)
        ch = _channel(plan=plan, chunk_bytes=2)
        payload = b"abcdefgh"
        ch.send_message("tables", payload)
        assert ch.recv_message("tables") == payload

    def test_delayed_frames_still_arrive(self):
        plan = FaultPlan({"delay": 1.0}, seed=0)
        ch = _channel(plan=plan, chunk_bytes=2)
        payload = b"slow boat"
        ch.send_message("tables", payload)
        assert ch.recv_message("tables") == payload

    def test_tampered_payload_passes_crc_but_skews_digest(self):
        plan = FaultPlan({"tamper": 1.0}, seed=0)
        ch = _channel(plan=plan)
        ch.send_message("tables", b"trust me")
        delivered = ch.recv_message("tables")
        assert delivered != b"trust me"  # CRC was recomputed, so it decoded
        assert ch.corrupt_frames == 0
        assert ch.send_digest() != ch.recv_digest()


class TestLossyWire:
    def test_perfect_without_plan(self):
        wire = LossyWire("w")
        for index in range(5):
            wire.push(bytes([index]), index)
        assert [wire.pop() for _ in range(5)] == [bytes([i]) for i in range(5)]
        assert wire.pop() is None

    def test_drop_counts(self):
        wire = LossyWire("w", FaultPlan({"drop": 1.0}, seed=0))
        wire.push(b"x", 0)
        assert wire.dropped == 1
        assert wire.pop() is None

    def test_pending_includes_delayed(self):
        wire = LossyWire("w", FaultPlan({"delay": 1.0}, seed=0))
        wire.push(b"x", 0)
        assert wire.pending() == 1


class TestFramedPair:
    def test_traffic_accounting_by_class(self):
        pair = make_framed_pair()
        pair.to_evaluator.send_message("tables", bytes(64))
        pair.to_evaluator.send_message("tables", bytes(32))
        pair.to_garbler.send_message("outputs", bytes(1))
        down, up = pair.to_evaluator.bytes_by_class, pair.to_garbler.bytes_by_class
        assert down == {"tables": 96 + 2 * (FRAME_OVERHEAD + len("tables"))}
        assert up == {"outputs": 1 + FRAME_OVERHEAD + len("outputs")}
        assert pair.total_bytes == sum(down.values()) + sum(up.values())
