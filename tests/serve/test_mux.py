"""Session multiplexer: concurrency is invisible to the protocol.

The core invariant: a session run through :class:`SessionMultiplexer`
-- interleaved with any number of neighbours, over any transport, with
any in-flight window -- produces output bits *and* a transcript digest
bit-identical to the same session run solo through
``TwoPartySession.run_streamed``.  On top of that: fair round-robin
scheduling, typed admission rejection, and honest per-session metrics.
"""

from __future__ import annotations

import pytest

from repro.faults import ServiceSaturated
from repro.gc.protocol import StreamedDriver, TwoPartySession
from repro.serve import (
    SessionMultiplexer,
    SocketWire,
    close_framed_pair,
    make_socket_framed_pair,
)
from repro.serve.mux import _percentile


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _solo(circuit, seed=7):
    g, e = _bits(circuit)
    return TwoPartySession(circuit, seed=seed).run_streamed(g, e)


class TestBitIdentity:
    def test_concurrent_sessions_match_solo(self, mixed_circuit):
        solo = _solo(mixed_circuit)
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=4)
        handles = [
            mux.submit(
                TwoPartySession(mixed_circuit, seed=7), g, e,
                session_id=f"s{i}",
            )
            for i in range(4)
        ]
        stats = mux.run_until_complete()
        assert stats.completed == 4 and stats.faulted == 0
        for handle in handles:
            assert handle.result is not None
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest

    def test_extended_handshake_sessions_match_solo(self, wide_circuit, adder_circuit):
        """Sessions above the OT-extension threshold interleaved with one
        below it: the handshake is one step whatever its turn count."""
        g, e = _bits(wide_circuit)
        solo = _solo(wide_circuit)
        assert "evaluator->garbler:otx_matrix" in solo.traffic
        mux = SessionMultiplexer(max_concurrent=3)
        handles = [
            mux.submit(TwoPartySession(wide_circuit, seed=7), g, e)
            for _ in range(2)
        ]
        small = mux.submit(
            TwoPartySession(adder_circuit, seed=7), *_bits(adder_circuit)
        )
        stats = mux.run_until_complete()
        assert stats.completed == 3 and stats.faulted == 0
        for handle in handles:
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest
        assert (
            small.result.transcript_digest
            == _solo(adder_circuit).transcript_digest
        )

    def test_mixed_seeds_stay_isolated(self, adder_circuit):
        g, e = _bits(adder_circuit)
        solos = {seed: _solo(adder_circuit, seed) for seed in (1, 2, 3)}
        mux = SessionMultiplexer(max_concurrent=3)
        handles = {
            seed: mux.submit(TwoPartySession(adder_circuit, seed=seed), g, e)
            for seed in (1, 2, 3)
        }
        mux.run_until_complete()
        digests = set()
        for seed, handle in handles.items():
            assert handle.result.output_bits == solos[seed].output_bits
            assert (
                handle.result.transcript_digest
                == solos[seed].transcript_digest
            )
            digests.add(handle.result.transcript_digest)
        # Different label PRG seeds produce different transcripts: if
        # any two matched, sessions would be sharing state.
        assert len(digests) == 3

    @pytest.mark.parametrize("window", [2, 4, 100])
    def test_inflight_window_is_transcript_invariant(
        self, mixed_circuit, window
    ):
        solo = _solo(mixed_circuit)
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(
            max_concurrent=2, max_inflight_levels=window
        )
        handles = [
            mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
            for _ in range(2)
        ]
        mux.run_until_complete()
        for handle in handles:
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest

    def test_queue_overflow_sessions_run_after_slots_free(
        self, adder_circuit
    ):
        g, e = _bits(adder_circuit)
        solo = _solo(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=2, max_pending=4)
        handles = [
            mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
            for _ in range(6)
        ]
        stats = mux.run_until_complete()
        assert stats.completed == 6
        for handle in handles:
            assert handle.result.output_bits == solo.output_bits


class TestFairness:
    def test_equal_sessions_get_equal_quanta(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=4)
        handles = [
            mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
            for _ in range(4)
        ]
        mux.run_until_complete()
        steps = [h.stats.steps for h in handles]
        # Identical circuits on a round-robin scheduler: every session
        # consumes the same number of quanta -- nobody starves, nobody
        # monopolises.
        assert len(set(steps)) == 1

    def test_small_session_is_not_starved_by_large(
        self, tiny_circuit, mixed_circuit
    ):
        mux = SessionMultiplexer(max_concurrent=2)
        big = mux.submit(
            TwoPartySession(mixed_circuit, seed=7), *_bits(mixed_circuit)
        )
        small = mux.submit(
            TwoPartySession(tiny_circuit, seed=7), *_bits(tiny_circuit)
        )
        mux.run_until_complete()
        assert small.result is not None and big.result is not None
        # The tiny circuit has far fewer levels; round-robin quanta mean
        # it must finish in strictly fewer scheduler passes.
        assert small.stats.steps < big.stats.steps


class TestAdmission:
    def test_submit_past_capacity_raises_typed(self, adder_circuit):
        g, e = _bits(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=1, max_pending=1)
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        with pytest.raises(ServiceSaturated, match="saturated"):
            mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        stats = mux.run_until_complete()
        assert stats.completed == 2
        assert stats.rejected == 1
        assert stats.summary()["rejected"] == 1

    def test_capacity_frees_after_completion(self, adder_circuit):
        g, e = _bits(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=1, max_pending=0)
        first = mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        with pytest.raises(ServiceSaturated):
            mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.run_until_complete()
        assert first.result is not None
        # The slot is free again: a new submit is admitted.
        second = mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.run_until_complete()
        assert second.result is not None

    def test_retry_after_hint_none_without_history(self, adder_circuit):
        from repro.faults import ServiceSaturated

        g, e = _bits(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=1, max_pending=0)
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        with pytest.raises(ServiceSaturated) as excinfo:
            mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        # No session has completed yet: no honest estimate exists.
        assert excinfo.value.retry_after_hint_s is None
        mux.run_until_complete()

    def test_retry_after_hint_tracks_p50_and_queue_depth(
        self, adder_circuit
    ):
        from repro.faults import ServiceSaturated

        g, e = _bits(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=1, max_pending=1)
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.run_until_complete()
        p50 = mux.saturation_hint_s()
        assert p50 is not None and p50 > 0

        # Refill to saturation: hint scales with pending-queue depth.
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        with pytest.raises(ServiceSaturated) as excinfo:
            mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        hint = excinfo.value.retry_after_hint_s
        assert hint is not None
        # Two sessions queued behind one slot: the hint scales the p50
        # session time up by the backlog, p50 * (1 + pending/slots).
        assert hint == pytest.approx(p50 * 3.0)
        assert hint > p50
        mux.run_until_complete()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SessionMultiplexer(max_concurrent=0)
        with pytest.raises(ValueError):
            SessionMultiplexer(max_pending=-1)
        with pytest.raises(ValueError):
            SessionMultiplexer(max_inflight_levels=0)

    def test_driver_window_validation(self, tiny_circuit):
        with pytest.raises(ValueError, match="max_inflight_levels"):
            StreamedDriver(
                TwoPartySession(tiny_circuit, seed=7),
                *_bits(tiny_circuit),
                max_inflight_levels=0,
            )


class TestSocketTransport:
    def test_socket_wire_roundtrip(self):
        wire = SocketWire("test")
        try:
            wire.push(b"alpha", 0)
            wire.push(b"beta", 1)
            assert wire.pending() == 2
            assert wire.pop() == b"alpha"
            assert wire.pop() == b"beta"
            assert wire.pop() is None
            assert wire.pending() == 0
        finally:
            wire.close()

    def test_socket_wire_survives_kernel_buffer_pressure(self):
        # Far more bytes than a socketpair buffer holds: the outbox
        # parking + self-drain path must keep making progress.
        wire = SocketWire("test")
        frames = [bytes([i % 256]) * 8192 for i in range(128)]
        try:
            for i, frame in enumerate(frames):
                wire.push(frame, i)
            for frame in frames:
                got = wire.pop()
                assert got == frame
        finally:
            wire.close()

    def test_socket_backed_session_matches_memory_solo(self, mixed_circuit):
        solo = _solo(mixed_circuit)
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=2)
        sock = mux.submit(
            TwoPartySession(mixed_circuit, seed=7), g, e,
            pair=make_socket_framed_pair(),
        )
        mem = mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
        mux.run_until_complete()
        assert sock.result.output_bits == solo.output_bits
        assert sock.result.transcript_digest == solo.transcript_digest
        assert sock.result.transcript_digest == mem.result.transcript_digest

    def test_socket_pair_rejects_fault_plan(self, tiny_circuit):
        pair = make_socket_framed_pair()
        try:
            with pytest.raises(ValueError, match="LossyWire"):
                StreamedDriver(
                    TwoPartySession(tiny_circuit, seed=7, faults="drop:1.0"),
                    *_bits(tiny_circuit),
                    pair=pair,
                )
        finally:
            close_framed_pair(pair)

    def test_tiny_sndbuf_partial_writes_no_deadlock(self):
        # A pinned-small SO_SNDBUF forces the partial-write parking
        # path on every frame; the wire must keep making progress and
        # deliver every byte in order.
        wire = SocketWire("test", sndbuf=2048)
        frames = [bytes([i % 256]) * 16384 for i in range(32)]
        try:
            for i, frame in enumerate(frames):
                wire.push(frame, i)
            for frame in frames:
                assert wire.pop() == frame
        finally:
            wire.close()

    def test_peer_killed_mid_frame_is_typed(self):
        from repro.faults import PeerDisconnected

        # Tiny buffers so a large frame cannot fit in flight, then kill
        # the receiving endpoint mid-transfer: the outbox self-drain
        # must surface typed PeerDisconnected, never a raw OSError and
        # never a deadlock.
        wire = SocketWire("test", sndbuf=2048)
        try:
            wire._rx.close()
            with pytest.raises(PeerDisconnected):
                for seq in range(64):
                    wire.push(b"x" * 16384, seq)
        finally:
            wire.close()

    def test_push_after_close_is_typed(self):
        from repro.faults import PeerDisconnected

        wire = SocketWire("test")
        wire.close()
        with pytest.raises(PeerDisconnected):
            wire.push(b"frame", 0)

    def test_close_is_idempotent(self):
        wire = SocketWire("test")
        wire.push(b"frame", 0)
        wire.close()
        wire.close()  # second close must be a no-op, not an error
        pair = make_socket_framed_pair()
        close_framed_pair(pair)
        close_framed_pair(pair)


class TestStats:
    def test_per_session_metrics_populated(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=1, max_pending=2)
        handles = [
            mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
            for _ in range(3)
        ]
        stats = mux.run_until_complete()
        for handle in handles:
            s = handle.stats
            assert s.ok
            assert s.run_s > 0
            assert s.first_level_s is not None and s.first_level_s > 0
            assert s.streamed_levels == handles[0].result.streamed_levels
            assert s.levels_per_s > 0
            assert s.steps > 0
            assert s.error is None
            assert set(s.as_dict()) >= {
                "session_id", "ok", "queue_wait_s", "first_level_s",
                "levels_per_s", "recovery_events",
            }
        # With one slot, later sessions queue behind earlier ones.
        waits = [h.stats.queue_wait_s for h in handles]
        assert waits[2] > waits[0]
        summary = stats.summary()
        assert summary["sessions"] == 3
        assert summary["completed"] == 3
        assert summary["sessions_per_s"] > 0
        assert summary["first_level_p95_s"] >= summary["first_level_p50_s"]
        assert summary["queue_wait_p95_s"] >= summary["queue_wait_p50_s"]

    def test_percentile_helper(self):
        assert _percentile([], 50) is None
        assert _percentile([3.0], 95) == 3.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert _percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


class TestCli:
    def test_serve_subcommand_runs(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--sessions", "3", "--width", "8",
            "--concurrency", "2", "--window", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 3/3" in out
        assert "sessions/s" in out

    def test_serve_subcommand_socket_transport(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--sessions", "2", "--width", "8",
            "--transport", "socket",
        ])
        assert code == 0
        assert "socket wire" in capsys.readouterr().out
