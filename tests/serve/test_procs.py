"""Out-of-process supervised sessions: correctness and supervision.

The supervisor tree under test: party workers in their own OS
processes over a kernel socketpair, with the parent enforcing
heartbeat liveness, wall-clock deadlines, bounded retry budgets
(re-verified bit-identical against a fault-free reference digest) and
graceful drain -- all without ever leaking a child process.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time

import pytest

from repro.faults import (
    FaultKindUnsupported,
    FrameTimeout,
    PeerDisconnected,
    ServiceSaturated,
    SessionAborted,
    SessionDeadlineExceeded,
)
from repro.gc.backends import BackendUnavailable
from repro.gc.protocol import TwoPartySession
from repro.serve import (
    PeerSocketWire,
    SessionSpec,
    Supervisor,
    SupervisorLog,
    draw_chaos,
)

pytestmark = pytest.mark.timeout(120)


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _solo(circuit, seed=7):
    g, e = _bits(circuit)
    return TwoPartySession(circuit, seed=seed).run_streamed(g, e)


def _assert_reaped():
    """Zero zombies: the supervisor's reap contract."""
    # join any exited-but-unreaped children, then require none alive.
    leftovers = multiprocessing.active_children()
    assert not [p for p in leftovers if p.is_alive()], leftovers


class TestProcessSession:
    # Bit-identity of one supervised session against the fused solo drive
    # (outputs, digest, traffic, levels) is an input of the one-protocol
    # equivalence test in test_protocol_drives.py.

    def test_concurrent_process_sessions(self, adder_circuit):
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(
            max_concurrent=3, max_pending=8, deadline_s=60.0
        )
        handles = [
            supervisor.submit(SessionSpec(
                adder_circuit, g, e, seed=7, session_id=f"c{i}",
                reference_digest=solo.transcript_digest,
            ))
            for i in range(5)
        ]
        stats = supervisor.run_until_complete()
        for handle in handles:
            assert handle.error is None, handle.error
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest
        summary = stats.summary()
        assert summary["completed"] == 5
        assert summary["retries"] == 0
        assert summary["drain"] is None
        _assert_reaped()

    def test_session_above_the_ot_extension_threshold(self):
        """256 evaluator inputs: each party process derives the extended
        handshake on its own and the digest is the fused drive's."""
        from repro.workloads import get_workload

        circuit = get_workload("Hamm").build(n_bits=256).circuit
        solo = _solo(circuit)
        assert "evaluator->garbler:otx_matrix" in solo.traffic
        g, e = _bits(circuit)
        supervisor = Supervisor(deadline_s=60.0, retries=0)
        handle = supervisor.submit(SessionSpec(
            circuit, g, e, seed=7, reference_digest=solo.transcript_digest,
        ))
        supervisor.run_until_complete()
        assert handle.error is None, handle.error
        assert handle.result.output_bits == solo.output_bits
        assert handle.result.transcript_digest == solo.transcript_digest
        assert handle.result.traffic == solo.traffic
        _assert_reaped()

    def test_admission_control_and_retry_hint(self, tiny_circuit):
        g, e = _bits(tiny_circuit)
        supervisor = Supervisor(
            max_concurrent=1, max_pending=1, deadline_s=60.0
        )
        supervisor.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        supervisor.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        # No completion history yet: saturated, but no honest hint.
        with pytest.raises(ServiceSaturated) as excinfo:
            supervisor.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        assert excinfo.value.retry_after_hint_s is None
        supervisor.run_until_complete()

        # With history, a saturated submit carries a positive hint.
        supervisor2 = Supervisor(
            max_concurrent=1, max_pending=0, deadline_s=60.0
        )
        supervisor2.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        supervisor2.run_until_complete()
        supervisor2.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        with pytest.raises(ServiceSaturated) as excinfo:
            supervisor2.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        assert excinfo.value.retry_after_hint_s is not None
        assert excinfo.value.retry_after_hint_s > 0
        supervisor2.run_until_complete()
        _assert_reaped()

    @pytest.mark.parametrize(
        "n_garbler_bits, n_evaluator_bits, what",
        [
            # The adder takes 8 + 8 bits.  Before admission validated
            # arity, the long-garbler session *completed* with the extra
            # bits silently dropped; the other three burned the whole
            # retry budget before sealing SessionAborted.
            (10, 8, "garbler"),
            (7, 8, "garbler"),
            (8, 7, "evaluator"),
            (8, 9, "evaluator"),
        ],
    )
    def test_malformed_inputs_rejected_at_admission(
        self, adder_circuit, n_garbler_bits, n_evaluator_bits, what
    ):
        supervisor = Supervisor(deadline_s=60.0, retries=2)
        with pytest.raises(ValueError, match=f"wrong number of {what} input bits"):
            supervisor.submit(SessionSpec(
                adder_circuit, [1] * n_garbler_bits, [0] * n_evaluator_bits,
                seed=7,
            ))
        stats = supervisor.run_until_complete()
        # Not admitted: nothing was queued, so no process was ever spawned.
        assert "launched" not in [ev["event"] for ev in supervisor.log.events]
        assert stats.sessions == [] and supervisor.sessions == []
        assert stats.retries == 0 and stats.worker_restarts == 0
        # The next well-formed session takes the first admission id.
        assert supervisor._admitted == 0

    @pytest.mark.parametrize("backend", ["cuda", "scalar", "auto:2"])
    def test_unknown_backend_rejected_at_admission(self, adder_circuit, backend):
        # Before admission resolved the backend, this session launched
        # 2 attempts x 2 workers and then sealed SessionAborted.
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(deadline_s=60.0, retries=2)
        with pytest.raises(BackendUnavailable):
            supervisor.submit(
                SessionSpec(adder_circuit, g, e, seed=7, backend=backend)
            )
        stats = supervisor.run_until_complete()
        assert "launched" not in [ev["event"] for ev in supervisor.log.events]
        assert stats.sessions == [] and supervisor._admitted == 0

    @pytest.mark.parametrize("faults", ["drop:1.0,seed=3", "tamper,kill_party"])
    def test_frame_kind_rejected_at_admission(self, adder_circuit, faults):
        # The kernel socket never applies frame faults: before the
        # supervisor checked the plan, "drop:1.0" completed with 0
        # recoveries as if it had been injected.
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(deadline_s=60.0)
        with pytest.raises(FaultKindUnsupported, match="process supervisor"):
            supervisor.submit(SessionSpec(adder_circuit, g, e, faults=faults))
        stats = supervisor.run_until_complete()
        assert "launched" not in [ev["event"] for ev in supervisor.log.events]
        assert stats.sessions == [] and supervisor._admitted == 0

    def test_invalid_circuit_rejected_at_admission(self, adder_circuit):
        import copy

        broken = copy.deepcopy(adder_circuit)
        broken.a[len(broken.a) - 1] = broken.n_wires + 5  # dangling input wire
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(deadline_s=60.0)
        with pytest.raises(ValueError):
            supervisor.submit(SessionSpec(broken, g, e, seed=7))
        assert supervisor.log.events == []

    def test_deadline_kills_and_seals_typed(self, adder_circuit):
        g, e = _bits(adder_circuit)
        # A deadline far below any real session time: the watchdog must
        # kill both workers and seal with the typed deadline fault.
        supervisor = Supervisor(
            deadline_s=0.001, retries=0, heartbeat_timeout_s=60.0
        )
        handle = supervisor.submit(SessionSpec(adder_circuit, g, e, seed=7))
        t0 = time.perf_counter()
        supervisor.run_until_complete()
        elapsed = time.perf_counter() - t0
        assert isinstance(handle.error, SessionDeadlineExceeded)
        assert elapsed < 30.0  # killed promptly, not hung
        _assert_reaped()

    def test_reports_read_after_the_deadline_are_an_overrun(
        self, adder_circuit, monkeypatch
    ):
        """A loaded host can deschedule the supervisor until both workers
        have finished; reports it reads past the deadline must not seal
        a success."""
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(
            deadline_s=0.001, retries=0, heartbeat_timeout_s=60.0
        )
        poll = supervisor._wait

        def late_poll():
            for sess in supervisor._running:
                for proc in sess.attempt.procs.values():
                    proc.join(30.0)
            poll()

        monkeypatch.setattr(supervisor, "_wait", late_poll)
        handle = supervisor.submit(SessionSpec(adder_circuit, g, e, seed=7))
        supervisor.run_until_complete()
        assert isinstance(handle.error, SessionDeadlineExceeded)
        _assert_reaped()

    def test_retry_recovers_and_reverifies(self, adder_circuit):
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        levels_total = len(list(adder_circuit.and_level_schedule()))

        # Seed-hunt a kill_party schedule that hits attempt 1 and
        # misses attempt 2, using the supervisor's own draw order.
        from repro.faults import parse_fault_spec

        seed = next(
            s for s in range(500)
            if (
                lambda plan: (
                    draw_chaos(plan, levels_total, site="x#a1") is not None
                    and draw_chaos(plan, levels_total, site="x#a2") is None
                )
            )(parse_fault_spec(f"kill_party:0.5,seed={s}"))
        )
        supervisor = Supervisor(
            deadline_s=60.0, retries=2, backoff_base_s=0.01
        )
        handle = supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7,
            faults=f"kill_party:0.5,seed={seed}",
            reference_digest=solo.transcript_digest,
        ))
        stats = supervisor.run_until_complete()
        assert handle.error is None, handle.error
        assert handle.stats.attempts == 2
        assert handle.result.output_bits == solo.output_bits
        assert handle.result.transcript_digest == solo.transcript_digest
        assert stats.retries == 1
        assert stats.worker_restarts == 2
        assert stats.summary()["retries"] == 1
        _assert_reaped()

    def test_retry_budget_exhausts_to_typed_fault(self, adder_circuit):
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(
            deadline_s=60.0, retries=1, backoff_base_s=0.01
        )
        handle = supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7, faults="kill_party,seed=3"
        ))
        stats = supervisor.run_until_complete()
        assert handle.error is not None
        assert handle.stats.attempts == 2  # original + one retry
        assert stats.retries == 1
        _assert_reaped()

    def test_drain_finishes_in_flight_cancels_pending(self, adder_circuit):
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(
            max_concurrent=1, max_pending=8, deadline_s=60.0,
            drain_timeout_s=30.0,
        )
        handles = [
            supervisor.submit(SessionSpec(
                adder_circuit, g, e, seed=7, session_id=f"d{i}"
            ))
            for i in range(4)
        ]
        timer = threading.Timer(0.05, supervisor.request_drain)
        timer.start()
        try:
            stats = supervisor.run_until_complete()
        finally:
            timer.cancel()
        drain = stats.drain
        assert drain is not None and drain["requested"]
        assert drain["clean"]
        assert drain["killed_in_flight"] == 0
        # In-flight work finished bit-identical; the queue was cancelled
        # with a typed error, and admissions are closed afterwards.
        finished = [h for h in handles if h.error is None]
        cancelled = [h for h in handles if h.error is not None]
        assert finished and cancelled
        assert len(finished) + len(cancelled) == 4
        for handle in finished:
            assert handle.result.output_bits == solo.output_bits
        for handle in cancelled:
            assert isinstance(handle.error, SessionAborted)
            # They waited in the queue until the drain sealed them.
            assert handle.stats.queue_wait_s > 0
            assert handle.stats.attempts == 0
        with pytest.raises(ServiceSaturated):
            supervisor.submit(SessionSpec(adder_circuit, g, e, seed=7))
        _assert_reaped()

    def test_supervisor_log_records_lifecycle(self, tiny_circuit, tmp_path):
        g, e = _bits(tiny_circuit)
        log_path = tmp_path / "events.jsonl"
        supervisor = Supervisor(
            deadline_s=60.0, log=SupervisorLog(str(log_path))
        )
        supervisor.submit(SessionSpec(tiny_circuit, g, e, seed=7))
        supervisor.run_until_complete()
        kinds = [event["event"] for event in supervisor.log.events]
        assert "submitted" in kinds
        assert "launched" in kinds
        assert "sealed" in kinds
        assert "run_finished" in kinds
        # The JSONL mirror exists and parses line-by-line.
        import json

        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == len(supervisor.log.events)
        assert all(json.loads(line)["event"] for line in lines)


class TestPeerSocketWire:
    """The one framed socket wire: one ``socketpair``, a reader thread."""

    @staticmethod
    def _pair(sndbuf=None, io_timeout_s=10.0):
        tx, rx = socket.socketpair()
        if sndbuf is not None:
            tx.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
            rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, sndbuf)
        return PeerSocketWire(tx, "tx", io_timeout_s=io_timeout_s), rx

    @staticmethod
    def _in_thread(target):
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread

    def test_frames_cross_a_tiny_send_buffer_in_order(self):
        # A 2 KiB SO_SNDBUF forces partial writes on every 16 KiB frame;
        # the reader drains concurrently and sees every byte in order.
        wire, rx_sock = self._pair(sndbuf=2048)
        rx = PeerSocketWire(rx_sock, "rx", io_timeout_s=10.0)
        frames = [bytes([i % 256]) * 16384 for i in range(32)]
        got = []
        reader = self._in_thread(lambda: got.extend(rx.pop() for _ in frames))
        try:
            for seq, frame in enumerate(frames):
                wire.push(frame, seq)
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            assert got == frames
        finally:
            wire.close()
            rx.close()

    def test_peer_closed_mid_frame_is_typed(self):
        # Sender side: the reader takes part of a large frame, then
        # closes its end; the blocked push surfaces PeerDisconnected.
        wire, rx_sock = self._pair(sndbuf=2048)

        def read_some_then_close():
            rx_sock.recv(4096)
            rx_sock.close()

        reader = self._in_thread(read_some_then_close)
        try:
            with pytest.raises(PeerDisconnected):
                wire.push(b"x" * (1 << 20), 0)
        finally:
            reader.join(timeout=30.0)
            wire.close()

        # Receiver side: the peer sends a length prefix and half the
        # payload, then closes; pop surfaces PeerDisconnected.
        wire, tx_sock = self._pair()
        tx_sock.sendall((1000).to_bytes(4, "little") + b"y" * 500)
        tx_sock.close()
        try:
            with pytest.raises(PeerDisconnected, match="504 bytes buffered"):
                wire.pop()
        finally:
            wire.close()

    def test_no_progress_is_a_frame_timeout(self):
        # A silent peer: pop waits io_timeout_s, then FrameTimeout.  A
        # peer that never reads: push fills the buffers, then the same.
        wire, rx_sock = self._pair(sndbuf=2048, io_timeout_s=0.05)
        try:
            with pytest.raises(FrameTimeout, match="no recv progress"):
                wire.pop()
            with pytest.raises(FrameTimeout, match="no send progress"):
                wire.push(b"x" * (1 << 20), 0)
        finally:
            wire.close()
            rx_sock.close()

    def test_push_after_close_is_typed(self):
        wire, rx_sock = self._pair()
        wire.close()
        rx_sock.close()
        with pytest.raises(PeerDisconnected):
            wire.push(b"frame", 0)

    def test_close_is_idempotent(self):
        wire, rx_sock = self._pair()
        wire.push(b"frame", 0)
        wire.close()
        wire.close()  # second close must be a no-op, not an error
        rx_sock.close()


class TestServeCliProcessTransport:
    def test_process_transport_healthy(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--sessions", "2", "--width", "8",
            "--transport", "process", "--concurrency", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "process wire" in out
        assert "supervision:" in out
        _assert_reaped()

    def test_faulted_session_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--sessions", "2", "--width", "8",
            "--transport", "process", "--retries", "0",
            "--faults", "kill_party,seed=1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "sealed with errors" in captured.err
        _assert_reaped()

    def test_faulted_memory_session_exits_nonzero(self, capsys):
        # Satellite contract: *any* session sealing with an error makes
        # `repro serve` exit nonzero, on every transport -- injected
        # faults included.
        from repro.cli import main

        code = main([
            "serve", "--sessions", "2", "--width", "8",
            "--faults", "drop:1.0,seed=2",
        ])
        assert code == 2
