"""No session path builds the AND-level list view.

The roles and the supervisor read ``Circuit.and_level_plan`` -- its
phase count and its index slices; the list-of-lists
``Circuit.and_level_schedule`` is a view for tests and the whole-circuit
batched wrappers.  With that view patched to raise, every drive of
``tests/serve/test_protocol_drives.py`` still completes with the
recorded transcript digest of ``mixed8``: the fused ``run_streamed``,
the ``SessionMultiplexer``, the two roles on two threads over a
socketpair, and a supervised session, plain and with a process-chaos
plan armed (the supervisor's chaos draw reads the phase count; the
armed first attempt is killed and the retry completes).
"""

from __future__ import annotations

import pytest

from repro.circuits.netlist import Circuit
from repro.faults import parse_fault_spec
from repro.gc.protocol import TwoPartySession
from repro.serve import SessionSpec, Supervisor, draw_chaos
from tests.serve.test_protocol_drives import (
    SEED, _bits, _multiplexed, _split_over_threads, _supervised,
)

pytestmark = pytest.mark.timeout(120)

# Transcript digest of ``mixed_circuit`` at ``SEED`` with ``_bits``,
# recorded once like tests/gc/test_transcript_golden.py's values: a
# mismatch means the wire bytes moved, never re-record it to pass.
_MIXED8_DIGEST = "0a457847c95d9361babb816f828da55aebcad767c34964744ea7e83d321da886"


@pytest.fixture
def circuit(mixed_circuit, monkeypatch):
    """``mixed_circuit`` with the list view patched to raise."""
    def list_view(self):
        raise AssertionError("a session built and_level_schedule()")

    monkeypatch.setattr(Circuit, "and_level_schedule", list_view)
    return mixed_circuit


def test_run_streamed(circuit):
    result = TwoPartySession(circuit, seed=SEED).run_streamed(*_bits(circuit))
    assert result.transcript_digest == _MIXED8_DIGEST


def test_multiplexer(circuit):
    assert _multiplexed(circuit, None).result.transcript_digest == _MIXED8_DIGEST


def test_two_threads_over_a_socketpair(circuit):
    assert _split_over_threads(circuit, None).transcript_digest == _MIXED8_DIGEST


def test_supervised(circuit):
    handle = _supervised(circuit, None, _MIXED8_DIGEST)
    assert handle.result.transcript_digest == _MIXED8_DIGEST


def test_supervised_with_chaos_armed(circuit):
    levels_total = len(circuit.and_level_plan)
    # A kill_party plan seed that fires on the first attempt only.
    seed = next(
        seed for seed in range(500)
        if (
            lambda plan: (
                draw_chaos(plan, levels_total, site="x#a1") is not None
                and draw_chaos(plan, levels_total, site="x#a2") is None
            )
        )(parse_fault_spec(f"kill_party:0.5,seed={seed}"))
    )
    supervisor = Supervisor(
        deadline_s=60.0, retries=1, backoff_base_s=0.01, heartbeat_timeout_s=60.0
    )
    handle = supervisor.submit(SessionSpec(
        circuit, *_bits(circuit), seed=SEED,
        faults=f"kill_party:0.5,seed={seed}", reference_digest=_MIXED8_DIGEST,
    ))
    supervisor.run_until_complete()
    assert handle.error is None, handle.error
    assert handle.stats.attempts == 2
    assert handle.result.transcript_digest == _MIXED8_DIGEST
