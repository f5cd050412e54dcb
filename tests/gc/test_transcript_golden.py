"""Transcripts and PRG blocks pinned across commits.

Every other digest test compares two paths at the same commit, so a
change to the order or content of the PRG draws would pass all of them.
These values were recorded once and must not be re-recorded to make a
change pass: a mismatch means labels, OT secrets or wire bytes moved.

Each session runs ``run_streamed`` with bits drawn from
``random.Random(seed)`` (garbler bits first) and the same ``seed`` as the
session seed:

* ``mixed8`` -- direct Chou-Orlandi handshake, 8 choices;
* ``Hamm`` n=64 -- direct, past the pad KDF's batch minimum;
* ``Hamm`` n=512 -- OT extension.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import add, less_than, mul
from repro.gc.protocol import TwoPartySession
from repro.gc.rng import LabelPrg
from repro.workloads import get_workload

# (circuit, seed) -> (transcript_digest, total_bytes), on every backend.
GOLDEN_SESSIONS = {
    ("mixed8", 3): (
        "35dee94e873a376a2305af7fed0bf5b03c808921f6a0aea446840d3d0d9ad501", 5241
    ),
    ("mixed8", 0xC0FFEE): (
        "171a5c4a1a44fb0836c17be1250bfa3d12e4852f8c080a144abd4d862b197f4d", 5241
    ),
    ("hamm64", 3): (
        "bf0aeafcb395023f268e642ff3eccdf0a3a14c4a7938ef953897ac1ff8aa47ab", 13690
    ),
    ("hamm64", 0xC0FFEE): (
        "31158009a20e76aea60ba9a4d486ccc773b1575ce15108371195f280afd5e108", 13690
    ),
    ("hamm512", 3): (
        "5db864a681197abdf3f1b44a0ad1cb830cb3fc056ff1e85f31b4fd8cf9f2bd23", 82696
    ),
    ("hamm512", 0xC0FFEE): (
        "cb6e169acce31d936c5a9a253b7a099b980206621f42a8171d3670f77dce2749", 82696
    ),
}

# seed -> (blocks 0, 1, 2, block 1,024) of LabelPrg(seed).
GOLDEN_PRG = {
    0: (
        0x66E94BD4EF8A2C3B884CFA59CA342B2E,
        0x58E2FCCEFA7E3061367F1D57A4E7455A,
        0x0388DACE60B6A392F328C2B971B2FE78,
        0xD1FF4E7ACD1C79967FEBAB0F7465D450,
    ),
    42: (
        0x5EB4689E8C22CBE20340AC72770FA712,
        0x1DE9EC54ADE6AC57B9AE455560CC9BA5,
        0xAE9934EFE47503AE08F278C50BD83677,
        0xE486BE2092E4BA446A4362195F684BF5,
    ),
    1 << 200: (
        0x9A4E0F00BAFB96B952B9D4F107AD60E7,
        0x4C74D8F3854CD0556F5E81081DE97474,
        0x84A79D8047881DA73C810EDF310753DB,
        0xFFAF96B79E7B7BCD30101BFD6CA680E5,
    ),
}


@pytest.fixture(scope="module")
def circuits():
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(8)
    ys = builder.add_evaluator_inputs(8)
    builder.mark_outputs(add(builder, xs, ys))
    builder.mark_outputs(mul(builder, xs, ys))
    builder.mark_outputs([less_than(builder, xs, ys)])
    hamm = get_workload("Hamm")
    return {
        "mixed8": builder.build("mixed8"),
        "hamm64": hamm.build(n_bits=64).circuit,
        "hamm512": hamm.build(n_bits=512).circuit,
    }


@pytest.mark.parametrize("backend", ["numpy", "scalar"])
@pytest.mark.parametrize("name, seed", sorted(GOLDEN_SESSIONS, key=str))
def test_session_transcript_is_pinned(circuits, name, seed, backend):
    circuit = circuits[name]
    rng = random.Random(seed)
    garbler_bits = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
    evaluator_bits = [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)]
    result = TwoPartySession(circuit, seed=seed, backend=backend).run_streamed(
        garbler_bits, evaluator_bits
    )
    assert result.output_bits == circuit.eval_plain(garbler_bits, evaluator_bits)
    assert (result.transcript_digest, result.total_bytes) == GOLDEN_SESSIONS[
        (name, seed)
    ]


@pytest.mark.parametrize("seed", sorted(GOLDEN_PRG))
def test_prg_known_answers(seed):
    prg = LabelPrg(seed)
    blocks = [prg.next_block() for _ in range(1025)]
    assert (*blocks[:3], blocks[1024]) == GOLDEN_PRG[seed]
